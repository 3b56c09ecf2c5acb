package protocol

import (
	"io"
	"testing"

	"cloudfog/internal/virtualworld"
)

// BenchmarkUpdateBatchAppendTo measures encoding one 100-delta update
// batch into a warm buffer — the cloud's per-supernode per-tick
// serialization cost, allocation-free.
func BenchmarkUpdateBatchAppendTo(b *testing.B) {
	batch := benchBatch(100)
	buf := make([]byte, 0, len(batch.AppendTo(nil)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = batch.AppendTo(buf[:0])
	}
}

// BenchmarkUpdateBatchDecodeInto measures the reusable decode — the
// zero-allocation decode on the supernode's
// apply loop.
func BenchmarkUpdateBatchDecodeInto(b *testing.B) {
	payload := benchBatch(100).AppendTo(nil)
	var m UpdateBatch
	// Warm m.Deltas to steady-state capacity: the first decode's slice
	// growth is a one-time cost per connection, not a per-op one, and
	// amortizing it over the fixed -benchtime iteration count used to
	// show up as a phantom 7 B/op.
	if err := DecodeUpdateBatch(payload, &m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeUpdateBatch(payload, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMessage is the legacy wire path — encode into a fresh
// slice, then a framed WriteMessage (two Write calls, fresh header and payload per message).
// It is the baseline the append-path benchmarks below are measured
// against.
func BenchmarkWriteMessage(b *testing.B) {
	batch := benchBatch(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, MsgUpdateBatch, batch.AppendTo(nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFrame is the replacement wire path: encode the message
// and its frame header into one reused buffer and flush with a single
// Write. Steady state must be 0 allocs/op.
func BenchmarkAppendFrame(b *testing.B) {
	batch := benchBatch(100)
	buf := make([]byte, 0, len(batch.AppendTo(nil))+HeaderLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendMessage(buf[:0], MsgUpdateBatch, &batch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadMessage is the legacy receive path: a fresh header and
// payload allocation per message.
func BenchmarkReadMessage(b *testing.B) {
	stream, err := AppendFrame(nil, MsgUpdateBatch, benchBatch(100).AppendTo(nil))
	if err != nil {
		b.Fatal(err)
	}
	rs := &repeatStream{data: stream}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadMessage(rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameReader is the replacement receive path: one growable
// buffer per connection, reused across messages. Steady state must be
// 0 allocs/op.
func BenchmarkFrameReader(b *testing.B) {
	stream, err := AppendFrame(nil, MsgUpdateBatch, benchBatch(100).AppendTo(nil))
	if err != nil {
		b.Fatal(err)
	}
	fr := NewFrameReader(&repeatStream{data: stream})
	if _, _, err := fr.Next(); err != nil { // warm the buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellBatchAppendTo measures encoding one dirty cell's batch —
// the cloud's per-cell per-tick serialization cost under AoI fan-out.
func BenchmarkCellBatchAppendTo(b *testing.B) {
	batch := CellBatch{Tick: 1, Cell: 7, Deltas: benchBatch(20).Deltas}
	buf := make([]byte, 0, len(batch.AppendTo(nil)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = batch.AppendTo(buf[:0])
	}
}

// BenchmarkCellBatchDecodeInto measures the fog-side per-cell decode.
func BenchmarkCellBatchDecodeInto(b *testing.B) {
	payload := CellBatch{Tick: 1, Cell: 7, Deltas: benchBatch(20).Deltas}.AppendTo(nil)
	var m CellBatch
	if err := DecodeCellBatch(payload, &m); err != nil { // warm capacity
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeCellBatch(payload, &m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatch(n int) UpdateBatch {
	batch := UpdateBatch{Tick: 1}
	for i := 0; i < n; i++ {
		batch.Deltas = append(batch.Deltas, virtualworld.Delta{
			ID: virtualworld.EntityID(i + 1),
			Entity: virtualworld.Entity{
				ID: virtualworld.EntityID(i + 1), Kind: virtualworld.KindAvatar,
				Owner: i, X: float64(i), Y: float64(i), HP: 100, Version: uint32(i),
			},
		})
	}
	return batch
}
