package checkpoint

import (
	"bytes"
	"testing"

	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// FuzzDecodeStateAndLog throws arbitrary bytes at the two decoders a
// standby feeds from its primary's link: garbage must be refused with an
// error, never a panic, and whatever does decode must survive a re-encode —
// the bytes it encodes to decode again, to a value that encodes to the same
// bytes (compared encoded because coordinates may be NaN).
func FuzzDecodeStateAndLog(f *testing.F) {
	entities := []virtualworld.Entity{
		{ID: 1, Kind: virtualworld.KindAvatar, Owner: 42, X: 10, Y: 20, Facing: 1.5, HP: 90, State: 2, Version: 7},
		{ID: 2, Kind: virtualworld.KindNPC, Owner: -1, X: 30, Y: 40, HP: 100, Version: 1},
	}
	st := State{Epoch: 2, NextID: 3, Sessions: []int32{42}, RNG: rng.New(1).State(),
		World: virtualworld.Snapshot{Tick: 70, Width: 400, Height: 300, Entities: entities}}
	st.Canonicalize()
	entry := LogEntry{Epoch: 2, Tick: 71, NextID: 3,
		Deltas: []virtualworld.Delta{{ID: 1, Entity: entities[0]}, {ID: 2, Removed: true}}}
	for i, valid := range [][]byte{st.AppendTo(nil), entry.AppendTo(nil)} {
		isLog := i == 1
		f.Add(isLog, valid)
		f.Add(isLog, valid[:len(valid)/2])
		f.Add(isLog, append(valid, 0))
	}
	f.Fuzz(func(t *testing.T, isLog bool, data []byte) {
		recode := func(b []byte) ([]byte, error) {
			if isLog {
				var e LogEntry
				err := DecodeLogEntry(b, &e)
				return e.AppendTo(nil), err
			}
			var s State
			err := DecodeState(b, &s)
			return s.AppendTo(nil), err
		}
		enc, err := recode(data)
		if err != nil {
			return
		}
		again, err := recode(enc)
		if err != nil {
			t.Fatalf("log=%v: re-encoding of a decoded value does not decode: %v", isLog, err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("log=%v: value changed across a re-encode", isLog)
		}
	})
}
