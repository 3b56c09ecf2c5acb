package protocol

import (
	"bytes"
	"testing"

	"cloudfog/internal/virtualworld"
)

// marshaler is what every handshake message is.
type marshaler interface{ Marshal() []byte }

// handshakeDecoder adapts one typed Unmarshal function to the table.
func handshakeDecoder[M marshaler](unmarshal func([]byte) (M, error)) func([]byte) (marshaler, error) {
	return func(b []byte) (marshaler, error) { return unmarshal(b) }
}

// handshakeDecoders are the decoders fognet's handshake primitive feeds
// with bytes straight off the network, each with one valid seed message.
var handshakeDecoders = []struct {
	name   string
	decode func([]byte) (marshaler, error)
	seed   marshaler
}{
	{"SupernodeHello", handshakeDecoder(UnmarshalSupernodeHello),
		SupernodeHello{Name: "sn-1", Capacity: 8, StreamAddr: "10.0.0.7:7000"}},
	{"SupernodeWelcome", handshakeDecoder(UnmarshalSupernodeWelcome),
		SupernodeWelcome{SupernodeID: 3, Epoch: 2, StandbyAddr: "10.0.0.2:7301", Snapshot: fuzzSnapshot()}},
	{"PlayerJoin", handshakeDecoder(UnmarshalPlayerJoin),
		PlayerJoin{PlayerID: 42, GameID: 3, SpawnX: 12.5, SpawnY: -7}},
	{"JoinReply", handshakeDecoder(UnmarshalJoinReply),
		JoinReply{OK: true, Epoch: 2, Tick: 99, Candidates: fuzzCandidates(), CloudStreamAddr: "10.0.0.1:7301"}},
	{"PlayerAttach", handshakeDecoder(UnmarshalPlayerAttach),
		PlayerAttach{PlayerID: 42, QualityLevel: 4}},
	{"AttachReply", handshakeDecoder(UnmarshalAttachReply),
		AttachReply{Reason: "at capacity"}},
	{"ProbeReply", handshakeDecoder(UnmarshalProbeReply),
		ProbeReply{Available: 5}},
	{"StandbyHello", handshakeDecoder(UnmarshalStandbyHello),
		StandbyHello{Addr: "10.0.0.2:7301"}},
	{"Resume", handshakeDecoder(UnmarshalResume),
		Resume{Kind: ResumeSupernode, Epoch: 1, Tick: 77, Name: "sn-1", Capacity: 8, StreamAddr: "10.0.0.7:7000"}},
	{"ResumeReply", handshakeDecoder(UnmarshalResumeReply),
		ResumeReply{OK: true, Discard: true, Epoch: 2, Tick: 70, SupernodeID: 4, HasSnapshot: true,
			Snapshot: fuzzSnapshot(), Candidates: fuzzCandidates(), StandbyAddr: "10.0.0.3:7301"}},
	{"DatagramRequest", handshakeDecoder(UnmarshalDatagramRequest),
		DatagramRequest{PlayerID: 42}},
	{"DatagramReply", handshakeDecoder(UnmarshalDatagramReply),
		DatagramReply{OK: true, Addr: "10.0.0.7:7001", Token: 0xfeedface, Epoch: 2}},
}

func fuzzSnapshot() virtualworld.Snapshot {
	return virtualworld.Snapshot{Tick: 70, Width: 400, Height: 300, Entities: []virtualworld.Entity{
		{ID: 1, Kind: virtualworld.KindAvatar, Owner: 42, X: 10, Y: 20, Facing: 1.5, HP: 90, State: 2, Version: 7},
		{ID: 2, Kind: virtualworld.KindNPC, Owner: -1, X: 30, Y: 40, HP: 100, Version: 1},
	}}
}

func fuzzCandidates() []CandidateInfo {
	return []CandidateInfo{{Addr: "10.0.0.7:7000", Load: 2, Capacity: 8, MeasuredRTTMs: -1, Score: 0.5}}
}

// FuzzHandshakeDecode throws arbitrary bytes at every handshake decoder:
// garbage must be refused with an error, never a panic, and whatever does
// decode must survive a re-encode — the bytes it marshals to decode again,
// to a value that marshals to the same bytes. Values are compared through
// their encoding because the coordinates may be NaN, which no == matches.
func FuzzHandshakeDecode(f *testing.F) {
	for i, d := range handshakeDecoders {
		valid := d.seed.Marshal()
		if _, err := d.decode(valid); err != nil {
			f.Fatalf("%s: seed does not decode: %v", d.name, err)
		}
		f.Add(uint8(i), valid)
		f.Add(uint8(i), valid[:len(valid)/2])
		f.Add(uint8(i), append(valid, 0))
	}
	f.Add(uint8(1), bytes.Repeat([]byte{0xFF}, 64)) // hostile entity count
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		d := handshakeDecoders[int(which)%len(handshakeDecoders)]
		m, err := d.decode(data)
		if err != nil {
			return
		}
		enc := m.Marshal()
		again, err := d.decode(enc)
		if err != nil {
			t.Fatalf("%s: re-encoding of a decoded message does not decode: %v", d.name, err)
		}
		if !bytes.Equal(again.Marshal(), enc) {
			t.Fatalf("%s: value changed across a re-encode", d.name)
		}
	})
}
