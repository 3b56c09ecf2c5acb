package protocol

import (
	"bytes"
	"hash/fnv"
	"testing"

	"cloudfog/internal/virtualworld"
)

// encode is the tests' one encoder for a message of any type: AppendTo(nil)
// for the messages that have it, Marshal for the handshakes.
func encode(m any) []byte {
	if a, ok := m.(Appender); ok {
		return a.AppendTo(nil)
	}
	return m.(interface{ Marshal() []byte }).Marshal()
}

// unmarshalFn adapts one typed Unmarshal function to the table.
func unmarshalFn[M any](unmarshal func([]byte) (M, error)) func([]byte) (any, error) {
	return func(b []byte) (any, error) { return unmarshal(b) }
}

// decodeFn adapts a Decode function, which fills a message the caller
// reuses, to the table.
func decodeFn[M any](decode func([]byte, *M) error) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		m := new(M)
		return m, decode(b, m)
	}
}

// networkDecoders are all the decoders fognet feeds with bytes straight off
// the network — the handshake messages first, then what flows on an
// admitted connection — each with one valid seed message.
var networkDecoders = []struct {
	name   string
	decode func([]byte) (any, error)
	seed   any
}{
	{"SupernodeHello", unmarshalFn(UnmarshalSupernodeHello),
		SupernodeHello{Name: "sn-1", Capacity: 8, StreamAddr: "10.0.0.7:7000"}},
	{"SupernodeWelcome", unmarshalFn(UnmarshalSupernodeWelcome),
		SupernodeWelcome{SupernodeID: 3, Epoch: 2, StandbyAddr: "10.0.0.2:7301", Snapshot: fuzzSnapshot()}},
	{"PlayerJoin", unmarshalFn(UnmarshalPlayerJoin),
		PlayerJoin{PlayerID: 42, GameID: 3, SpawnX: 12.5, SpawnY: -7}},
	{"JoinReply", unmarshalFn(UnmarshalJoinReply),
		JoinReply{OK: true, Epoch: 2, Tick: 99, Candidates: fuzzCandidates(), CloudStreamAddr: "10.0.0.1:7301"}},
	{"PlayerAttach", unmarshalFn(UnmarshalPlayerAttach),
		PlayerAttach{PlayerID: 42, QualityLevel: 4}},
	{"AttachReply", unmarshalFn(UnmarshalAttachReply),
		AttachReply{OK: true, Datagram: DatagramGrant{Addr: "10.0.0.7:7001", Token: 0xfeedface, Epoch: 2}}},
	{"ProbeReply", unmarshalFn(UnmarshalProbeReply),
		ProbeReply{Available: 5}},
	{"StandbyHello", unmarshalFn(UnmarshalStandbyHello),
		StandbyHello{Addr: "10.0.0.2:7301"}},
	{"Resume", unmarshalFn(UnmarshalResume),
		Resume{Kind: ResumeSupernode, Epoch: 1, Tick: 77, Name: "sn-1", Capacity: 8, StreamAddr: "10.0.0.7:7000"}},
	{"ResumeReply", unmarshalFn(UnmarshalResumeReply),
		ResumeReply{OK: true, Discard: true, Epoch: 2, Tick: 70, SupernodeID: 4, HasSnapshot: true,
			Snapshot: fuzzSnapshot(), Candidates: fuzzCandidates(), StandbyAddr: "10.0.0.3:7301"}},
	{"UpdateBatch", decodeFn(DecodeUpdateBatch),
		UpdateBatch{Epoch: 2, Tick: 71, Deltas: fuzzDeltas()}},
	{"CellBatch", decodeFn(DecodeCellBatch),
		CellBatch{Epoch: 2, Tick: 71, Cell: 9, Keyframe: true, Deltas: fuzzDeltas()}},
	{"InterestUpdate", decodeFn(DecodeInterestUpdate),
		InterestUpdate{Gen: 3, CellSize: 64, Players: []int32{42}}},
	{"QoEReport", unmarshalFn(UnmarshalQoEReport),
		QoEReport{PlayerID: 42, Addr: "10.0.0.7:7000", Rating: 0.25, Stalled: true}},
	{"CandidateUpdate", unmarshalFn(UnmarshalCandidateUpdate),
		CandidateUpdate{Candidates: fuzzCandidates(), CloudStreamAddr: "10.0.0.1:7301", StandbyAddr: "10.0.0.2:7301"}},
	{"ActionMsg", unmarshalFn(UnmarshalActionMsg),
		ActionMsg{Action: virtualworld.Action{Player: 42, Kind: virtualworld.ActMove, TargetX: 120, TargetY: 80}}},
	{"Heartbeat", unmarshalFn(UnmarshalHeartbeat),
		Heartbeat{Seq: 17}},
	{"HeartbeatAck", unmarshalFn(UnmarshalHeartbeatAck),
		HeartbeatAck{Seq: 17, ReplicaTick: 70, Attached: 3}},
	{"RateChange", unmarshalFn(UnmarshalRateChange),
		RateChange{QualityLevel: 2}},
}

func fuzzDeltas() []virtualworld.Delta {
	snap := fuzzSnapshot()
	return []virtualworld.Delta{{ID: 1, Entity: snap.Entities[0]}, {ID: 2, Removed: true}}
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

// pinnedSeedBytes is the FNV-1a hash of every seed's encoding. A hash
// changes only with the format of its message, and says why beside it.
var pinnedSeedBytes = map[string]uint64{
	"SupernodeHello":   0x6c6d5c2b044e5d20,
	"SupernodeWelcome": 0xadf52b903ecd684b,
	"PlayerJoin":       0x9194bae6866a402b,
	"JoinReply":        0xc50f4490ad689ca2,
	"PlayerAttach":     0xe463efd924e0d059,
	"AttachReply":      0x2276a38cad29a30e, // grew the datagram grant; the seed is now a granted attach
	"ProbeReply":       0x8328307b4eb676e,
	"StandbyHello":     0x830108b9fdc5de4a,
	"Resume":           0x9d240e3a17fc1c73,
	"ResumeReply":      0x74c936d70c9f3079,
	"UpdateBatch":      0x8d58c3a1362edbfb,
	"CellBatch":        0x526764e878d9c130,
	"InterestUpdate":   0xaa2472b29902e5ad,
	"QoEReport":        0x74df69014a459f,
	"CandidateUpdate":  0x6ff4636ce23c3b5,
	"ActionMsg":        0x797cbfa2ea536e7c,
	"Heartbeat":        0x4d25657f9dcdf712,
	"HeartbeatAck":     0xf34c32596ebc3a79,
	"RateChange":       0xaf63bf4c8601bb45,
}

// TestNetworkSeedBytesPinned holds the wire bytes still: a refactor of an
// encoder or of the helpers they share must write every seed exactly as
// before.
func TestNetworkSeedBytesPinned(t *testing.T) {
	for _, d := range networkDecoders {
		want, pinned := pinnedSeedBytes[d.name]
		if !pinned {
			t.Errorf("%s: no pinned hash", d.name)
			continue
		}
		h := fnv.New64a()
		h.Write(encode(d.seed))
		if got := h.Sum64(); got != want {
			t.Errorf("%s: seed encodes to FNV-1a %#x, want %#x", d.name, got, want)
		}
	}
}

// FuzzHandshakeDecode throws arbitrary bytes at every decoder in the table:
// garbage must be refused with an error, never a panic, and whatever does
// decode must survive a re-encode — the bytes it marshals to decode again,
// to a value that marshals to the same bytes. Values are compared through
// their encoding because the coordinates may be NaN, which no == matches.
func FuzzHandshakeDecode(f *testing.F) {
	for i, d := range networkDecoders {
		valid := encode(d.seed)
		if _, err := d.decode(valid); err != nil {
			f.Fatalf("%s: seed does not decode: %v", d.name, err)
		}
		f.Add(uint8(i), valid)
		f.Add(uint8(i), valid[:len(valid)/2])
		f.Add(uint8(i), valid[:len(valid)-1]) // the last field one byte short
		f.Add(uint8(i), append(valid, 0))
	}
	f.Add(uint8(1), bytes.Repeat([]byte{0xFF}, 64))            // hostile entity count
	f.Add(uint8(5), []byte{1, 0, 0, 0xFF, 0xFF, 'x', 0, 0, 0}) // hostile grant Addr length
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		d := networkDecoders[int(which)%len(networkDecoders)]
		m, err := d.decode(data)
		if err != nil {
			return
		}
		enc := encode(m)
		again, err := d.decode(enc)
		if err != nil {
			t.Fatalf("%s: re-encoding of a decoded message does not decode: %v", d.name, err)
		}
		if !bytes.Equal(encode(again), enc) {
			t.Fatalf("%s: value changed across a re-encode", d.name)
		}
	})
}
