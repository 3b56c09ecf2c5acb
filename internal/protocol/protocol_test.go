package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cloudfog/internal/virtualworld"
)

func TestFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteMessage(&buf, MsgAction, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgAction || !bytes.Equal(got, payload) {
		t.Errorf("read %v %v", typ, got)
	}
}

func TestFramingEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadMessage(&buf)
	if err != nil || typ != MsgBye || len(got) != 0 {
		t.Errorf("empty round trip: %v %v %v", typ, got, err)
	}
}

func TestFramingMultipleMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteMessage(&buf, MsgProbe, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		_, got, err := ReadMessage(&buf)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("message %d: %v %v", i, got, err)
		}
	}
	if _, _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("post-stream read err = %v", err)
	}
}

func TestFramingRejectsOversize(t *testing.T) {
	if err := WriteMessage(io.Discard, MsgAction, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize write err = %v", err)
	}
	// A hostile length prefix must be rejected without allocating.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgAction)}
	if _, _, err := ReadMessage(bytes.NewReader(hostile)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("hostile length err = %v", err)
	}
}

func TestFramingTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	WriteMessage(&buf, MsgAction, []byte{1, 2, 3})
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, _, err := ReadMessage(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

// TestMsgTypeString: every Msg* constant protocol.go declares has a
// non-empty name of its own, and nothing else does.
func TestMsgTypeString(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(file, func(n ast.Node) bool {
		if spec, ok := n.(*ast.ValueSpec); ok {
			for _, name := range spec.Names {
				if strings.HasPrefix(name.Name, "Msg") {
					declared++
				}
			}
		}
		return true
	})
	if declared == 0 {
		t.Fatal("found no Msg* constants in protocol.go; the scan is broken")
	}
	seen := make(map[string]MsgType)
	for typ := MsgType(1); int(typ) <= declared; typ++ {
		name := typ.String()
		if name == "" || name == "unknown" {
			t.Errorf("type %d unnamed", typ)
		} else if prev, dup := seen[name]; dup {
			t.Errorf("types %d and %d are both %q", prev, typ, name)
		}
		seen[name] = typ
	}
	for _, typ := range []MsgType{0, MsgType(declared + 1), 200} {
		if typ.String() != "unknown" {
			t.Errorf("undeclared type %d is named %q", typ, typ)
		}
	}
}

func TestSupernodeHelloRoundTrip(t *testing.T) {
	m := SupernodeHello{Name: "fog-3", Capacity: 17, StreamAddr: "127.0.0.1:9000"}
	got, err := UnmarshalSupernodeHello(m.Marshal())
	if err != nil || got != m {
		t.Errorf("round trip: %+v, %v", got, err)
	}
}

func TestSupernodeWelcomeRoundTrip(t *testing.T) {
	w := virtualworld.New(300, 300)
	w.SpawnAvatar(1, 10, 20)
	w.SpawnNPC(100, 150)
	w.SpawnItem(200, 250)
	m := SupernodeWelcome{SupernodeID: 42, Snapshot: w.Snapshot()}
	got, err := UnmarshalSupernodeWelcome(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.SupernodeID != 42 || !got.Snapshot.Equal(m.Snapshot) ||
		got.Snapshot.Width != 300 || got.Snapshot.Tick != m.Snapshot.Tick {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestPlayerJoinRoundTrip(t *testing.T) {
	m := PlayerJoin{PlayerID: -7, GameID: 3, SpawnX: 12.5, SpawnY: 700.25}
	got, err := UnmarshalPlayerJoin(m.Marshal())
	if err != nil || got != m {
		t.Errorf("round trip: %+v, %v", got, err)
	}
}

func TestJoinReplyRoundTrip(t *testing.T) {
	m := JoinReply{OK: true, Candidates: []CandidateInfo{
		{Addr: "a:1", Load: 2, Capacity: 4, MeasuredRTTMs: -1, Score: 0.9},
		{Addr: "b:2", Load: 0, Capacity: 8, MeasuredRTTMs: 12.5, Score: 0.5},
		{Addr: "c:3"},
	}}
	got, err := UnmarshalJoinReply(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || len(got.Candidates) != 3 || got.Candidates[1] != m.Candidates[1] ||
		got.Candidates[0].Score != 0.9 || got.Candidates[0].MeasuredRTTMs != -1 {
		t.Errorf("round trip: %+v", got)
	}
	deny := JoinReply{OK: false, Reason: "full"}
	got, err = UnmarshalJoinReply(deny.Marshal())
	if err != nil || got.OK || got.Reason != "full" {
		t.Errorf("deny round trip: %+v, %v", got, err)
	}
}

func TestActionRoundTripProperty(t *testing.T) {
	f := func(player int32, kind uint8, tx, ty float64, target uint32, tag uint8) bool {
		m := ActionMsg{Action: virtualworld.Action{
			Player:       int(player),
			Kind:         virtualworld.ActionKind(kind),
			TargetX:      tx,
			TargetY:      ty,
			TargetEntity: virtualworld.EntityID(target),
			StateTag:     tag,
		}}
		got, err := UnmarshalActionMsg(m.AppendTo(nil))
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUpdateBatchRoundTrip(t *testing.T) {
	m := UpdateBatch{
		Tick: 99,
		Deltas: []virtualworld.Delta{
			{ID: 1, Entity: virtualworld.Entity{
				ID: 1, Kind: virtualworld.KindAvatar, Owner: 5,
				X: 1.5, Y: 2.5, Facing: 0.7, HP: 88, State: 2, Version: 31,
			}},
			{ID: 9, Removed: true},
			{ID: 2, Entity: virtualworld.Entity{
				ID: 2, Kind: virtualworld.KindItem, Owner: -1, X: 3, Y: 4, Version: 1,
			}},
		},
	}
	var got UpdateBatch
	if err := DecodeUpdateBatch(m.AppendTo(nil), &got); err != nil {
		t.Fatal(err)
	}
	if got.Tick != 99 || len(got.Deltas) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range m.Deltas {
		if got.Deltas[i] != m.Deltas[i] {
			t.Errorf("delta %d: %+v vs %+v", i, got.Deltas[i], m.Deltas[i])
		}
	}
}

func TestUpdateBatchEmpty(t *testing.T) {
	m := UpdateBatch{Tick: 3}
	var got UpdateBatch
	err := DecodeUpdateBatch(m.AppendTo(nil), &got)
	if err != nil || got.Tick != 3 || len(got.Deltas) != 0 {
		t.Errorf("empty batch: %+v, %v", got, err)
	}
}

func TestPlayerAttachAndReplyRoundTrip(t *testing.T) {
	a := PlayerAttach{PlayerID: 12, QualityLevel: 4}
	gotA, err := UnmarshalPlayerAttach(a.Marshal())
	if err != nil || gotA != a {
		t.Errorf("attach: %+v, %v", gotA, err)
	}
	r := AttachReply{OK: false, Reason: "at capacity"}
	gotR, err := UnmarshalAttachReply(r.Marshal())
	if err != nil || gotR != r {
		t.Errorf("reply: %+v, %v", gotR, err)
	}
}

func TestRateChangeRoundTrip(t *testing.T) {
	m := RateChange{QualityLevel: 2}
	got, err := UnmarshalRateChange(m.AppendTo(nil))
	if err != nil || got != m {
		t.Errorf("round trip: %+v, %v", got, err)
	}
}

func TestProbeReplyRoundTrip(t *testing.T) {
	m := ProbeReply{Available: 9}
	got, err := UnmarshalProbeReply(m.Marshal())
	if err != nil || got != m {
		t.Errorf("round trip: %+v, %v", got, err)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	m := Heartbeat{Seq: 77}
	got, err := UnmarshalHeartbeat(m.AppendTo(nil))
	if err != nil || got != m {
		t.Errorf("round trip: %+v, %v", got, err)
	}
	a := HeartbeatAck{Seq: 77, ReplicaTick: 123456, Attached: 6}
	gotA, err := UnmarshalHeartbeatAck(a.AppendTo(nil))
	if err != nil || gotA != a {
		t.Errorf("ack round trip: %+v, %v", gotA, err)
	}
}

func TestCandidateUpdateRoundTrip(t *testing.T) {
	m := CandidateUpdate{
		Candidates: []CandidateInfo{
			{Addr: "10.0.0.1:7100", Load: 3, Capacity: 4, MeasuredRTTMs: -1, Score: 0.8},
			{Addr: "10.0.0.2:7100", Capacity: 2, MeasuredRTTMs: -1, Score: 0.5},
		},
		CloudStreamAddr: "10.0.0.9:7000",
	}
	got, err := UnmarshalCandidateUpdate(m.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Candidates) != 2 || got.Candidates[1] != m.Candidates[1] ||
		got.CloudStreamAddr != m.CloudStreamAddr {
		t.Errorf("round trip: %+v", got)
	}
	// An empty ladder (all supernodes gone) still round-trips.
	empty := CandidateUpdate{CloudStreamAddr: "c:1"}
	got, err = UnmarshalCandidateUpdate(empty.AppendTo(nil))
	if err != nil || len(got.Candidates) != 0 || got.CloudStreamAddr != "c:1" {
		t.Errorf("empty round trip: %+v, %v", got, err)
	}
}

func TestQoEReportRoundTrip(t *testing.T) {
	for _, m := range []QoEReport{
		{PlayerID: 7, Addr: "10.0.0.1:7100", Rating: 1},
		{PlayerID: -2, Addr: "f:1", Rating: 0, Stalled: true},
		{PlayerID: 9, Addr: "f:2", Rating: 0.25, Stalled: true, Fallback: true},
	} {
		got, err := UnmarshalQoEReport(m.AppendTo(nil))
		if err != nil || got != m {
			t.Errorf("round trip: %+v -> %+v, %v", m, got, err)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSupernodeHello([]byte{0xFF}); err == nil {
		t.Error("garbage hello accepted")
	}
	if _, err := UnmarshalPlayerJoin([]byte{1, 2}); err == nil {
		t.Error("short join accepted")
	}
	if err := DecodeUpdateBatch([]byte{0}, new(UpdateBatch)); err == nil {
		t.Error("short batch accepted")
	}
	if _, err := UnmarshalActionMsg(nil); err == nil {
		t.Error("empty action accepted")
	}
	// Trailing bytes are an error, not silently ignored.
	m := RateChange{QualityLevel: 1}
	if _, err := UnmarshalRateChange(append(m.AppendTo(nil), 0xEE)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A batch claiming absurdly many deltas must fail fast. The count is
	// the last field of an empty batch's encoding.
	empty := UpdateBatch{Tick: 1}.AppendTo(nil)
	huge := binary.AppendUvarint(empty[:len(empty)-1], math.MaxUint32)
	if err := DecodeUpdateBatch(huge, new(UpdateBatch)); err == nil {
		t.Error("hostile delta count accepted")
	}
}

func TestEntityWireBytesAccurate(t *testing.T) {
	w := &writer{}
	putEntity(w, virtualworld.Entity{})
	if len(w.buf) != EntityWireBytes {
		t.Errorf("EntityWireBytes = %d, actual %d", EntityWireBytes, len(w.buf))
	}
}
