package fognet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/virtualworld"
)

// deadlineConn remembers the deadlines last set on a connection.
type deadlineConn struct {
	net.Conn
	read, write time.Time
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.read, c.write = t, t
	return c.Conn.SetDeadline(t)
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.read = t
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.write = t
	return c.Conn.SetWriteDeadline(t)
}

// TestHandshakeWireParity pins the send path to the wire format raw
// protocol peers (the benchmark's probes and sink) speak: for every
// handshake reply, the bytes on the pipe equal what the two-write
// protocol.WriteMessage produces, they arrive as one Write, and no
// deadline stays armed.
func TestHandshakeWireParity(t *testing.T) {
	snap := virtualworld.Snapshot{Tick: 9, Width: 400, Height: 300,
		Entities: []virtualworld.Entity{{ID: 1, Kind: virtualworld.KindNPC, Owner: -1, X: 5, Y: 6, HP: 100, Version: 1}}}
	cands := []protocol.CandidateInfo{{Addr: "127.0.0.1:7000", Load: 1, Capacity: 4, MeasuredRTTMs: -1, Score: 0.5}}
	admitted := protocol.ResumeReply{OK: true, Epoch: 3, Tick: 9, SupernodeID: 7, HasSnapshot: true,
		Snapshot: snap, CloudStreamAddr: "127.0.0.1:7301", StandbyAddr: "127.0.0.1:7302"}
	joined := protocol.ResumeReply{OK: true, Epoch: 3, Tick: 9, Candidates: cands,
		CloudStreamAddr: "127.0.0.1:7301", StandbyAddr: "127.0.0.1:7302"}
	ahead := &protocol.Resume{Kind: protocol.ResumePlayer, PlayerID: 5, Epoch: 2, Tick: 40}
	resumed := joined
	resumed.Discard = true // epoch 2 tick 40 ran ahead of epoch 3 tick 9

	welcomeTyp, welcome := admissionReply(nil, admitted)
	joinTyp, join := admissionReply(nil, joined)
	resumeTyp, resume := admissionReply(ahead, joined)
	cases := []struct {
		name    string
		typ     protocol.MsgType
		payload []byte
		wantTyp protocol.MsgType
		want    []byte
	}{
		{"welcome", welcomeTyp, welcome, protocol.MsgSupernodeWelcome, protocol.SupernodeWelcome{
			SupernodeID: 7, Epoch: 3, StandbyAddr: "127.0.0.1:7302", Snapshot: snap}.Marshal()},
		{"join reply", joinTyp, join, protocol.MsgJoinReply, protocol.JoinReply{OK: true, Epoch: 3, Tick: 9,
			Candidates: cands, CloudStreamAddr: "127.0.0.1:7301", StandbyAddr: "127.0.0.1:7302"}.Marshal()},
		{"resume reply", resumeTyp, resume, protocol.MsgResumeReply, resumed.Marshal()},
		{"probe reply", protocol.MsgProbeReply, protocol.ProbeReply{Available: 3}.Marshal(),
			protocol.MsgProbeReply, protocol.ProbeReply{Available: 3}.Marshal()},
		{"attach reply", protocol.MsgAttachReply, protocol.AttachReply{Reason: "at capacity"}.Marshal(),
			protocol.MsgAttachReply, protocol.AttachReply{Reason: "at capacity"}.Marshal()},
		{"bye", protocol.MsgBye, nil, protocol.MsgBye, nil},
	}
	for _, tc := range cases {
		var legacy bytes.Buffer
		if err := protocol.WriteMessage(&legacy, tc.wantTyp, tc.want); err != nil {
			t.Fatal(err)
		}
		a, b := net.Pipe()
		conn := &deadlineConn{Conn: a}
		sent := make(chan error, 1)
		go func() { sent <- sendMsg(conn, time.Second, tc.typ, tc.payload) }()
		// A pipe Read returns what one Write offered, up to the buffer: a
		// single Read that yields the whole frame means a single Write.
		got := make([]byte, legacy.Len()+1)
		n, err := b.Read(got)
		if err != nil {
			t.Fatalf("%s: read: %v", tc.name, err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("%s: sendMsg: %v", tc.name, err)
		}
		if !bytes.Equal(got[:n], legacy.Bytes()) {
			t.Errorf("%s: wire bytes differ from protocol.WriteMessage (%d vs %d bytes)", tc.name, n, legacy.Len())
		}
		if !conn.read.IsZero() || !conn.write.IsZero() {
			t.Errorf("%s: deadline left armed: read %v write %v", tc.name, conn.read, conn.write)
		}
		a.Close()
		b.Close()
	}
}

// TestExchangeWithTwoWritePeer runs the asking side against a peer that
// frames the way the benchmark's raw sessions do — header and payload as
// separate Writes — and checks that it reads the reply whole, rejects a
// reply of the wrong type, and leaves no deadline armed.
func TestExchangeWithTwoWritePeer(t *testing.T) {
	for _, replyTyp := range []protocol.MsgType{protocol.MsgProbeReply, protocol.MsgAttachReply} {
		a, b := net.Pipe()
		go func() {
			defer b.Close()
			if typ, _, err := protocol.ReadMessage(b); err != nil || typ != protocol.MsgProbe {
				return
			}
			protocol.WriteMessage(b, replyTyp, protocol.ProbeReply{Available: 9}.Marshal())
		}()
		conn := &deadlineConn{Conn: a}
		body, err := exchange(conn, protocol.NewFrameReader(conn), time.Second,
			protocol.MsgProbe, nil, protocol.MsgProbeReply)
		if replyTyp != protocol.MsgProbeReply {
			if err == nil {
				t.Errorf("a %v was accepted where a probe reply was required", replyTyp)
			}
		} else if reply, derr := protocol.UnmarshalProbeReply(body); err != nil || derr != nil || reply.Available != 9 {
			t.Errorf("exchange = %+v, %v, %v; want 9 free slots", reply, err, derr)
		} else if !conn.read.IsZero() || !conn.write.IsZero() {
			t.Errorf("deadline left armed: read %v write %v", conn.read, conn.write)
		}
		a.Close()
	}
}

// TestProbeLoopKeepsOneHandshakeDeadline is the regression test for a
// connection that probes forever and never attaches: the handshake
// deadline runs from the accept, so probes spaced inside it stop being
// answered once it has passed, and the fog closes the connection.
func TestProbeLoopKeepsOneHandshakeDeadline(t *testing.T) {
	const handshake = 400 * time.Millisecond
	cloud := startCloud(t)
	fog, err := NewFogNode(FogConfig{Name: "fog-1", CloudAddr: cloud.Addr(), Capacity: 2, DialTimeout: handshake})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fog.Close() })

	conn, err := net.DialTimeout("tcp", fog.StreamAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fr := protocol.NewFrameReader(conn)
	answered := 0
	for ; answered < 3; answered++ {
		if _, err := exchange(conn, fr, 2*time.Second, protocol.MsgProbe, nil, protocol.MsgProbeReply); err != nil {
			break // closed by the fog
		}
		time.Sleep(handshake * 5 / 8) // the third probe leaves after the deadline
	}
	if answered == 0 {
		t.Fatal("first probe not answered")
	}
	if answered == 3 {
		t.Fatalf("three probes over %v all answered: the %v handshake deadline was re-armed", time.Since(start), handshake)
	}
	if got := fog.Stats().Probes; got != int64(answered) {
		t.Errorf("Probes = %d, want %d", got, answered)
	}
}
