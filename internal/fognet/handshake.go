package fognet

import (
	"fmt"
	"net"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/transport"
)

// The handshake rule (DESIGN.md §8): every connection set-up, resumption
// and deadlined write in this package goes through this file, which owns
// the framing (header and payload leave in one Write) and the deadline
// (armed next to the I/O it guards, cleared once that I/O returned).

// writeWithin flushes buf to conn with a single Write that may take at
// most timeout, and leaves no deadline armed.
func writeWithin(conn net.Conn, timeout time.Duration, buf []byte) error {
	conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := conn.Write(buf)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// sendMsg frames one message and writes it within timeout. The frame is a
// fresh slice, not a pooled one: a 20k-entity welcome is a megabyte, and
// the protocol pool exists to recycle 4 KiB scratch buffers.
func sendMsg(conn net.Conn, timeout time.Duration, typ protocol.MsgType, payload []byte) error {
	buf, err := protocol.AppendFrame(make([]byte, 0, protocol.HeaderLen+len(payload)), typ, payload)
	if err != nil {
		return err
	}
	return writeWithin(conn, timeout, buf)
}

// sendInto is sendMsg for a loop that owns a scratch buffer: m is framed
// into *buf, which is reused from call to call so that a steady stream
// allocates nothing, and written within timeout.
func sendInto(conn net.Conn, timeout time.Duration, buf *[]byte, typ protocol.MsgType, m protocol.Appender) error {
	var err error
	if *buf, err = protocol.AppendMessage((*buf)[:0], typ, m); err != nil {
		return err
	}
	return writeWithin(conn, timeout, *buf)
}

// exchange is the asking side of a handshake step: under one deadline it
// sends typ/payload, reads exactly one frame through the connection's
// frame reader and requires it to be a want. The returned payload aliases
// the reader's buffer (valid until its next read).
func exchange(conn net.Conn, fr *protocol.FrameReader, timeout time.Duration,
	typ protocol.MsgType, payload []byte, want protocol.MsgType) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	if err := sendMsg(conn, timeout, typ, payload); err != nil {
		return nil, fmt.Errorf("send %v: %w", typ, err)
	}
	conn.SetReadDeadline(deadline)
	got, reply, err := fr.Next()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, fmt.Errorf("await %v: %w", want, err)
	}
	if got != want {
		return nil, fmt.Errorf("got %v, want %v", got, want)
	}
	return reply, nil
}

// admissionReply encodes the cloud's answer to an admitted peer. A resume
// (req != nil) gets MsgResumeReply with the §12 discard rule applied; a
// first contact gets the older message of its kind — MsgSupernodeWelcome
// when a snapshot rides along, MsgJoinReply otherwise — which carries a
// subset of the same epoch- and tick-stamped fields.
//
//cfg:epochcheck
func admissionReply(req *protocol.Resume, r protocol.ResumeReply) (protocol.MsgType, []byte) {
	switch {
	case req != nil:
		// The peer saw ticks of a dead epoch that the restored history never
		// committed: whatever it derived from them is authoritatively gone.
		r.Discard = req.Epoch != r.Epoch && req.Tick > r.Tick
		return protocol.MsgResumeReply, r.Marshal()
	case r.HasSnapshot:
		return protocol.MsgSupernodeWelcome, protocol.SupernodeWelcome{SupernodeID: r.SupernodeID,
			Epoch: r.Epoch, StandbyAddr: r.StandbyAddr, Snapshot: r.Snapshot}.Marshal()
	default:
		return protocol.MsgJoinReply, protocol.JoinReply{OK: true, Epoch: r.Epoch, Tick: r.Tick,
			Candidates: r.Candidates, CloudStreamAddr: r.CloudStreamAddr, StandbyAddr: r.StandbyAddr}.Marshal()
	}
}

// failoverLadder is the order a peer that lost its cloud link redials in:
// the authority it was following, then the advertised standby.
func failoverLadder(authority, standby string) []string {
	if standby == "" || standby == authority {
		return []string{authority}
	}
	return []string{authority, standby}
}

// dialAdmission is the asking side of admissionReply: dial addr, send the
// hello, join or resume in typ/payload, and hand back the connection, its
// frame reader and the answer — as a ResumeReply whichever message it
// was: a welcome or join reply is a resume reply with nothing to discard.
// A refused or undecodable answer closes the connection.
func dialAdmission(tp transport.TCP, addr string, typ protocol.MsgType, payload []byte,
	want protocol.MsgType) (net.Conn, *protocol.FrameReader, protocol.ResumeReply, error) {
	var reply protocol.ResumeReply
	conn, err := tp.Dial(addr)
	if err != nil {
		return nil, nil, reply, fmt.Errorf("admission at %s: %w", addr, err)
	}
	fr := protocol.NewFrameReader(conn)
	body, err := exchange(conn, fr, tp.Config.HandshakeTimeout, typ, payload, want)
	switch {
	case err != nil:
	case want == protocol.MsgSupernodeWelcome:
		var w protocol.SupernodeWelcome
		w, err = protocol.UnmarshalSupernodeWelcome(body)
		reply = protocol.ResumeReply{OK: true, Epoch: w.Epoch, Tick: w.Snapshot.Tick, SupernodeID: w.SupernodeID,
			HasSnapshot: true, Snapshot: w.Snapshot, StandbyAddr: w.StandbyAddr}
	case want == protocol.MsgJoinReply:
		var j protocol.JoinReply
		j, err = protocol.UnmarshalJoinReply(body)
		reply = protocol.ResumeReply{OK: j.OK, Epoch: j.Epoch, Tick: j.Tick, Candidates: j.Candidates,
			CloudStreamAddr: j.CloudStreamAddr, StandbyAddr: j.StandbyAddr, Reason: j.Reason}
	default:
		reply, err = protocol.UnmarshalResumeReply(body)
	}
	if err == nil && !reply.OK {
		err = fmt.Errorf("refused: %s", reply.Reason)
	}
	if err != nil {
		conn.Close()
		return nil, nil, reply, fmt.Errorf("admission at %s: %w", addr, err)
	}
	return conn, fr, reply, nil
}
