package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
)

// joinTimeout bounds a whole join, handshakes to first decoded frame; a
// slower join counts as failed.
const joinTimeout = 2 * time.Second

// session is a benchmark-owned thin client, written against
// internal/protocol and internal/videocodec the way fognet.PlayerClient
// is: a control connection to the cloud that carries the join and the
// inputs, and a video connection to the supernode that accepted the
// attach. It exists so that timing can be taken at connections the
// benchmark owns; the load itself comes from real PlayerClients.
type session struct {
	id    int32
	cloud net.Conn
	video net.Conn
	fr    *protocol.FrameReader
	dec   videocodec.Decoder
	ef    videocodec.EncodedFrame
	frame render.Frame
}

// joinSample times one join from the outside.
type joinSample struct {
	Start     time.Time // before the cloud dial
	Joined    time.Time // JoinReply decoded
	Attached  time.Time // AttachReply decoded
	FrameRead time.Time // first video frame's bytes read
	Decoded   time.Time // first video frame decoded
}

// openSession joins the cloud, ranks the ladder it returns with the shared
// §3.2 ranker, and probes + attaches to the first supernode that accepts.
func openSession(cloudAddr string, id int32, level game.QualityLevel, x, y float64, rank *rng.Rand) (*session, joinSample, error) {
	var js joinSample
	js.Start = time.Now()
	deadline := js.Start.Add(joinTimeout)
	tp := transport.TCP{}
	cloud, err := tp.Dial(cloudAddr)
	if err != nil {
		return nil, js, fmt.Errorf("session %d dial cloud: %w", id, err)
	}
	cloud.SetDeadline(deadline)
	join := protocol.PlayerJoin{PlayerID: id, GameID: uint8(level), SpawnX: x, SpawnY: y}
	if err := protocol.WriteMessage(cloud, protocol.MsgPlayerJoin, join.Marshal()); err != nil {
		cloud.Close()
		return nil, js, fmt.Errorf("session %d join: %w", id, err)
	}
	typ, payload, err := protocol.ReadMessage(cloud)
	if err != nil || typ != protocol.MsgJoinReply {
		cloud.Close()
		return nil, js, fmt.Errorf("session %d join reply: %v %w", id, typ, err)
	}
	reply, err := protocol.UnmarshalJoinReply(payload)
	if err != nil || !reply.OK {
		cloud.Close()
		return nil, js, fmt.Errorf("session %d join rejected: %s %w", id, reply.Reason, err)
	}
	cloud.SetDeadline(time.Time{})
	js.Joined = time.Now()

	cands := make([]selection.Candidate, len(reply.Candidates))
	for i, c := range reply.Candidates {
		cands[i] = selection.Candidate{ID: i, Addr: c.Addr, Load: int(c.Load),
			Capacity: int(c.Capacity), RTTMs: c.MeasuredRTTMs, Score: c.Score}
	}
	selection.PolicyRanker{Policy: selection.PolicyReputation}.Rank(cands, 0, rank)
	for _, c := range cands {
		if c.Addr == "" {
			continue // the benchmark's sink supernode streams no video
		}
		video, aerr := attach(tp, c.Addr, id, level, deadline)
		if aerr != nil {
			err = aerr
			continue
		}
		js.Attached = time.Now()
		return &session{id: id, cloud: cloud, video: video, fr: protocol.NewFrameReader(video)}, js, nil
	}
	cloud.Close()
	if err == nil {
		err = errors.New("empty ladder")
	}
	return nil, js, fmt.Errorf("session %d: no supernode accepted: %w", id, err)
}

// attach runs the capacity probe and the attach handshake on one
// candidate.
func attach(tp transport.TCP, addr string, id int32, level game.QualityLevel, deadline time.Time) (net.Conn, error) {
	conn, err := tp.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(deadline)
	if err := protocol.WriteMessage(conn, protocol.MsgProbe, nil); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := protocol.ReadMessage(conn)
	if err != nil || typ != protocol.MsgProbeReply {
		conn.Close()
		return nil, fmt.Errorf("probe reply: %v %w", typ, err)
	}
	if pr, perr := protocol.UnmarshalProbeReply(payload); perr != nil || pr.Available <= 0 {
		conn.Close()
		return nil, fmt.Errorf("supernode %s full: %w", addr, perr)
	}
	at := protocol.PlayerAttach{PlayerID: id, QualityLevel: uint8(level)}
	if err := protocol.WriteMessage(conn, protocol.MsgPlayerAttach, at.Marshal()); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err = protocol.ReadMessage(conn)
	if err != nil || typ != protocol.MsgAttachReply {
		conn.Close()
		return nil, fmt.Errorf("attach reply: %v %w", typ, err)
	}
	if ack, aerr := protocol.UnmarshalAttachReply(payload); aerr != nil || !ack.OK {
		conn.Close()
		return nil, fmt.Errorf("attach refused: %s %w", ack.Reason, aerr)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// videoFrame is one received video frame as the session saw it.
type videoFrame struct {
	Read    time.Time // frame bytes fully read
	Decoded time.Time
	Tick    uint64
	Bytes   int
}

var errDecode = errors.New("frame failed to decode")

// nextFrame blocks for the next video frame and decodes it. A frame that
// arrives but does not decode returns errDecode (wrapped); any other error
// means the stream is gone or the deadline passed.
func (s *session) nextFrame(deadline time.Time) (videoFrame, error) {
	s.video.SetReadDeadline(deadline)
	for {
		typ, payload, err := s.fr.Next()
		if err != nil {
			return videoFrame{}, err
		}
		if typ != protocol.MsgVideoFrame {
			continue
		}
		obs := videoFrame{Read: time.Now(), Bytes: len(payload)}
		if err := videocodec.UnmarshalFrameInto(payload, &s.ef); err != nil {
			return obs, fmt.Errorf("%w: %v", errDecode, err)
		}
		if err := s.dec.DecodeInto(&s.ef, &s.frame); err != nil {
			return obs, fmt.Errorf("%w: %v", errDecode, err)
		}
		obs.Decoded = time.Now()
		obs.Tick = s.ef.Tick
		return obs, nil
	}
}

// bye leaves gracefully on both connections, then closes them.
func (s *session) bye() {
	wd := time.Now().Add(transport.DefaultWriteTimeout)
	s.cloud.SetWriteDeadline(wd)
	_ = protocol.WriteMessage(s.cloud, protocol.MsgBye, nil) // best effort: the close below ends the session regardless
	s.video.SetWriteDeadline(wd)
	_ = protocol.WriteMessage(s.video, protocol.MsgBye, nil)
	s.video.Close()
	s.cloud.Close()
}
