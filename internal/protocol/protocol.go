// Package protocol defines the wire protocol of the CloudFog prototype:
// the messages exchanged between the cloud (authoritative game state), the
// fog (supernodes rendering and streaming video), and players (thin
// clients), exactly the three-tier interaction of Fig. 1 of the paper:
//
//	player -> cloud      user input (world actions)
//	player -> supernode  packets of view-dependent work, rate changes
//	cloud  -> supernode  world update stream (the Λ bandwidth)
//	supernode -> player  encoded game video
//
// Messages are length-prefixed binary frames:
//
//	uint32 payload length | uint8 message type | payload
//
// Encoding is hand-rolled binary (stdlib only, no reflection on the hot
// paths): fixed-width big-endian everywhere except the per-tick update
// batches, whose header and records use varints (delta.go). Every message
// type has one encoder — AppendTo for the messages an admitted connection
// carries, Marshal for the handshakes — one decoder and a round-trip test.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cloudfog/internal/virtualworld"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	// MsgSupernodeHello registers a supernode with the cloud.
	MsgSupernodeHello MsgType = iota + 1
	// MsgSupernodeWelcome acknowledges registration with a world seed.
	MsgSupernodeWelcome
	// MsgPlayerJoin asks the cloud to admit a player.
	MsgPlayerJoin
	// MsgJoinReply returns the ranked candidate ladder the player probes,
	// with the cloud's own stream endpoint as its last rung.
	MsgJoinReply
	// MsgAction carries a player input to the cloud.
	MsgAction
	// MsgUpdateBatch carries one tick's world deltas to a supernode.
	MsgUpdateBatch
	// MsgPlayerAttach attaches a player session to a supernode.
	MsgPlayerAttach
	// MsgAttachReply acknowledges the attach, granting the datagram video
	// path when the supernode has one.
	MsgAttachReply
	// MsgVideoFrame carries one encoded video frame to a player.
	MsgVideoFrame
	// MsgRateChange asks the supernode for a different quality level —
	// the receiver-driven adaptation signal of §3.3.
	MsgRateChange
	// MsgProbe asks a supernode whether it has available capacity.
	MsgProbe
	// MsgProbeReply answers a capacity probe.
	MsgProbeReply
	// MsgBye ends a session gracefully.
	MsgBye
	// MsgHeartbeat is the cloud's liveness ping to a supernode. Supernodes
	// are contributed desktops (§3.2.2): the cloud must detect the ones
	// that silently vanish and evict them.
	MsgHeartbeat
	// MsgHeartbeatAck answers a heartbeat with the supernode's replica
	// progress, doubling as a cheap health report.
	MsgHeartbeatAck
	// MsgCandidateUpdate pushes a refreshed failover ladder to a player
	// when the supernode set changes (registration, eviction, departure)
	// or the ranking shifts, so migrations never target stale addresses.
	MsgCandidateUpdate
	// MsgQoEReport carries a player's rating of a supernode to the cloud —
	// the feedback that drives the live reputation book behind the ranked
	// candidate ladder (§3.2's rating step, reported upward instead of
	// kept private because the cloud builds the ladder).
	MsgQoEReport
	// MsgStandbyHello registers a warm standby with the primary cloud; the
	// primary answers with a full checkpoint and then streams the per-tick
	// delta log (DESIGN.md §12).
	MsgStandbyHello
	// MsgCheckpoint carries one encoded internal/checkpoint State to the
	// standby. The payload is opaque to this package — the checkpoint
	// format is versioned independently of the wire protocol.
	MsgCheckpoint
	// MsgLogEntry carries one encoded per-tick delta-log entry to the
	// standby (opaque payload, like MsgCheckpoint). Sent every tick even
	// when empty: the stream doubles as the primary's liveness signal.
	MsgLogEntry
	// MsgResume asks a (possibly just-promoted) cloud to continue an
	// existing supernode or player session after the primary was lost,
	// instead of a full rejoin.
	MsgResume
	// MsgResumeReply answers a resume with the authoritative epoch/tick
	// and whatever the resuming peer needs to reconverge.
	MsgResumeReply
	// MsgInterestUpdate names a supernode's attached players to the cloud,
	// which then narrows that supernode's update stream to the grid cells
	// around their avatars. A supernode that never sends one stays on the
	// full-world stream (DESIGN.md §14).
	MsgInterestUpdate
	// MsgCellBatch carries one tick's deltas for one grid cell to a
	// subscribed supernode — the AoI-filtered replacement for
	// MsgUpdateBatch. A keyframe cell batch carries the cell's complete
	// entity population (sent when a supernode gains the cell); the
	// CellNone sentinel carries position-less deltas (removals, session
	// events) broadcast to every subscriber.
	MsgCellBatch
)

// msgTypeNames is indexed by MsgType; slot 0 is no message.
var msgTypeNames = [...]string{
	MsgSupernodeHello:   "supernode-hello",
	MsgSupernodeWelcome: "supernode-welcome",
	MsgPlayerJoin:       "player-join",
	MsgJoinReply:        "join-reply",
	MsgAction:           "action",
	MsgUpdateBatch:      "update-batch",
	MsgPlayerAttach:     "player-attach",
	MsgAttachReply:      "attach-reply",
	MsgVideoFrame:       "video-frame",
	MsgRateChange:       "rate-change",
	MsgProbe:            "probe",
	MsgProbeReply:       "probe-reply",
	MsgBye:              "bye",
	MsgHeartbeat:        "heartbeat",
	MsgHeartbeatAck:     "heartbeat-ack",
	MsgCandidateUpdate:  "candidate-update",
	MsgQoEReport:        "qoe-report",
	MsgStandbyHello:     "standby-hello",
	MsgCheckpoint:       "checkpoint",
	MsgLogEntry:         "log-entry",
	MsgResume:           "resume",
	MsgResumeReply:      "resume-reply",
	MsgInterestUpdate:   "interest-update",
	MsgCellBatch:        "cell-batch",
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return "unknown"
}

// Protocol limits.
const (
	// MaxPayload bounds a single message (16 MiB), protecting receivers
	// from hostile length prefixes.
	MaxPayload = 16 << 20
	headerLen  = 5
)

// Errors.
var (
	ErrTooLarge  = errors.New("protocol: payload exceeds MaxPayload")
	ErrTruncated = errors.New("protocol: truncated payload")
	errVarint    = errors.New("protocol: varint overflows 64 bits")
)

// WriteMessage frames and writes one message. It costs two Write calls and
// a header allocation per message; the hot paths use AppendFrame /
// AppendMessage into a caller-owned buffer and flush once instead.
func WriteMessage(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("write payload: %w", err)
		}
	}
	return nil
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (MsgType, []byte, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxPayload {
		return 0, nil, ErrTooLarge
	}
	t := MsgType(hdr[4])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("read payload: %w", err)
	}
	return t, payload, nil
}

// --- binary helpers ---------------------------------------------------------

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// uvarint reads one unsigned varint no larger than max. An encoding longer
// than 64 bits or a value past max poisons the reader like a short read.
func (r *reader) uvarint(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.err = ErrTruncated
	case n < 0:
		r.err = errVarint
	case v > max:
		r.err = fmt.Errorf("protocol: varint %d exceeds its field's range %d", v, max)
	default:
		r.off += n
		return v
	}
	return 0
}

func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) str() string {
	n := int(r.u16())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}
func (r *reader) boolean() bool { return r.u8() == 1 }

func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("protocol: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// --- entity / delta encoding -------------------------------------------------

func putEntity(w *writer, e virtualworld.Entity) {
	w.u32(uint32(e.ID))
	w.u8(uint8(e.Kind))
	w.i32(int32(e.Owner))
	w.f64(e.X)
	w.f64(e.Y)
	w.f64(e.Facing)
	w.u16(uint16(e.HP))
	w.u8(e.State)
	w.u32(e.Version)
}

func getEntity(r *reader) virtualworld.Entity {
	return virtualworld.Entity{
		ID:      virtualworld.EntityID(r.u32()),
		Kind:    virtualworld.EntityKind(r.u8()),
		Owner:   int(r.i32()),
		X:       r.f64(),
		Y:       r.f64(),
		Facing:  r.f64(),
		HP:      int16(r.u16()),
		State:   r.u8(),
		Version: r.u32(),
	}
}

// EntityWireBytes is the encoded size of one snapshot entity (welcome and
// resume replies); update-batch records are variable-width, see delta.go.
const EntityWireBytes = 4 + 1 + 4 + 8 + 8 + 8 + 2 + 1 + 4

// putSnapshot writes a full world image — tick, size, entity count, the
// fixed-width entities — as the welcome and resume replies carry it.
func putSnapshot(w *writer, s virtualworld.Snapshot) {
	w.u64(s.Tick)
	w.f64(s.Width)
	w.f64(s.Height)
	w.u32(uint32(len(s.Entities)))
	for _, e := range s.Entities {
		putEntity(w, e)
	}
}

// getSnapshot reads what putSnapshot wrote; an entity count no payload can
// hold poisons the reader with ErrTooLarge.
func getSnapshot(r *reader) virtualworld.Snapshot {
	s := virtualworld.Snapshot{Tick: r.u64(), Width: r.f64(), Height: r.f64()}
	n := int(r.u32())
	if n > MaxPayload/EntityWireBytes {
		r.err = ErrTooLarge
	}
	for i := 0; i < n && r.err == nil; i++ {
		s.Entities = append(s.Entities, getEntity(r))
	}
	return s
}

// --- messages ---------------------------------------------------------------

// SupernodeHello registers a supernode.
type SupernodeHello struct {
	// Name is a human-readable supernode identifier.
	Name string
	// Capacity is the advertised max concurrent players.
	Capacity int
	// StreamAddr is where players should connect for video.
	StreamAddr string
}

// Marshal encodes the message.
func (m SupernodeHello) Marshal() []byte {
	w := &writer{}
	w.str(m.Name)
	w.u16(uint16(m.Capacity))
	w.str(m.StreamAddr)
	return w.buf
}

// UnmarshalSupernodeHello decodes the message.
func UnmarshalSupernodeHello(buf []byte) (SupernodeHello, error) {
	r := &reader{buf: buf}
	m := SupernodeHello{Name: r.str(), Capacity: int(r.u16())}
	m.StreamAddr = r.str()
	return m, r.finish()
}

// SupernodeWelcome seeds a newly-registered supernode's replica.
type SupernodeWelcome struct {
	// SupernodeID is the cloud-assigned identifier.
	SupernodeID uint32
	// Epoch is the cloud's authority epoch; the supernode presents it when
	// resuming after a failover.
	Epoch uint64
	// StandbyAddr is the warm standby's control endpoint ("" when none).
	StandbyAddr string
	// Snapshot is the full world state to seed from.
	Snapshot virtualworld.Snapshot
}

// Marshal encodes the message.
func (m SupernodeWelcome) Marshal() []byte {
	w := &writer{}
	w.u32(m.SupernodeID)
	w.u64(m.Epoch)
	w.str(m.StandbyAddr)
	putSnapshot(w, m.Snapshot)
	return w.buf
}

// UnmarshalSupernodeWelcome decodes the message.
func UnmarshalSupernodeWelcome(buf []byte) (SupernodeWelcome, error) {
	r := &reader{buf: buf}
	m := SupernodeWelcome{SupernodeID: r.u32(), Epoch: r.u64(), StandbyAddr: r.str(), Snapshot: getSnapshot(r)}
	return m, r.finish()
}

// PlayerJoin admits a player to the game.
type PlayerJoin struct {
	// PlayerID identifies the player.
	PlayerID int32
	// GameID selects the title (Table 2 catalog).
	GameID uint8
	// SpawnX, SpawnY is the requested spawn position.
	SpawnX, SpawnY float64
}

// Marshal encodes the message.
func (m PlayerJoin) Marshal() []byte {
	w := &writer{}
	w.i32(m.PlayerID)
	w.u8(m.GameID)
	w.f64(m.SpawnX)
	w.f64(m.SpawnY)
	return w.buf
}

// UnmarshalPlayerJoin decodes the message.
func UnmarshalPlayerJoin(buf []byte) (PlayerJoin, error) {
	r := &reader{buf: buf}
	m := PlayerJoin{PlayerID: r.i32(), GameID: r.u8(), SpawnX: r.f64(), SpawnY: r.f64()}
	return m, r.finish()
}

// CandidateInfo describes one candidate supernode on the wire: everything
// a player needs to run the §3.2 selection pipeline client-side instead of
// trusting list position.
type CandidateInfo struct {
	// Addr is the supernode's streaming address.
	Addr string
	// Load is the supernode's player count as of its last heartbeat ack.
	Load uint16
	// Capacity is the supernode's advertised max concurrent players.
	Capacity uint16
	// MeasuredRTTMs is the round trip to the candidate; negative when the
	// sender has no measurement (the cloud cannot ping on the player's
	// behalf — players fill this from their own probes).
	MeasuredRTTMs float64
	// Score is the candidate's reputation score in the sender's book.
	Score float64
}

// putCandidates writes a candidate list — count, then each candidate — as
// the join and resume replies and the candidate update carry it.
func putCandidates(w *writer, cs []CandidateInfo) {
	w.u16(uint16(len(cs)))
	for _, c := range cs {
		w.str(c.Addr)
		w.u16(c.Load)
		w.u16(c.Capacity)
		w.f64(c.MeasuredRTTMs)
		w.f64(c.Score)
	}
}

// getCandidates reads what putCandidates wrote.
func getCandidates(r *reader) []CandidateInfo {
	var cs []CandidateInfo
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		cs = append(cs, CandidateInfo{
			Addr:          r.str(),
			Load:          r.u16(),
			Capacity:      r.u16(),
			MeasuredRTTMs: r.f64(),
			Score:         r.f64(),
		})
	}
	return cs
}

// JoinReply tells the player where to stream from.
type JoinReply struct {
	// OK reports admission.
	OK bool
	// Epoch is the admitting cloud's authority epoch; the player presents
	// it when resuming after a failover (DESIGN.md §12).
	Epoch uint64
	// Tick is the world tick at admission.
	Tick uint64
	// Candidates are the candidate supernodes, ranked best first — the
	// cloud's candidate list of §3.2, with the load/capacity/score data
	// the player re-ranks by.
	Candidates []CandidateInfo
	// CloudStreamAddr is the cloud's own streaming endpoint, the fallback
	// for players that no supernode accepts ("normal nodes that cannot
	// find nearby supernodes directly connect to the cloud").
	CloudStreamAddr string
	// StandbyAddr is the warm standby's control endpoint, where sessions
	// resume if this cloud dies ("" when no standby is attached).
	StandbyAddr string
	// Reason explains a rejection.
	Reason string
}

// Marshal encodes the message.
func (m JoinReply) Marshal() []byte {
	w := &writer{}
	w.boolean(m.OK)
	w.u64(m.Epoch)
	w.u64(m.Tick)
	putCandidates(w, m.Candidates)
	w.str(m.CloudStreamAddr)
	w.str(m.StandbyAddr)
	w.str(m.Reason)
	return w.buf
}

// UnmarshalJoinReply decodes the message.
func UnmarshalJoinReply(buf []byte) (JoinReply, error) {
	r := &reader{buf: buf}
	m := JoinReply{OK: r.boolean(), Epoch: r.u64(), Tick: r.u64(), Candidates: getCandidates(r)}
	m.CloudStreamAddr = r.str()
	m.StandbyAddr = r.str()
	m.Reason = r.str()
	return m, r.finish()
}

// ActionMsg carries one player input.
type ActionMsg struct {
	// Action is the world action.
	Action virtualworld.Action
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m ActionMsg) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.i32(int32(m.Action.Player))
	w.u8(uint8(m.Action.Kind))
	w.f64(m.Action.TargetX)
	w.f64(m.Action.TargetY)
	w.u32(uint32(m.Action.TargetEntity))
	w.u8(m.Action.StateTag)
	return w.buf
}

// UnmarshalActionMsg decodes the message.
func UnmarshalActionMsg(buf []byte) (ActionMsg, error) {
	r := &reader{buf: buf}
	m := ActionMsg{Action: virtualworld.Action{
		Player:       int(r.i32()),
		Kind:         virtualworld.ActionKind(r.u8()),
		TargetX:      r.f64(),
		TargetY:      r.f64(),
		TargetEntity: virtualworld.EntityID(r.u32()),
		StateTag:     r.u8(),
	}}
	return m, r.finish()
}

// UpdateBatch carries one tick's deltas — the Λ update stream.
type UpdateBatch struct {
	// Epoch is the authority epoch of the sending cloud. A supernode that
	// sees the epoch advance knows a standby was promoted and its replica
	// may hold state the new authority never committed.
	Epoch uint64
	// Tick is the world tick the deltas belong to.
	Tick uint64
	// Deltas are the changed entities.
	Deltas []virtualworld.Delta
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m UpdateBatch) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.uvarint(m.Epoch)
	w.uvarint(m.Tick)
	appendDeltas(&w, m.Deltas)
	return w.buf
}

// DecodeUpdateBatch decodes into m, reusing m.Deltas' capacity — the
// allocation-free decode for the supernode's per-tick apply loop. On error
// m holds partially decoded data and must not be used.
func DecodeUpdateBatch(buf []byte, m *UpdateBatch) error {
	r := &reader{buf: buf}
	m.Epoch = r.uvarint(math.MaxUint64)
	m.Tick = r.uvarint(math.MaxUint64)
	m.Deltas = readDeltas(r, m.Deltas)
	return r.finish()
}

// PlayerAttach attaches a player's video session to a supernode.
type PlayerAttach struct {
	// PlayerID identifies the player.
	PlayerID int32
	// QualityLevel is the initial Table 2 quality level (1..5).
	QualityLevel uint8
}

// Marshal encodes the message.
func (m PlayerAttach) Marshal() []byte {
	w := &writer{}
	w.i32(m.PlayerID)
	w.u8(m.QualityLevel)
	return w.buf
}

// UnmarshalPlayerAttach decodes the message.
func UnmarshalPlayerAttach(buf []byte) (PlayerAttach, error) {
	r := &reader{buf: buf}
	m := PlayerAttach{PlayerID: r.i32(), QualityLevel: r.u8()}
	return m, r.finish()
}

// AttachReply acknowledges a video attach.
type AttachReply struct {
	// OK reports acceptance (false when the supernode is at capacity —
	// the sequential capacity probing of §3.2.2 moves on).
	OK bool
	// Reason explains a rejection.
	Reason string
	// Datagram is the session's grant of the unreliable video path; the
	// zero grant (no Addr) means the session streams over TCP only.
	Datagram DatagramGrant
}

// DatagramGrant opens the datagram video path of one attached session
// (-transport udp). Until the player's hello datagram lands the session
// streams over its TCP connection; from then on every frame is a datagram.
type DatagramGrant struct {
	// Addr is the node's datagram ("udp host:port") endpoint.
	Addr string
	// Token is the session token the hello and every frame header carry.
	Token uint64
	// Epoch is the authority epoch the frame headers are stamped with.
	Epoch uint64
}

// Marshal encodes the message.
func (m AttachReply) Marshal() []byte {
	w := &writer{}
	w.boolean(m.OK)
	w.str(m.Reason)
	w.str(m.Datagram.Addr)
	w.u64(m.Datagram.Token)
	w.u64(m.Datagram.Epoch)
	return w.buf
}

// UnmarshalAttachReply decodes the message.
func UnmarshalAttachReply(buf []byte) (AttachReply, error) {
	r := &reader{buf: buf}
	m := AttachReply{OK: r.boolean(), Reason: r.str()}
	m.Datagram = DatagramGrant{Addr: r.str(), Token: r.u64(), Epoch: r.u64()}
	return m, r.finish()
}

// RateChange is the receiver-driven quality switch.
type RateChange struct {
	// QualityLevel is the requested Table 2 level (1..5).
	QualityLevel uint8
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m RateChange) AppendTo(buf []byte) []byte { return append(buf, m.QualityLevel) }

// UnmarshalRateChange decodes the message.
func UnmarshalRateChange(buf []byte) (RateChange, error) {
	r := &reader{buf: buf}
	m := RateChange{QualityLevel: r.u8()}
	return m, r.finish()
}

// Heartbeat is the cloud's liveness ping.
type Heartbeat struct {
	// Seq is the monotonically increasing heartbeat sequence number.
	Seq uint32
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m Heartbeat) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(m.Seq)
	return w.buf
}

// UnmarshalHeartbeat decodes the message.
func UnmarshalHeartbeat(buf []byte) (Heartbeat, error) {
	r := &reader{buf: buf}
	m := Heartbeat{Seq: r.u32()}
	return m, r.finish()
}

// HeartbeatAck answers a heartbeat.
type HeartbeatAck struct {
	// Seq echoes the heartbeat sequence number being answered.
	Seq uint32
	// ReplicaTick is the supernode's latest applied world tick, letting
	// the cloud spot replicas that are alive but falling behind.
	ReplicaTick uint64
	// Attached is the supernode's current player count.
	Attached uint16
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m HeartbeatAck) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(m.Seq)
	w.u64(m.ReplicaTick)
	w.u16(m.Attached)
	return w.buf
}

// UnmarshalHeartbeatAck decodes the message.
func UnmarshalHeartbeatAck(buf []byte) (HeartbeatAck, error) {
	r := &reader{buf: buf}
	m := HeartbeatAck{Seq: r.u32(), ReplicaTick: r.u64(), Attached: r.u16()}
	return m, r.finish()
}

// CandidateUpdate refreshes a player's failover ladder after the supernode
// set or its ranking changes. Semantically it is the live-update
// counterpart of the JoinReply candidate list (§3.2.2 churn handling).
type CandidateUpdate struct {
	// Candidates are the surviving candidate supernodes, ranked best
	// first.
	Candidates []CandidateInfo
	// CloudStreamAddr is the cloud's own fallback streaming endpoint.
	CloudStreamAddr string
	// StandbyAddr is the warm standby's control endpoint ("" when none),
	// refreshed so players always know where to resume.
	StandbyAddr string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m CandidateUpdate) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	putCandidates(&w, m.Candidates)
	w.str(m.CloudStreamAddr)
	w.str(m.StandbyAddr)
	return w.buf
}

// UnmarshalCandidateUpdate decodes the message.
func UnmarshalCandidateUpdate(buf []byte) (CandidateUpdate, error) {
	r := &reader{buf: buf}
	m := CandidateUpdate{Candidates: getCandidates(r), CloudStreamAddr: r.str(), StandbyAddr: r.str()}
	return m, r.finish()
}

// QoEReport is a player's rating of a supernode, sent to the cloud on the
// control connection. Healthy sessions report periodically with high
// ratings; a stall or a forced fallback reports immediately with rating 0,
// demoting the supernode in every player's next ladder.
type QoEReport struct {
	// PlayerID identifies the reporting player (must match the control
	// connection's admitted player).
	PlayerID int32
	// Addr is the stream address of the supernode being rated.
	Addr string
	// Rating is the session-quality rating in [0, 1] (playback
	// continuity, per §3.2's rating rule).
	Rating float64
	// Stalled marks a report triggered by a stall/migration rather than a
	// periodic checkpoint.
	Stalled bool
	// Fallback marks that the failure drove the player onto the cloud's
	// own stream — the expensive outcome the fog tier exists to avoid.
	Fallback bool
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m QoEReport) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.i32(m.PlayerID)
	w.str(m.Addr)
	w.f64(m.Rating)
	var flags uint8
	if m.Stalled {
		flags |= 1
	}
	if m.Fallback {
		flags |= 2
	}
	w.u8(flags)
	return w.buf
}

// UnmarshalQoEReport decodes the message.
func UnmarshalQoEReport(buf []byte) (QoEReport, error) {
	r := &reader{buf: buf}
	m := QoEReport{PlayerID: r.i32(), Addr: r.str(), Rating: r.f64()}
	flags := r.u8()
	m.Stalled = flags&1 != 0
	m.Fallback = flags&2 != 0
	return m, r.finish()
}

// ProbeReply answers a capacity probe.
type ProbeReply struct {
	// Available is the number of free player slots.
	Available int
}

// Marshal encodes the message.
func (m ProbeReply) Marshal() []byte {
	w := &writer{}
	w.u16(uint16(m.Available))
	return w.buf
}

// UnmarshalProbeReply decodes the message.
func UnmarshalProbeReply(buf []byte) (ProbeReply, error) {
	r := &reader{buf: buf}
	m := ProbeReply{Available: int(r.u16())}
	return m, r.finish()
}

// StandbyHello registers a warm standby with the primary. The primary
// replies with a MsgCheckpoint (full state) and then streams MsgLogEntry
// every tick; supernodes and players learn Addr through welcome/join/
// candidate messages so they know where to resume.
type StandbyHello struct {
	// Addr is the standby's own control endpoint (where it will serve
	// resumption after promotion).
	Addr string
}

// Marshal encodes the message.
func (m StandbyHello) Marshal() []byte {
	w := &writer{}
	w.str(m.Addr)
	return w.buf
}

// UnmarshalStandbyHello decodes the message.
func UnmarshalStandbyHello(buf []byte) (StandbyHello, error) {
	r := &reader{buf: buf}
	m := StandbyHello{Addr: r.str()}
	return m, r.finish()
}

// Resume session kinds.
const (
	// ResumeSupernode resumes a supernode's cloud link.
	ResumeSupernode uint8 = 1
	// ResumePlayer resumes a player's control connection.
	ResumePlayer uint8 = 2
)

// Resume asks a cloud (typically a just-promoted standby) to continue an
// existing session. The presented epoch/tick let the authority decide
// whether the peer's retained state is a valid prefix of the restored
// history or must be discarded (DESIGN.md §12 epoch rules).
type Resume struct {
	// Kind is ResumeSupernode or ResumePlayer.
	Kind uint8
	// PlayerID identifies the resuming player (ResumePlayer only).
	PlayerID int32
	// Epoch is the last authority epoch the peer was attached to.
	Epoch uint64
	// Tick is the last authoritative tick the peer observed.
	Tick uint64
	// Name is the supernode's identifier (ResumeSupernode only).
	Name string
	// Capacity is the supernode's advertised capacity (ResumeSupernode
	// only).
	Capacity int
	// StreamAddr is the supernode's player-facing address (ResumeSupernode
	// only).
	StreamAddr string
}

// Marshal encodes the message.
func (m Resume) Marshal() []byte {
	w := &writer{}
	w.u8(m.Kind)
	w.i32(m.PlayerID)
	w.u64(m.Epoch)
	w.u64(m.Tick)
	w.str(m.Name)
	w.u16(uint16(m.Capacity))
	w.str(m.StreamAddr)
	return w.buf
}

// UnmarshalResume decodes the message.
func UnmarshalResume(buf []byte) (Resume, error) {
	r := &reader{buf: buf}
	m := Resume{Kind: r.u8(), PlayerID: r.i32(), Epoch: r.u64(), Tick: r.u64()}
	m.Name = r.str()
	m.Capacity = int(r.u16())
	m.StreamAddr = r.str()
	return m, r.finish()
}

// ResumeReply answers a Resume. For supernodes it carries a fresh replica
// seed (replicas may hold ticks the restored history never committed, so
// they always reseed); for players it carries the refreshed failover
// ladder. A refused resume (OK=false) means the authority does not know
// the session — the peer falls back to a full join.
type ResumeReply struct {
	// OK reports acceptance.
	OK bool
	// Discard tells the peer its retained state ran ahead of the restored
	// history (it observed ticks from the dead primary that the new
	// authority never committed) and any locally buffered derived state
	// must be dropped rather than replayed.
	Discard bool
	// Epoch is the answering cloud's authority epoch.
	Epoch uint64
	// Tick is the current authoritative tick.
	Tick uint64
	// SupernodeID is the (re-)assigned supernode ID (ResumeSupernode only).
	SupernodeID uint32
	// HasSnapshot marks that Snapshot is present (ResumeSupernode only).
	HasSnapshot bool
	// Snapshot reseeds the supernode's replica.
	Snapshot virtualworld.Snapshot
	// Candidates is the refreshed failover ladder (ResumePlayer only).
	Candidates []CandidateInfo
	// CloudStreamAddr is the answering cloud's fallback stream endpoint.
	CloudStreamAddr string
	// StandbyAddr is the next standby's endpoint ("" when none yet).
	StandbyAddr string
	// Reason explains a refusal.
	Reason string
}

// Marshal encodes the message.
func (m ResumeReply) Marshal() []byte {
	w := &writer{}
	var flags uint8
	if m.OK {
		flags |= 1
	}
	if m.Discard {
		flags |= 2
	}
	if m.HasSnapshot {
		flags |= 4
	}
	w.u8(flags)
	w.u64(m.Epoch)
	w.u64(m.Tick)
	w.u32(m.SupernodeID)
	if m.HasSnapshot {
		putSnapshot(w, m.Snapshot)
	}
	putCandidates(w, m.Candidates)
	w.str(m.CloudStreamAddr)
	w.str(m.StandbyAddr)
	w.str(m.Reason)
	return w.buf
}

// UnmarshalResumeReply decodes the message.
func UnmarshalResumeReply(buf []byte) (ResumeReply, error) {
	r := &reader{buf: buf}
	var m ResumeReply
	flags := r.u8()
	m.OK = flags&1 != 0
	m.Discard = flags&2 != 0
	m.HasSnapshot = flags&4 != 0
	m.Epoch = r.u64()
	m.Tick = r.u64()
	m.SupernodeID = r.u32()
	if m.HasSnapshot {
		m.Snapshot = getSnapshot(r)
	}
	m.Candidates = getCandidates(r)
	m.CloudStreamAddr = r.str()
	m.StandbyAddr = r.str()
	m.Reason = r.str()
	return m, r.finish()
}
