package fognet

import (
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/protocol"
	"cloudfog/internal/virtualworld"
)

// The tick path: the two clocks, the one input intake, the locked half of a
// tick (Step, capture) and the unlocked half (encode, enqueue), and the
// checkpoint capture the standby's feed rides on.

// tickLoop advances the world and fans out update batches on two clocks.
// The metronome ticks every TickInterval whether or not anything happened
// and is the only tick an idle cloud runs. The input clock is a rate limit,
// not a delay: the action that makes pending non-empty runs the same
// tickOnce at once when the previous tick, of either clock, is at least
// minTickGap old, and otherwise when it will be — so a lone input waits for
// nothing, a burst coalesces into one tick per gap, and early ticks are
// bounded at tickGapDivisor per TickInterval however many players act.
func (s *CloudServer) tickLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.TickInterval)
	defer ticker.Stop()
	minTickGap := s.cfg.TickInterval / tickGapDivisor
	early := time.NewTimer(minTickGap)
	defer early.Stop()
	// armed: early was Reset and its channel not yet received from. go.mod
	// predates go 1.23, so a stopped timer that already fired keeps its
	// value buffered; whoever disarms it must drain it, or the next arm
	// would tick at once.
	armed := true
	disarm := func() {
		if armed && !early.Stop() {
			<-early.C
		}
		armed = false
	}
	disarm()
	var lastTick time.Time
	tick := func(metronome bool) {
		lastTick = time.Now()
		s.tickOnce(metronome)
	}
	for {
		select {
		case <-s.stop:
			return
		case <-s.inputCh:
			if armed {
				continue
			}
			if wait := minTickGap - time.Since(lastTick); wait > 0 {
				early.Reset(wait)
				armed = true
			} else {
				tick(false)
			}
		case <-early.C:
			armed = false
			tick(false)
		case <-ticker.C:
			disarm()
			tick(true)
		}
	}
}

// queueActionLocked is the one intake of player inputs, whichever link
// they arrived on: an action naming no admitted avatar is refused, and the
// one that makes pending non-empty wakes the tick loop's input clock.
// Caller holds mu.
func (s *CloudServer) queueActionLocked(a virtualworld.Action) bool {
	if _, ok := s.world.Avatar(a.Player); !ok {
		return false
	}
	s.pending = append(s.pending, a)
	if len(s.pending) == 1 {
		s.wakeTickLocked()
	}
	return true
}

// wakeTickLocked puts the input clock's token on inputCh, for an action
// (queueActionLocked) or a join's spawn (admitPlayer) the next tick must
// carry. Caller holds mu, under which tickOnce takes the token back.
func (s *CloudServer) wakeTickLocked() {
	select {
	case s.inputCh <- struct{}{}:
	default: // a token is already waiting for the loop
	}
}

// tickOnce runs one world tick — numbered, logged and fanned out the same
// whichever clock asked for it; metronome only decides whether the tick
// counts toward the checkpoint cadence.
func (s *CloudServer) tickOnce(metronome bool) {
	s.mu.Lock()
	// Step copies its argument before use, so pending is truncated and
	// reused. The arming token goes with it: this tick serves the inputs
	// it announced.
	s.stats.Actions += int64(len(s.pending))
	deltas := s.world.Step(s.pending)
	s.pending = s.pending[:0]
	select {
	case <-s.inputCh:
	default:
	}
	nSession := len(s.sessionDeltas)
	if nSession > 0 {
		// Fold membership changes (avatar spawns, departures) into the
		// tick's delta stream so replicas and the standby's log both see
		// them; Step's own deltas follow and overwrite where they overlap.
		// Copied into the tick loop's own buffer while the lock is held:
		// the fan-out reads it after the unlock, when joins and departures
		// are already appending to sessionDeltas again.
		s.tickDeltas = append(append(s.tickDeltas[:0], s.sessionDeltas...), deltas...)
		deltas = s.tickDeltas
		s.sessionDeltas = s.sessionDeltas[:0]
	}
	wakeOwners(s.attached, deltas)
	s.stats.Ticks++
	if !metronome {
		s.stats.InputTicks++
	}
	tick := s.world.Tick()
	nextID := s.world.NextID()
	geo := s.world.Grid().Geom()
	// Recompute the interest set of every supernode that reported interest
	// from the post-Step world; each gained cell's keyframe joins this tick.
	// Then capture the fan-out targets into the reused scratch that fanOut
	// reads after the unlock.
	s.keyPlan = s.keyPlan[:0]
	s.keyDeltas = s.keyDeltas[:0]
	s.fanSNs = s.fanSNs[:0]
	for _, sn := range s.supernodes {
		if sn.interestGen > 0 {
			s.recomputeInterestLocked(sn, geo)
		}
		s.fanSNs = append(s.fanSNs, sn)
	}
	standby := s.standby
	var ckpt *sharedPayload
	if metronome && standby != nil && (s.stats.Ticks-s.stats.InputTicks)%int64(s.cfg.CheckpointEvery) == 0 {
		// Capture right after Step, while no actions are pending: the
		// checkpoint is a clean tick boundary. Only metronome ticks count
		// toward the cadence: the O(world) capture under mu and its payload
		// stay CheckpointEvery × TickInterval apart however busy the input
		// clock is, and the early ticks stay O(actions).
		ckpt = s.encodeCheckpointLocked(1)
	}
	s.mu.Unlock()
	s.fanOut(tick, nextID, geo, deltas, nSession, standby, ckpt)
}

// fanOut is the half of a tick that runs after the unlock: it encodes what
// tickOnce captured — the standby's log entry and checkpoint, the tick's
// cell keyframes in keyPlan/keyDeltas, then the tick's deltas as one
// full-world batch for legacy supernodes and per-cell batches for the AoI
// ones in fanSNs — and enqueues each payload to its recipients. It reads
// only its arguments and tick-loop-owned scratch, and allocates nothing
// once that scratch and the payload pools are warm.
func (s *CloudServer) fanOut(tick uint64, nextID virtualworld.EntityID, geo virtualworld.GridGeom, deltas []virtualworld.Delta, nSession int, standby *link, ckpt *sharedPayload) {
	if standby != nil {
		// One delta-log entry per tick, even when empty: the entry stream
		// doubles as the liveness signal the standby's promotion timer
		// watches. The standby always gets the full-world stream — it must
		// be able to take over for every cell.
		s.logEntry.Epoch = s.epoch
		s.logEntry.Tick = tick
		s.logEntry.NextID = nextID
		s.logEntry.Deltas = deltas
		lp := newSharedPayload(1)
		lp.buf.B = s.logEntry.AppendTo(lp.buf.B[:0])
		s.logEntry.Deltas = nil
		standby.enqueue(outMsg{typ: protocol.MsgLogEntry, payload: lp.buf.B, shared: lp})
		if ckpt != nil {
			standby.enqueue(outMsg{typ: protocol.MsgCheckpoint, payload: ckpt.buf.B, shared: ckpt})
		}
	}

	// Cell-enter keyframes flush even on quiet ticks: a fog that just
	// subscribed must not wait for the cell to change before seeing it.
	for _, k := range s.keyPlan {
		kb := protocol.CellBatch{Epoch: s.epoch, Tick: tick, Cell: k.cell,
			Keyframe: true, Deltas: s.keyDeltas[k.off : k.off+k.n]}
		sp := newSharedPayload(1)
		sp.buf.B = kb.AppendTo(sp.buf.B[:0])
		k.sn.enqueue(outMsg{typ: protocol.MsgCellBatch, payload: sp.buf.B, shared: sp})
	}

	if len(deltas) == 0 || len(s.fanSNs) == 0 {
		return
	}
	aoiCount := 0
	for _, sn := range s.fanSNs {
		if sn.interest != nil {
			aoiCount++
		}
	}
	if n := len(s.fanSNs) - aoiCount; n > 0 {
		// Supernodes with no interest set get the full batch, encoded once
		// into a pooled, reference-counted buffer shared by every such
		// queue.
		batch := protocol.UpdateBatch{Epoch: s.epoch, Tick: tick, Deltas: deltas}
		sp := newSharedPayload(n)
		sp.buf.B = batch.AppendTo(sp.buf.B[:0])
		for _, sn := range s.fanSNs {
			if sn.interest != nil {
				continue
			}
			sn.enqueue(outMsg{typ: protocol.MsgUpdateBatch, payload: sp.buf.B, shared: sp})
		}
	}
	if aoiCount == 0 {
		return
	}
	// AoI fan-out: bucket the tick's deltas by grid cell once, then encode
	// each dirty cell once and hand it only to the supernodes subscribed
	// to that cell. Per-tick cost is O(deltas + dirty cells × supernodes),
	// independent of world size.
	s.aoi.build(geo, deltas, nSession)
	if len(s.aoi.global) > 0 {
		// Position-less deltas (removals, session events) go to every AoI
		// subscriber under the CellNone sentinel.
		gb := protocol.CellBatch{Epoch: s.epoch, Tick: tick,
			Cell: virtualworld.CellNone, Deltas: s.aoi.global}
		sp := newSharedPayload(aoiCount)
		sp.buf.B = gb.AppendTo(sp.buf.B[:0])
		for _, sn := range s.fanSNs {
			if sn.interest != nil {
				sn.enqueue(outMsg{typ: protocol.MsgCellBatch, payload: sp.buf.B, shared: sp})
			}
		}
	}
	for i := 0; i < s.aoi.numDirty(); i++ {
		cell := s.aoi.cell(i)
		subs := 0
		for _, sn := range s.fanSNs {
			if sn.interest != nil && sn.interest.has(cell) {
				subs++
			}
		}
		if subs == 0 {
			continue // nobody watches this cell: zero encode, zero gather
		}
		_, cd := s.aoi.cellDeltas(i)
		cb := protocol.CellBatch{Epoch: s.epoch, Tick: tick, Cell: cell, Deltas: cd}
		sp := newSharedPayload(subs)
		sp.buf.B = cb.AppendTo(sp.buf.B[:0])
		for _, sn := range s.fanSNs {
			if sn.interest != nil && sn.interest.has(cell) {
				sn.enqueue(outMsg{typ: protocol.MsgCellBatch, payload: sp.buf.B, shared: sp})
			}
		}
	}
}

// encodeCheckpointLocked captures the full authoritative state — world,
// ID allocator, player sessions, address→reputation-ID table, QoE book,
// and ladder RNG — into the reused checkpoint scratch and encodes it
// into a fresh shared payload armed for refs readers. Caller holds mu.
func (s *CloudServer) encodeCheckpointLocked(refs int) *sharedPayload {
	st := &s.ckpt
	st.Epoch = s.epoch
	s.world.SnapshotInto(&st.World)
	st.NextID = s.world.NextID()
	st.Sessions = st.Sessions[:0]
	for id := range s.players {
		st.Sessions = append(st.Sessions, id)
	}
	for id := range s.resumable {
		// Sessions recovered from the previous epoch that have not
		// resumed yet stay resumable across chained failovers.
		if _, live := s.players[id]; !live {
			st.Sessions = append(st.Sessions, id)
		}
	}
	st.AddrIDs = st.AddrIDs[:0]
	for addr, id := range s.addrIDs {
		st.AddrIDs = append(st.AddrIDs, checkpoint.AddrID{Addr: addr, ID: int32(id)})
	}
	s.book.StateInto(&st.Book)
	st.RNG = s.rankRand.State()
	st.Canonicalize()
	s.stats.Resilience.Checkpoints++
	sp := newSharedPayload(refs)
	sp.buf.B = st.AppendTo(sp.buf.B[:0])
	return sp
}
