package fognet

import (
	"sort"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/reputation"
	"cloudfog/internal/selection"
)

// The live §3.2 selection control plane: the QoE book players report into,
// the ranked candidate ladder built from it, and its push to every peer.

// optimisticScorer scores supernodes by the cloud's QoE book with an
// optimistic prior: a supernode nobody has reported on yet scores 0.5,
// between proven-good (→1) and proven-bad (→0). Unknowns are therefore
// tried before demoted supernodes but after established ones — without the
// prior, a freshly-stalled supernode (score ~0) would be indistinguishable
// from a brand-new one.
type optimisticScorer struct{ book *reputation.GlobalBook }

// unknownScore is the prior for supernodes with no QoE reports.
const unknownScore = 0.5

func (o optimisticScorer) Score(id, today int) float64 {
	if o.book.NumRatings(id) == 0 {
		return unknownScore
	}
	return o.book.Score(id, today)
}

// qoeDayMinutes is the wall-clock length of one reputation "day": the
// aging unit of Eq. 7, compressed so a long-running cloud forgets old
// incidents within the hour rather than within the week.
const qoeDayMinutes = 1

// day is the cloud's reputation clock (mu not required).
func (s *CloudServer) day() int {
	return int(time.Since(s.started).Minutes()) / qoeDayMinutes
}

// addrID returns the stable reputation ID for a stream address, allocating
// one on first sight (caller holds mu). Keyed by address, not connection
// ID, so a supernode keeps its reputation across reconnects.
func (s *CloudServer) addrID(addr string) int {
	id, ok := s.addrIDs[addr]
	if !ok {
		id = s.nextAddrID
		s.nextAddrID++
		s.addrIDs[addr] = id
	}
	return id
}

// candidateInfosLocked snapshots the current failover ladder — the caller
// must hold mu — ranked by the shared §3.2 pipeline: candidates carry their
// last-acked load, advertised capacity, and live QoE score, ordered
// best-first by the configured policy. Candidates are pre-sorted by stable
// ID so the deterministic tie-break shuffle is meaningful despite map
// iteration order.
func (s *CloudServer) candidateInfosLocked() []protocol.CandidateInfo {
	cands := make([]selection.Candidate, 0, len(s.supernodes))
	for _, sn := range s.supernodes {
		cands = append(cands, selection.Candidate{
			ID:       s.addrID(sn.streamAddr),
			Addr:     sn.streamAddr,
			Load:     sn.lastAttached,
			Capacity: sn.capacity,
			RTTMs:    -1, // the cloud cannot ping on the player's behalf
		})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	s.ranker.Rank(cands, s.day(), s.rankRand)
	out := make([]protocol.CandidateInfo, len(cands))
	for i, c := range cands {
		out[i] = protocol.CandidateInfo{
			Addr:          c.Addr,
			Load:          uint16(c.Load),
			Capacity:      uint16(c.Capacity),
			MeasuredRTTMs: -1,
			Score:         c.Score,
		}
	}
	return out
}

// Candidates returns the current ranked failover ladder — what the next
// joining player would receive. Exposed for tests and operational
// inspection.
func (s *CloudServer) Candidates() []protocol.CandidateInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.candidateInfosLocked()
}

// recordQoE absorbs a player's rating into the reputation book. Stall and
// fallback reports re-rank the ladder immediately and push it to every
// player; periodic healthy reports wait for the next natural refresh.
func (s *CloudServer) recordQoE(rep protocol.QoEReport) {
	s.mu.Lock()
	// An address never seen as a supernode is a bogus or stale report;
	// absorbing it would let players mint reputation IDs.
	id, known := s.addrIDs[rep.Addr]
	if known {
		s.book.Rate(id, rep.Rating, s.day())
		s.stats.Resilience.QoEReports++
	}
	s.mu.Unlock()
	if known && (rep.Stalled || rep.Fallback) {
		s.broadcastCandidates()
	}
}

// broadcastCandidates queues the current ladder to every admitted player,
// so migrations never chase a stale address list, and the standby address
// to every supernode. It only enqueues: a peer that does not read costs the
// caller nothing.
func (s *CloudServer) broadcastCandidates() {
	s.mu.Lock()
	update := protocol.CandidateUpdate{
		Candidates:      s.candidateInfosLocked(),
		CloudStreamAddr: s.Addr(),
		StandbyAddr:     s.standbyAddr,
	}
	players := make([]*link, 0, len(s.players))
	for _, pl := range s.players {
		players = append(players, pl)
	}
	sns := make([]*link, 0, len(s.supernodes))
	for _, sn := range s.supernodes {
		sns = append(sns, sn.link)
	}
	s.mu.Unlock()
	sent := pushCandidates(players, &update)
	// Supernodes only care about StandbyAddr (the failover rung their own
	// reconnect ladder needs), but a stale one is how a supernode ends up
	// orphaned after a failover, so keep them current too.
	update.Candidates = nil
	pushCandidates(sns, &update)
	s.mu.Lock()
	s.stats.Resilience.CandidateUpdates += sent
	s.mu.Unlock()
}

// pushCandidates encodes update once and enqueues it on every link; it
// returns how many queues took it.
func pushCandidates(links []*link, update *protocol.CandidateUpdate) (queued int64) {
	if len(links) == 0 {
		return 0
	}
	sp := newSharedPayload(len(links))
	sp.buf.B = update.AppendTo(sp.buf.B[:0])
	for _, l := range links {
		if l.enqueue(outMsg{typ: protocol.MsgCandidateUpdate, payload: sp.buf.B, shared: sp}) {
			queued++
		}
	}
	return queued
}
