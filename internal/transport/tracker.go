package transport

// Verdict classifies one received datagram against the session's
// delivery order.
type Verdict int

const (
	// Fresh advances the stream: deliver the datagram.
	Fresh Verdict = iota
	// Stale arrived behind the newest delivered sequence (or under an
	// older epoch): drop it — frames are never delivered out of order.
	Stale
	// Duplicate was already delivered (or already dropped as stale once):
	// drop it.
	Duplicate
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	case Duplicate:
		return "duplicate"
	default:
		return "unknown"
	}
}

// TrackerStats snapshots a tracker's accounting.
type TrackerStats struct {
	// Delivered counts datagrams accepted in order.
	Delivered uint64
	// Stale counts late arrivals dropped at the receiver (a newer
	// sequence had already been delivered).
	Stale uint64
	// Duplicates counts datagrams seen more than once.
	Duplicates uint64
	// Reordered is the subset of Stale that did eventually arrive — gaps
	// first counted lost, then reclassified when the datagram showed up
	// late (and was dropped anyway).
	Reordered uint64
	// Lost counts sequence gaps never filled: datagrams the network ate.
	Lost uint64
}

// RecvTracker orders one unreliable datagram stream at the receiver: it
// decides, per (epoch, seq), whether a datagram is fresh, stale, or a
// duplicate, and keeps the loss/reorder accounting that feeds the QoE
// reports and the §3.3 adaptation controller.
//
// The tracker is single-goroutine (the receive loop owns it); callers
// that publish its stats elsewhere copy them under their own lock. It
// performs no allocation: recent-sequence memory is a 64-bit bitmap
// relative to the newest delivered sequence, RTP receiver style.
type RecvTracker struct {
	started bool
	epoch   uint64
	maxSeq  uint64
	// window bit i records whether sequence maxSeq-i already arrived
	// (delivered, or dropped late). Bit 0 is maxSeq itself.
	window uint64

	stats TrackerStats

	// Window accounting for the adaptation loop: deltas since the last
	// TakeWindow call.
	wDelivered uint64
	wLost      uint64
	wStale     uint64
}

// Track classifies one datagram. Fresh means deliver; anything else must
// be dropped. A gap below a fresh sequence is provisionally counted lost;
// a late arrival inside the 64-sequence memory is reclassified from lost
// to reordered (and still dropped).
func (t *RecvTracker) Track(epoch, seq uint64) Verdict {
	if !t.started || epoch > t.epoch {
		// First datagram, or the sender moved to a newer authority epoch:
		// adopt its order wholesale.
		t.started = true
		t.epoch = epoch
		t.maxSeq = seq
		t.window = 1
		t.stats.Delivered++
		t.wDelivered++
		return Fresh
	}
	if epoch < t.epoch {
		t.stats.Stale++
		t.wStale++
		return Stale
	}
	switch {
	case seq > t.maxSeq:
		delta := seq - t.maxSeq
		gap := delta - 1
		t.stats.Lost += gap
		t.wLost += gap
		if delta >= 64 {
			t.window = 1
		} else {
			t.window = t.window<<delta | 1
		}
		t.maxSeq = seq
		t.stats.Delivered++
		t.wDelivered++
		return Fresh
	case seq == t.maxSeq:
		t.stats.Duplicates++
		return Duplicate
	default:
		d := t.maxSeq - seq
		if d < 64 {
			bit := uint64(1) << d
			if t.window&bit != 0 {
				t.stats.Duplicates++
				return Duplicate
			}
			t.window |= bit
			// It was counted lost when the gap opened; it arrived after
			// all — late, so still dropped, but reclassified.
			t.stats.Reordered++
			if t.stats.Lost > 0 {
				t.stats.Lost--
			}
			if t.wLost > 0 {
				t.wLost--
			}
		}
		t.stats.Stale++
		t.wStale++
		return Stale
	}
}

// Stats snapshots the cumulative accounting.
func (t *RecvTracker) Stats() TrackerStats { return t.stats }

// TakeWindow returns the datagrams delivered, lost, and dropped-stale
// since the previous call, and resets the window — one call per
// adaptation observation window.
func (t *RecvTracker) TakeWindow() (delivered, lost, stale uint64) {
	delivered, lost, stale = t.wDelivered, t.wLost, t.wStale
	t.wDelivered, t.wLost, t.wStale = 0, 0, 0
	return delivered, lost, stale
}
