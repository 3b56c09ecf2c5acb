package main

import (
	"sync"
	"time"
)

// Emote tags cycle through 2..255: 0 is a fresh avatar's state and 1 is
// the attack pose the world sets itself, so neither can be mistaken for a
// probe action.
const (
	firstTag = 2
	lastTag  = 255
)

func nextTag(t uint8) uint8 {
	if t >= lastTag || t < firstTag {
		return firstTag
	}
	return t + 1
}

// actionTimeout is how long an action may wait for the frame that shows
// it before it counts as failed.
const actionTimeout = time.Second

// sample is one completed input→display measurement.
type sample struct {
	Tag    uint8
	Due    time.Time // t0: when the open-loop schedule wanted it sent
	Update time.Time // t1: the sink saw the avatar carry Tag in tick Tick
	Frame  time.Time // t2: first decoded frame with EncodedFrame.Tick ≥ Tick
	Tick   uint64
	Decode time.Duration // decode time of that frame
	Traced bool
}

type pendingAction struct {
	tag    uint8
	due    time.Time
	tick   uint64 // 0 until the sink has seen the tag
	update time.Time
	traced bool
}

type frameObs struct {
	tick   uint64
	at     time.Time
	decode time.Duration
}

// matcher pairs one probe's actions with the world tick that applied them
// (reported by the sink supernode) and then with the first video frame
// rendered from that tick or a later one (reported by the probe's video
// reader). Actions travel one TCP connection and the world applies a
// player's actions in arrival order, so they complete in FIFO order; when
// two land in one tick the avatar only ever shows the later tag, and
// seeing it proves the earlier one was applied in the same tick.
type matcher struct {
	mu      sync.Mutex
	pending []pendingAction
	// recent holds the last few decoded frames: the sink and the video
	// reader are different goroutines, so a frame for tick T can be
	// decoded a moment before the sink reports T.
	recent  [8]frameObs
	nRecent int
	done    []sample
	expired int
	// onDone, when set, sees every completed sample (the traced run hangs
	// its span recording here). Called with mu held.
	onDone func(sample)
}

// sent registers an action about to be written to the cloud at now; due is
// when its schedule wanted it sent.
func (m *matcher) sent(tag uint8, due, now time.Time, traced bool) {
	m.mu.Lock()
	m.expireLocked(now)
	m.pending = append(m.pending, pendingAction{tag: tag, due: due, traced: traced})
	m.mu.Unlock()
}

// update records that the avatar carried tag in the update batch of tick.
func (m *matcher) update(tag uint8, tick uint64, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hit := -1
	for i := range m.pending {
		if m.pending[i].tick == 0 && m.pending[i].tag == tag {
			hit = i
			break
		}
	}
	if hit < 0 {
		return // timed out already, or a tag from before this matcher existed
	}
	for i := 0; i <= hit; i++ {
		if m.pending[i].tick == 0 {
			m.pending[i].tick = tick
			m.pending[i].update = at
		}
	}
	// A frame from this tick may already have been decoded.
	if f, ok := m.earliestRecentLocked(tick); ok {
		m.completeLocked(f)
	}
}

// earliestRecentLocked returns the oldest remembered frame showing tick or
// later.
func (m *matcher) earliestRecentLocked(tick uint64) (frameObs, bool) {
	n := m.nRecent
	if n > len(m.recent) {
		n = len(m.recent)
	}
	for i := n; i >= 1; i-- {
		f := m.recent[(m.nRecent-i)%len(m.recent)]
		if f.tick >= tick {
			return f, true
		}
	}
	return frameObs{}, false
}

// frame records a decoded video frame and completes every action whose
// tick it shows.
func (m *matcher) frame(tick uint64, at time.Time, decode time.Duration) {
	f := frameObs{tick: tick, at: at, decode: decode}
	m.mu.Lock()
	m.recent[m.nRecent%len(m.recent)] = f
	m.nRecent++
	m.completeLocked(f)
	m.mu.Unlock()
}

func (m *matcher) completeLocked(f frameObs) {
	n := 0
	for n < len(m.pending) && m.pending[n].tick != 0 && m.pending[n].tick <= f.tick {
		p := m.pending[n]
		s := sample{
			Tag: p.tag, Due: p.due, Update: p.update,
			Frame: f.at, Tick: p.tick, Decode: f.decode, Traced: p.traced,
		}
		m.done = append(m.done, s)
		if m.onDone != nil {
			m.onDone(s)
		}
		n++
	}
	m.pending = m.pending[n:]
}

func (m *matcher) expireLocked(now time.Time) {
	n := 0
	for n < len(m.pending) && now.Sub(m.pending[n].due) > actionTimeout {
		n++
	}
	m.expired += n
	m.pending = m.pending[n:]
}

// outstanding reports how many actions still wait for their frame.
func (m *matcher) outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// finish returns the completed samples and how many actions never saw
// their frame: those that timed out during the run and whatever is still
// pending now that it is over.
func (m *matcher) finish() ([]sample, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expired += len(m.pending)
	m.pending = nil
	return m.done, m.expired
}
