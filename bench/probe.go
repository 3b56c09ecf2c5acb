package main

import (
	"errors"
	"sync"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// Probe actions are sent open loop with seeded gaps uniform in
// [probeGapLo, probeGapHi): a fixed 100 ms gap phase-locks against the
// 50 ms tick and 33 ms frame clocks and reports a spuriously narrow
// distribution.
const (
	probeGapLo = 50 * time.Millisecond
	probeGapHi = 150 * time.Millisecond
)

// videoSilence is the longest gap between frames a probe tolerates before
// it declares its stream dropped.
const videoSilence = 2 * time.Second

// lateness is how far behind its schedule the load generator sent one
// action.
type lateness struct {
	due time.Time
	by  time.Duration
}

// probe is one timing session: it emotes with a fresh tag on an open-loop
// schedule and watches its own video stream for the frame that shows it.
type probe struct {
	s    *session
	m    matcher
	gaps *rng.Rand
	// traced marks every second action for span recording.
	traced bool

	mu          sync.Mutex
	frames      []videoFrame
	decodeErrs  int
	tickRegress int
	late        []lateness
	lastTag     uint8
	streamErr   error

	stopSend chan struct{} // closed when inputs must stop
	stop     chan struct{} // closed when the probe shuts down
	wg       sync.WaitGroup
}

func newProbe(s *session, gaps *rng.Rand, tr *tracer) *probe {
	p := &probe{s: s, traced: tr != nil, gaps: gaps, stopSend: make(chan struct{}), stop: make(chan struct{})}
	if tr != nil {
		p.m.onDone = func(s sample) {
			if s.Traced {
				tr.action(s)
			}
		}
	}
	p.wg.Add(2)
	go p.videoLoop()
	go p.cloudLoop()
	return p
}

// startSending begins the open-loop action schedule.
func (p *probe) startSending() {
	p.wg.Add(1)
	go p.sendLoop(time.Now())
}

func (p *probe) videoLoop() {
	defer p.wg.Done()
	var lastTick uint64
	for {
		obs, err := p.s.nextFrame(time.Now().Add(videoSilence))
		if errors.Is(err, errDecode) {
			p.mu.Lock()
			p.decodeErrs++
			p.mu.Unlock()
			continue
		}
		if err != nil {
			select {
			case <-p.stop: // our own close
			default:
				p.mu.Lock()
				p.streamErr = err
				p.mu.Unlock()
			}
			return
		}
		p.mu.Lock()
		if obs.Tick < lastTick {
			p.tickRegress++
		}
		p.frames = append(p.frames, obs)
		p.mu.Unlock()
		lastTick = obs.Tick
		p.m.frame(obs.Tick, obs.Decoded, obs.Decoded.Sub(obs.Read))
	}
}

// cloudLoop drains the control connection (the cloud pushes ladder
// refreshes on it) so the cloud's writes never back up.
func (p *probe) cloudLoop() {
	defer p.wg.Done()
	fr := protocol.NewFrameReader(p.s.cloud)
	for {
		if _, _, err := fr.Next(); err != nil {
			return
		}
	}
}

func (p *probe) sendLoop(start time.Time) {
	defer p.wg.Done()
	var buf []byte
	due := start
	tag := uint8(0)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for seq := 0; ; seq++ {
		gap := probeGapLo + time.Duration(p.gaps.Float64()*float64(probeGapHi-probeGapLo))
		due = due.Add(gap)
		timer.Reset(time.Until(due))
		select {
		case <-p.stopSend:
			return
		case <-p.stop:
			return
		case <-timer.C:
		}
		tag = nextTag(tag)
		msg := protocol.ActionMsg{Action: virtualworld.Action{
			Player: int(p.s.id), Kind: virtualworld.ActEmote, StateTag: tag}}
		var err error
		buf, err = protocol.AppendMessage(buf[:0], protocol.MsgAction, &msg)
		if err != nil {
			return
		}
		now := time.Now()
		// Registered before the write: the tick that applies the action
		// can fire the instant the bytes land.
		p.m.sent(tag, due, now, p.traced && seq%2 == 1)
		p.mu.Lock()
		p.late = append(p.late, lateness{due: due, by: now.Sub(due)})
		p.lastTag = tag
		p.mu.Unlock()
		p.s.cloud.SetWriteDeadline(now.Add(time.Second))
		if _, err := p.s.cloud.Write(buf); err != nil {
			return // the matcher times the action out; the run fails on it
		}
	}
}

// stopInputs ends the action schedule; video keeps flowing.
func (p *probe) stopInputs() { close(p.stopSend) }

// close leaves the game and waits for the probe's goroutines.
func (p *probe) close() {
	close(p.stop)
	p.s.bye()
	p.wg.Wait()
}
