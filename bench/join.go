package main

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/rng"
)

// spawnRadius is how far from its anchor a joiner's avatar may spawn, in
// world units (a viewport is 240 × 180).
const spawnRadius = 20

// joiner is a closed loop of session set-up and tear-down: join the cloud,
// probe + attach to the fog, decode the first frame, keep streaming for a
// dwell, say Bye on both connections, stay away for an idle, and repeat
// under a fresh player ID. Each iteration waits for the one before it, so
// a slower system receives fewer joins.
type joiner struct {
	cloudAddr string
	level     game.QualityLevel
	// nearX, nearY is where the joiner's avatars spawn (within spawnRadius):
	// beside the first probe, inside the footprint an interest-managed fog
	// already subscribes to. A spawn anywhere else makes every join pull
	// ~35 cells of keyframes, and the streaming workloads' cloud egress
	// then measures the canary instead of the stream.
	nearX, nearY float64
	dwell        durRange
	idle         durRange
	r            *rng.Rand
	tr           *tracer
	nextID       *atomic.Int32

	mu          sync.Mutex
	joins       []joinSample
	attempts    int
	failed      int
	frames      []time.Time // decode time of every frame any of its sessions decoded
	decodeErrs  int
	tickRegress int
	firstErr    error

	stop chan struct{}
	wg   sync.WaitGroup
}

func (j *joiner) start() {
	j.stop = make(chan struct{})
	j.wg.Add(1)
	go j.loop()
}

// halt lets the iteration in flight finish, then stops the loop.
func (j *joiner) halt() {
	close(j.stop)
	j.wg.Wait()
}

func (j *joiner) draw(r durRange) time.Duration {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return r.Lo + time.Duration(j.r.Float64()*float64(r.Hi-r.Lo))
}

func (j *joiner) fail(err error) {
	j.mu.Lock()
	j.failed++
	if j.firstErr == nil {
		j.firstErr = err
	}
	j.mu.Unlock()
}

func (j *joiner) loop() {
	defer j.wg.Done()
	for n := 0; ; n++ {
		select {
		case <-j.stop:
			return
		default:
		}
		j.once(j.tr != nil && n%2 == 1)
		if d := j.draw(j.idle); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-j.stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
	}
}

func (j *joiner) once(traced bool) {
	x, y := j.nearX+j.r.Uniform(-spawnRadius, spawnRadius), j.nearY+j.r.Uniform(-spawnRadius, spawnRadius)
	j.mu.Lock()
	j.attempts++
	j.mu.Unlock()
	s, js, err := openSession(j.cloudAddr, j.nextID.Add(1), j.level, x, y, j.r)
	if err != nil {
		j.fail(err)
		return
	}
	defer s.bye()
	obs, err := s.nextFrame(js.Start.Add(joinTimeout))
	if err != nil {
		j.fail(err)
		return
	}
	js.FrameRead, js.Decoded = obs.Read, obs.Decoded
	if traced {
		j.tr.join(js)
	}
	j.mu.Lock()
	j.joins = append(j.joins, js)
	j.frames = append(j.frames, obs.Decoded)
	j.mu.Unlock()

	dwell := j.draw(j.dwell)
	if dwell <= 0 {
		return
	}
	until := obs.Decoded.Add(dwell)
	lastTick := obs.Tick
	for {
		obs, err := s.nextFrame(until)
		var ne net.Error
		switch {
		case err == nil:
			j.mu.Lock()
			if obs.Tick < lastTick {
				j.tickRegress++
			}
			j.frames = append(j.frames, obs.Decoded)
			j.mu.Unlock()
			lastTick = obs.Tick
		case errors.Is(err, errDecode):
			j.mu.Lock()
			j.decodeErrs++
			j.mu.Unlock()
		case errors.As(err, &ne) && ne.Timeout():
			return // dwell over
		default:
			j.fail(err) // the session dropped mid-dwell
			return
		}
	}
}
