package fognet

import (
	"sync"
	"time"

	"cloudfog/internal/rng"
)

// Failover retry defaults shared by the player's migration ladder and
// control-plane resume. The cap matters: an uncapped doubling backoff
// turns a minute-long outage into a client that is effectively gone.
const (
	DefaultMigrateBackoff    = 50 * time.Millisecond
	DefaultMigrateBackoffMax = 2 * time.Second
)

// nextBackoff advances one step of a jittered, capped exponential
// backoff: it returns the sleep for the current attempt (the base with
// ±50% deterministic jitter from the caller's split RNG stream) and the
// doubled base for the next attempt, clamped to max.
func nextBackoff(j *rng.Rand, cur, max time.Duration) (sleep, next time.Duration) {
	if cur > max {
		cur = max
	}
	sleep = time.Duration(j.Uniform(0.5, 1.5) * float64(cur))
	next = cur * 2
	if next > max {
		next = max
	}
	return sleep, next
}

// backoffWait sleeps one nextBackoff step, advancing *cur, and reports
// false when stop closed first. mu is the owner's mutex, held only for
// the draw from j. Every redial loop in the package — fog reconnect,
// player migration, player resume, standby redial — waits here, so none
// of them can reintroduce an uncapped doubling or a sleep that outlives
// Close.
func backoffWait(stop <-chan struct{}, mu *sync.Mutex, j *rng.Rand, cur *time.Duration, max time.Duration) bool {
	mu.Lock()
	sleep, next := nextBackoff(j, *cur, max)
	mu.Unlock()
	*cur = next
	t := time.NewTimer(sleep)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
