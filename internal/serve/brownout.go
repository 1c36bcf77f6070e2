package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Brownout: graceful degradation under sustained overload. The gate
// already sheds *excess* load (429 past the cap, ErrDoomed for
// requests that cannot make their deadline); brownout reduces the cost
// of the load the server keeps. While active, the server stops paying
// for optional work — per-request metrics collection is dropped and
// new SSE subscriptions are refused with a come-back hint — so worker
// throughput goes to simulation results, the thing callers are
// actually waiting on. Shedding garnish before refusing work is the
// serving-plane version of the paper's thesis: when stalls threaten,
// spend the capacity on useful instructions.
//
// The controller is hysteretic in both level and time: brownout enters
// only after queue saturation has held at or above the high-water mark
// for enterAfter, and exits only after saturation has held at or below
// the low-water mark for exitAfter. A load blip in either direction
// resets the pending transition, so the mode cannot flap at a
// threshold crossing.

// The brownout hysteresis band, in units of queue saturation (queued /
// QueueDepth).
const (
	brownoutHighWater = 0.75
	brownoutLowWater  = 0.25
)

// brownout is the hysteretic overload-mode controller. fold() is
// driven from request paths and health checks; there is no background
// goroutine, so an idle server simply stays in whatever mode it last
// observed (harmless: with no requests there is nothing to shed).
type brownout struct {
	enterAfter time.Duration
	exitAfter  time.Duration
	now        func() time.Time // injectable clock for tests

	active atomic.Bool

	mu        sync.Mutex
	highSince time.Time // zero = saturation currently below high water
	lowSince  time.Time // zero = saturation currently above low water
	entered   int64     // completed enter transitions
	exited    int64     // completed exit transitions

	shedMetrics atomic.Int64 // run/batch executions that skipped metrics
	shedSSE     atomic.Int64 // SSE subscriptions refused
}

func newBrownout(enterAfter, exitAfter time.Duration) *brownout {
	return &brownout{enterAfter: enterAfter, exitAfter: exitAfter, now: time.Now}
}

// fold feeds one saturation observation into the controller and
// reports whether brownout is active after it.
func (b *brownout) fold(sat float64) bool {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active.Load() {
		if sat >= brownoutHighWater {
			if b.highSince.IsZero() {
				b.highSince = now
			} else if now.Sub(b.highSince) >= b.enterAfter {
				b.active.Store(true)
				b.entered++
				b.highSince, b.lowSince = time.Time{}, time.Time{}
			}
		} else {
			b.highSince = time.Time{}
		}
		return b.active.Load()
	}
	if sat <= brownoutLowWater {
		if b.lowSince.IsZero() {
			b.lowSince = now
		} else if now.Sub(b.lowSince) >= b.exitAfter {
			b.active.Store(false)
			b.exited++
			b.highSince, b.lowSince = time.Time{}, time.Time{}
		}
	} else {
		b.lowSince = time.Time{}
	}
	return b.active.Load()
}

// brownoutStatus is the health-surface view of the controller.
type brownoutStatus struct {
	Active      bool  `json:"active"`
	Entered     int64 `json:"entered"`
	Exited      int64 `json:"exited"`
	ShedMetrics int64 `json:"shed_metrics"`
	ShedSSE     int64 `json:"shed_sse"`
}

func (b *brownout) status() *brownoutStatus {
	b.mu.Lock()
	entered, exited := b.entered, b.exited
	b.mu.Unlock()
	return &brownoutStatus{
		Active:      b.active.Load(),
		Entered:     entered,
		Exited:      exited,
		ShedMetrics: b.shedMetrics.Load(),
		ShedSSE:     b.shedSSE.Load(),
	}
}

// brownedOut folds the current gate saturation and reports the mode.
// Nil-safe: a server without a controller (disabled) never browns out.
func (s *Server) brownedOut() bool {
	if s.bo == nil {
		return false
	}
	return s.bo.fold(s.gate.saturation())
}

// shedMetricsNow decides whether this execution should skip metrics
// collection, counting the sheds it orders.
func (s *Server) shedMetricsNow(wantMetrics bool) bool {
	if !wantMetrics || !s.brownedOut() {
		return false
	}
	s.bo.shedMetrics.Add(1)
	return true
}
