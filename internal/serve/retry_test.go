package serve

import (
	"testing"
	"time"
)

func TestRetryDelayBounds(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := -1; attempt <= 9; attempt++ {
		eff := attempt
		if eff < 0 {
			eff = 0
		}
		if eff > 6 {
			eff = 6
		}
		lo, hi := base<<uint(eff)/2, 3*(base<<uint(eff))/2
		for i := 0; i < 100; i++ {
			if d := RetryDelay(attempt, base); d < lo || d > hi {
				t.Fatalf("RetryDelay(%d, %v) = %v, want within [%v, %v]", attempt, base, d, lo, hi)
			}
		}
	}
	// Zero base defaults to one second.
	for i := 0; i < 100; i++ {
		if d := RetryDelay(0, 0); d < 500*time.Millisecond || d > 1500*time.Millisecond {
			t.Fatalf("RetryDelay(0, 0) = %v, want within [500ms, 1.5s]", d)
		}
	}
}

// TestRetryDelaySpread: consecutive calls must not all agree — the
// whole point is decorrelating clients.
func TestRetryDelaySpread(t *testing.T) {
	first := RetryDelay(3, time.Second)
	for i := 0; i < 50; i++ {
		if RetryDelay(3, time.Second) != first {
			return
		}
	}
	t.Error("50 jittered delays were identical")
}
