package serve

import (
	"math/rand/v2"
	"testing"
	"time"
)

// Property tests for the retry-pacing pair: randomized bases and
// attempts, seeded for reproducibility. The fixed-case tests in
// retry_test.go pin the obvious values; these pin the invariants.

// cappedExponential is the jitter-free center RetryDelay scales:
// base doubled per attempt, capped at 64x (attempt 6).
func cappedExponential(attempt int, base time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 6 {
		attempt = 6
	}
	return base << uint(attempt)
}

// TestRetryDelayPropBounds: for any base and attempt, the delay lies
// within [0.5, 1.5]x the capped exponential of that attempt.
func TestRetryDelayPropBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 5000; i++ {
		base := time.Duration(rng.Int64N(int64(10 * time.Second)))
		attempt := int(rng.Int64N(40)) - 8 // negative through far past the cap
		center := cappedExponential(attempt, base)
		lo, hi := center/2, center+center/2
		if d := RetryDelay(attempt, base); d < lo || d > hi {
			t.Fatalf("RetryDelay(%d, %v) = %v, want within [%v, %v]", attempt, base, d, lo, hi)
		}
	}
}

// TestRetryDelayPropCap: far past the cap the bound stops growing —
// attempt 6 and attempt 1000 share the same envelope.
func TestRetryDelayPropCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 2000; i++ {
		base := time.Duration(1 + rng.Int64N(int64(5*time.Second))) // positive
		capped := cappedExponential(6, base)
		for _, attempt := range []int{6, 7, 64, 1 << 20} {
			if d := RetryDelay(attempt, base); d > capped+capped/2 {
				t.Fatalf("RetryDelay(%d, %v) = %v exceeds the 64x cap envelope %v",
					attempt, base, d, capped+capped/2)
			}
		}
	}
}

// TestRetryDelayPropDefaultBase: any non-positive base behaves exactly
// like a one-second base.
func TestRetryDelayPropDefaultBase(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 2000; i++ {
		base := -time.Duration(rng.Int64N(int64(time.Hour))) // (-1h, 0]
		attempt := int(rng.Int64N(10))
		center := cappedExponential(attempt, time.Second)
		if d := RetryDelay(attempt, base); d < center/2 || d > center+center/2 {
			t.Fatalf("RetryDelay(%d, %v) = %v, want the 1s-base envelope [%v, %v]",
				attempt, base, d, center/2, center+center/2)
		}
	}
}

// TestRetryAfterMSProp: the poll hint is one RetryDelay(0) draw in
// milliseconds, so it inherits the [0.5, 1.5]x base envelope.
func TestRetryAfterMSProp(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 2000; i++ {
		base := time.Duration(1 + rng.Int64N(int64(10*time.Second)))
		lo, hi := (base / 2).Milliseconds(), (base + base/2).Milliseconds()
		if ms := retryAfterMS(base); ms < lo || ms > hi {
			t.Fatalf("retryAfterMS(%v) = %d, want within [%d, %d]", base, ms, lo, hi)
		}
	}
}
