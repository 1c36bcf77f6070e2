package serve

import (
	"math/rand/v2"
	"time"
)

// Retry pacing. The server's 429 carries a jittered Retry-After and
// clients are expected to back off exponentially with jitter; both
// halves live here so the decorrelation story is in one place. Without
// jitter, every client rejected by the same full queue sleeps the same
// interval and returns as the same thundering herd, re-creating the
// overload that rejected them.

// retryAfterBase is the base of the come-back hints sent with 429 and 503
// replies and of the poll-pacing hint of unfinished jobs.
const retryAfterBase = time.Second

// retryAfterMS is the come-back hint of a 429 or 503 envelope and the
// poll-pacing hint of an unfinished job: one RetryDelay(0) draw in
// milliseconds, so job pollers inherit the same decorrelated backoff
// as rejected clients.
func retryAfterMS(base time.Duration) int64 {
	return RetryDelay(0, base).Milliseconds()
}

// RetryDelay returns how long a client should wait before retry number
// attempt (0-based) of a 429-rejected request: exponential doubling
// from base, capped at 64x base, with uniform +-50% jitter. A non-
// positive base defaults to one second.
func RetryDelay(attempt int, base time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 6 {
		attempt = 6 // 1<<6 = the 64x cap
	}
	d := base << uint(attempt)
	return time.Duration((0.5 + rand.Float64()) * float64(d))
}
