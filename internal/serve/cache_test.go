package serve

import (
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
)

// TestCacheSharesAndCreates: the same key returns the same session; a
// different key gets its own.
func TestCacheSharesAndCreates(t *testing.T) {
	c := newSessionTable(maxSessionSims, func(string) *core.Session { return core.NewSession() })
	a, b := c.Get("quick"), c.Get("quick")
	if a != b {
		t.Error("same key returned different sessions")
	}
	if c.Get("quick+metrics") == a {
		t.Error("different keys share a session")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

// TestCacheRetiresOversizedSession: a session that has executed more
// than maxSims simulations is replaced by a fresh one on its next use,
// bounding any single key's memo.
func TestCacheRetiresOversizedSession(t *testing.T) {
	c := newSessionTable(1, func(string) *core.Session { return core.NewSession() })
	sess := c.Get("k")
	sieve := apps.MustNew("sieve", app.Quick)
	for i := 2; i <= 3; i++ { // two distinct configs = two real simulations
		if _, err := sess.Run(sieve, machine.Config{Procs: i, Threads: 1, Model: machine.SwitchOnLoad}); err != nil {
			t.Fatal(err)
		}
	}
	if sess.SimCount() <= 1 {
		t.Fatalf("SimCount = %d, want > 1", sess.SimCount())
	}
	fresh := c.Get("k")
	if fresh == sess {
		t.Error("oversized session was not retired")
	}
	if fresh.SimCount() != 0 {
		t.Errorf("retired replacement SimCount = %d, want 0", fresh.SimCount())
	}
}
