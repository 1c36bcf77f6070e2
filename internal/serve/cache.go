package serve

import (
	"sync"

	"mtsim/internal/core"
)

// maxSessionSims retires a session whose memo has executed more than
// this many simulations.
const maxSessionSims = 65536

// sessionTable holds the server's shared core.Sessions, one per key.
// Keys are the request parameters that fork the memo space (problem
// scale and metrics collection, see sessionKey), so the table never
// holds more than six sessions and needs no eviction. Sharing sessions
// across requests is what makes the server fast — a popular
// configuration simulates once and every later request is a memo hit —
// but a session accumulates every distinct (app, config) result it
// runs, so a session that has executed more than maxSims simulations
// is retired and replaced by a fresh one on its next use. In-flight
// requests holding a retired session finish normally and it is then
// collected.
type sessionTable struct {
	maxSims int64
	factory func(key string) *core.Session

	mu       sync.Mutex
	sessions map[string]*core.Session
}

// newSessionTable builds an empty table; factory builds a configured
// empty session for a key (sessions are configured once here, never
// mutated by requests, so concurrent requests sharing one need no
// coordination).
func newSessionTable(maxSims int64, factory func(key string) *core.Session) *sessionTable {
	return &sessionTable{maxSims: maxSims, factory: factory, sessions: make(map[string]*core.Session)}
}

// Get returns the session for key, creating (or retiring and
// recreating) it as needed.
func (t *sessionTable) Get(key string) *core.Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess := t.sessions[key]
	if sess == nil || sess.SimCount() > t.maxSims {
		sess = t.factory(key)
		t.sessions[key] = sess
	}
	return sess
}

// Len reports the number of sessions in the table.
func (t *sessionTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}
