package serve

import (
	"context"
	"fmt"
	"net/http"

	"mtsim/internal/cluster"
)

// Live job progress over Server-Sent Events:
//
//	GET /v2/jobs/{id}/events
//
// The stream is fed from the job's checkpoint sink: every journaled
// checkpoint becomes a `checkpoint` event whose id is "<entry>-<cycle>"
// and whose data carries the batch entry and the cycles completed. A
// `status` event opens the stream (status, entry progress, advisory
// ETA) and a `done` event closes it once the job finishes.
//
// A batch's entries run side by side, but the feed is entry-major: it
// is always a prefix of the job's final (entry, cycle) history. Until
// the job is done a subscriber sees an entry's events only once every
// earlier entry has finished (asyncJob.eventsAfterLocked), because an
// earlier entry still running adds events that sort before them.
//
// Resume is exact: a client that reconnects with Last-Event-ID gets
// every event strictly after that cursor and nothing else. Because the
// checkpoint sequence is deterministic, this holds even across a node
// death — the failover successor regenerates the undelivered tail of
// the sequence from its adopted state (see cluster.go), so a spliced
// stream has no duplicate and no missing checkpoint events. The
// subscriber never throttles the simulation: events accumulate in the
// job's history and each subscriber tails it at its own pace.

// sseCursorStart is the "everything" cursor (before any real event).
var sseCursorStart = JobEvent{Entry: -1}

// sseStatus is the data payload of `status` events: a snapshot of job
// progress at subscribe time. EtaMS is advisory (wall-clock based);
// everything else is deterministic.
type sseStatus struct {
	Status      string `json:"status"`
	Entries     int    `json:"entries"`
	EntriesDone int    `json:"entries_done"`
	Progress    int64  `json:"progress"`
	EtaMS       int64  `json:"eta_ms,omitempty"`
}

// writeSSEEvent emits one SSE frame. data is rendered compactly (one
// line, as the SSE framing requires).
func writeSSEEvent(w http.ResponseWriter, id, event string, data any) error {
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return err
		}
	}
	payload, err := marshalCompact(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload)
	return err
}

// handleJobEvents streams one job's progress. A failure before the
// stream starts is an error envelope.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.jm == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, "async jobs disabled: server runs without a journal")
		return
	}
	if s.brownedOut() {
		// Brownout sheds the SSE fan-out before the server refuses real
		// work: the job keeps running, only the live feed is declined.
		// Clients fall back to polling (or resume the stream later with
		// Last-Event-ID — the event history loses nothing).
		s.bo.shedSSE.Add(1)
		s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, "event streaming shed under overload (brownout); poll the job or retry later")
		return
	}
	if !s.jm.owns(r.PathValue("id")) && s.forwardIfRemote(w, r, cluster.JobRouteKey(r.PathValue("id")), nil) {
		return
	}
	job := s.jm.get(r.PathValue("id"))
	if job == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, "unknown job id")
		return
	}
	cursor := sseCursorStart
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id")
	}
	if lastID != "" {
		ev, ok := parseEventID(lastID)
		if !ok {
			s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, fmt.Sprintf("bad Last-Event-ID %q: want <entry>-<cycle>", lastID))
			return
		}
		cursor = ev
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeV2Error(w, http.StatusInternalServerError, v2CodeInternal, "streaming unsupported by this connection")
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Wake the subscriber loop when the client goes away, so a closed
	// connection does not park a goroutine on the cond forever.
	ctx := r.Context()
	stopWake := context.AfterFunc(ctx, func() {
		job.mu.Lock()
		job.sub.Broadcast()
		job.mu.Unlock()
	})
	defer stopWake()

	job.mu.Lock()
	hello := sseStatus{
		Status: job.status, Entries: job.entries, EntriesDone: job.entriesDone,
		Progress: job.progressLocked(), EtaMS: job.etaMSLocked(),
	}
	job.mu.Unlock()
	if writeSSEEvent(w, "", "status", hello) != nil {
		return
	}
	fl.Flush()

	for {
		job.mu.Lock()
		var evs []JobEvent
		var status string
		for {
			evs = job.eventsAfterLocked(cursor)
			status = job.status
			if len(evs) > 0 || status == JobDone || ctx.Err() != nil {
				break
			}
			job.sub.Wait()
		}
		job.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, e := range evs {
			if writeSSEEvent(w, e.ID(), "checkpoint", e) != nil {
				return
			}
			cursor = e
		}
		fl.Flush()
		if status == JobDone {
			// One last look: checkpoints appended between the copy above
			// and the done transition must not be skipped.
			job.mu.Lock()
			tail := job.eventsAfterLocked(cursor)
			job.mu.Unlock()
			for _, e := range tail {
				if writeSSEEvent(w, e.ID(), "checkpoint", e) != nil {
					return
				}
				cursor = e
			}
			_ = writeSSEEvent(w, "", "done", sseStatus{Status: JobDone})
			fl.Flush()
			return
		}
	}
}
