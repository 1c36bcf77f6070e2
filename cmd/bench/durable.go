package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mtsim/internal/serve"
)

// durableBatch is the serve-durable entry's job list: four quick runs,
// two long (sieve, blkmat: about 1.3M cycles each) and two short, so a
// journaling server crosses about thirty checkpoints per batch.
const durableBatch = `{"scale":"quick","jobs":[
{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use"}},
{"app":"sor","config":{"procs":4,"threads":2,"model":"switch-on-use"}},
{"app":"blkmat","config":{"procs":4,"threads":2,"model":"switch-on-use"}},
{"app":"water","config":{"procs":4,"threads":2,"model":"switch-on-use"}}]}`

// durableReference is the document the batch gets synchronously from a
// journal-less server, computed once per process.
var durableReference = sync.OnceValues(func() ([]byte, error) {
	h := serve.New(serve.Config{Workers: 2}).Handler()
	var job serve.V2Job
	if err := serveJSON(h, "POST", "/v2/jobs", "", `{"batch":`+durableBatch+`}`, http.StatusOK, &job); err != nil {
		return nil, fmt.Errorf("sync reference: %w", err)
	}
	return compactJSON(job.Result)
})

// serveDurable is one serve-durable operation: a fresh journaling
// server (journal in a temp dir, an fsync per record) takes the batch
// as an async job under an Idempotency-Key, acknowledges it with 202,
// and runs it while the caller awaits the done event over SSE. Every
// request goes through Handler(), so no socket is opened. It fails
// unless the job's result is the synchronous document, and reports the
// batch's summed simulated work.
func serveDurable(ctx context.Context) (instrs, cycles int64, err error) {
	want, err := durableReference()
	if err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp("", "bench-durable-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	srv := serve.New(serve.Config{Workers: 2})
	if _, err := srv.EnableJournal(filepath.Join(dir, "journal")); err != nil {
		return 0, 0, err
	}
	defer func() {
		if serr := srv.Shutdown(context.Background()); serr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
	}()
	h := srv.Handler()

	var ack serve.V2Job
	if err := serveJSON(h, "POST", "/v2/jobs", "bench-serve-durable", `{"batch":`+durableBatch+`}`, http.StatusAccepted, &ack); err != nil {
		return 0, 0, fmt.Errorf("submit: %w", err)
	}
	// The events handler returns once it has written the done event.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/jobs/"+ack.JobID+"/events", nil).WithContext(ctx))
	if !strings.Contains(rec.Body.String(), "event: done\n") {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("event stream ended without done: %q", rec.Body.String())
	}
	var done serve.V2Job
	if err := serveJSON(h, "GET", "/v2/jobs/"+ack.JobID, "", "", http.StatusOK, &done); err != nil {
		return 0, 0, fmt.Errorf("result: %w", err)
	}
	got, err := compactJSON(done.Result)
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, 0, fmt.Errorf("async result differs from the sync run:\n%s\nwant\n%s", got, want)
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(done.Result, &resp); err != nil {
		return 0, 0, err
	}
	if resp.Failed != 0 {
		return 0, 0, fmt.Errorf("%d entries failed: %q", resp.Failed, resp.Errors)
	}
	for _, r := range resp.Results {
		instrs += r.Instrs
		cycles += r.Cycles
	}
	return instrs, cycles, nil
}

// serveJSON sends one request through h, with an Idempotency-Key when
// key is set, and decodes the reply into out; a status other than want
// is an error.
func serveJSON(h http.Handler, method, path, key, body string, want int, out any) error {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// compactJSON renders a JSON document without insignificant space.
func compactJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
