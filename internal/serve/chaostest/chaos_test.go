package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"mtsim/internal/serve"
	"mtsim/internal/serve/client"
)

// chaosBatchBody keeps the daemon busy long enough to be killed
// mid-run: sieve at quick scale is >1.3M cycles, so with small
// -checkpoint-every the job crosses many checkpoints.
const chaosBatchBody = `{
  "scale": "quick",
  "jobs": [
    {"app": "sieve", "config": {"procs": 4, "threads": 2, "model": "switch-on-use"}},
    {"app": "sor", "config": {"procs": 4, "threads": 2, "model": "switch-on-use"}}
  ]
}`

const idempotencyKey = "chaos-kill9"

// buildDaemon compiles cmd/mtsimd into dir and returns the binary path.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "mtsimd")
	cmd := exec.Command("go", "build", "-o", bin, "mtsim/cmd/mtsimd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build mtsimd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches mtsimd with journaling and waits until /v2/healthz
// answers.
func startDaemon(t *testing.T, bin, addr, journal string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-journal", journal,
		"-checkpoint-every", "20000",
		"-drain", "5s")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start mtsimd: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v2/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatalf("mtsimd on %s never became healthy", addr)
	return nil
}

// chaosBatch decodes the chaos body into the client's request type.
func chaosBatch(t *testing.T) *serve.BatchRequest {
	t.Helper()
	var b serve.BatchRequest
	if err := json.Unmarshal([]byte(chaosBatchBody), &b); err != nil {
		t.Fatalf("decode chaos batch: %v", err)
	}
	return &b
}

// apiClient wraps one daemon address in the /v2 Go client — the
// harness drives the fleet through the same package real callers use.
func apiClient(addr string) *client.Client {
	return client.New("http://" + addr)
}

// submit posts the chaos batch with the idempotency key; resubmitting
// after every restart is the point of the key, so connection-level
// failures (daemon mid-death) are retried by the caller.
func submit(t *testing.T, addr string) (string, error) {
	return submitKey(t, addr, idempotencyKey)
}

// submitKey posts the chaos batch with an explicit idempotency key.
func submitKey(t *testing.T, addr, key string) (string, error) {
	job, err := apiClient(addr).SubmitBatch(context.Background(), chaosBatch(t), key)
	if err != nil {
		return "", err
	}
	return job.JobID, nil
}

// pollOnce fetches the job once: (result bytes, true) when done.
func pollOnce(addr, id string) ([]byte, bool, error) {
	job, err := apiClient(addr).GetJob(context.Background(), id)
	if err != nil {
		return nil, false, err
	}
	if job.Status == serve.JobDone {
		return job.Result, true, nil
	}
	return nil, false, nil
}

// pollDone polls until the job finishes, returning its result bytes.
func pollDone(t *testing.T, addr, id string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	result, err := apiClient(addr).WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("job %s never finished: %v", id, err)
	}
	return result
}

// TestSIGKILLRecoveryByteIdentity is the headline chaos test: SIGKILL
// the daemon at seeded-random points while it works a journaled batch,
// restart it over the same journal each time, and require the final
// response to be byte-identical to a never-killed daemon's. At least
// one kill must land mid-job — after a checkpoint, before the done
// record — or the test proved nothing about resuming.
func TestSIGKILLRecoveryByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly kills the real daemon; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)

	// Crash-free reference run.
	refAddr := freeAddr(t)
	ref := startDaemon(t, bin, refAddr, filepath.Join(dir, "ref.wal"))
	id, err := submit(t, refAddr)
	if err != nil {
		t.Fatal(err)
	}
	want := pollDone(t, refAddr, id)
	_ = ref.Process.Signal(syscall.SIGTERM)
	_ = ref.Wait()

	// Chaos run: up to maxKills SIGKILLs at randomized delays. The seed
	// is fixed so a failure replays the same kill schedule.
	const maxKills = 4
	rng := rand.New(rand.NewSource(0xC4A05))
	journal := filepath.Join(dir, "chaos.wal")
	var got []byte
	kills, midJob := 0, 0
	for {
		addr := freeAddr(t)
		daemon := startDaemon(t, bin, addr, journal)
		if _, err := submit(t, addr); err != nil {
			// The submit itself is idempotent; a replayed journal may
			// even answer while the resubmit races the dispatcher.
			t.Fatal(err)
		}
		if kills >= maxKills {
			got = pollDone(t, addr, id)
			_ = daemon.Process.Signal(syscall.SIGTERM)
			_ = daemon.Wait()
			break
		}
		// Let the run get somewhere, then pull the plug with no drain.
		// The first round waits for a seeded number of checkpoints
		// instead of a delay, so however fast the job runs at least one
		// kill lands mid-job.
		if kills == 0 {
			awaitJobCheckpoint(t, addr, id, int64(1+rng.Intn(3)))
		} else {
			time.Sleep(time.Duration(10+rng.Intn(80)) * time.Millisecond)
		}
		if body, done, err := pollOnce(addr, id); err == nil && done {
			// Finished before this round's kill: recovery already
			// proved itself on earlier rounds (or there was nothing to
			// crash); take the answer.
			got = body
			_ = daemon.Process.Kill()
			_ = daemon.Wait()
			break
		}
		if err := daemon.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = daemon.Wait()
		kills++
		if data, err := os.ReadFile(journal); err == nil &&
			bytes.Contains(data, []byte(`"kind":"ckpt","id":"`+id+`"`)) &&
			!bytes.Contains(data, []byte(`"kind":"done","id":"`+id+`"`)) {
			midJob++
		}
	}
	t.Logf("survived %d SIGKILLs, %d mid-job (journal %d bytes)", kills, midJob, fileSize(t, journal))
	if midJob == 0 {
		t.Errorf("none of %d kills landed mid-job", kills)
	}

	if string(got) != string(want) {
		t.Errorf("response after %d kills differs from crash-free run:\n--- crash-free ---\n%s\n--- recovered ---\n%s",
			kills, want, got)
	}
}

// awaitJobCheckpoint polls the job until it has journaled at least min
// checkpoints. It fails if the job finishes first.
func awaitJobCheckpoint(t *testing.T, addr, id string, min int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := apiClient(addr).GetJob(context.Background(), id)
		if err != nil {
			t.Fatalf("poll job %s: %v", id, err)
		}
		if job.Status == serve.JobDone {
			t.Fatalf("job %s finished before %d checkpoints", id, min)
		}
		if job.Checkpoint >= min {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %d checkpoints", id, min)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
