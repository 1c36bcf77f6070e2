package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// The job journal is mtsimd's crash-tolerance layer: an append-only
// write-ahead log of every async batch job's lifecycle, fsync'd per
// record, replayed on startup. A SIGKILL at any point loses at most the
// record being written — the CRC framing detects the torn tail and
// replay resumes every unfinished job from its latest checkpoint, which
// (because machine snapshots restore byte-identically) yields the exact
// response an uninterrupted run would have produced.
//
// Format: one record per line, `crc32_hex space json \n`, where the CRC
// (IEEE, hex, fixed 8 digits) covers the JSON bytes. A ckpt record's
// machine snapshot follows its line as raw bytes — snap_len of them
// (a JSON field) and a closing newline — and the CRC then covers the
// JSON bytes followed by the snapshot bytes. JSON-lines keeps the log
// greppable in production, and the raw snapshot spares each checkpoint
// a base64 round trip; the CRC is what makes truncation and torn
// writes detectable, since a partial JSON document can still parse.
// Replay stops at the first record whose CRC, framing or JSON does not
// verify and truncates the file there, so later appends never
// interleave with garbage. A record written before the raw framing
// carries its snapshot base64-encoded in the JSON as "snap"; replay
// ignores that field, so the record still verifies and replays as an
// event with no resume point, and its entry restarts from cycle 0.
//
// In cluster mode the journal also carries ownership: submit records
// gain a role (owner vs replica), and lease/release records track which
// jobs this node must run after a restart. A node's lease records are
// its own claims; the cluster-wide lease table lives in memory and is
// gossiped over ping, not journaled (see internal/cluster).

// Journal record kinds.
const (
	recSubmit  = "submit"  // a job was accepted: body is the BatchRequest
	recCkpt    = "ckpt"    // one batch entry paused: its machine snapshot follows
	recDone    = "done"    // the job finished: resp is the final response body
	recLease   = "lease"   // this node claimed/renewed ownership of the job
	recRelease = "release" // this node handed the job off (graceful drain)
)

// Submit roles. An owner submit is a job this node must run; a replica
// submit is another node's job held for failover and never queued
// locally until a lease record promotes it.
const (
	roleOwner   = "" // the zero value: pre-cluster journals are all owner
	roleReplica = "replica"
)

// verbatimJSON carries pre-rendered JSON bytes through an encode/decode
// round trip without reformatting. encoding/json rewrites a nested
// json.RawMessage — Marshal compacts it, Encoder.SetIndent re-indents
// it into the outer document — either of which would silently break the
// byte-identity promise on recorded responses once they travel inside a
// journal record or a cluster job-state push. Encoding as a base64
// string (like []byte) keeps the payload exact. Decoding still accepts
// a bare JSON value, so records written before this type existed replay
// with their old (compacted) bytes rather than erroring.
type verbatimJSON []byte

func (v verbatimJSON) MarshalJSON() ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	return json.Marshal([]byte(v))
}

func (v *verbatimJSON) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*v = nil
		return nil
	}
	if len(data) > 0 && data[0] == '"' {
		var b []byte
		if err := json.Unmarshal(data, &b); err != nil {
			return err
		}
		*v = b
		return nil
	}
	// Legacy record: the value was stored as an inline JSON document.
	*v = append([]byte(nil), data...)
	return nil
}

// journalRecord is one WAL line's JSON payload.
type journalRecord struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	// ID is the job id ("b-" + hash of the idempotency key).
	ID string `json:"id"`
	// Key is the client's idempotency key (submit records).
	Key string `json:"key,omitempty"`
	// Body is the submitted BatchRequest (submit records).
	Body json.RawMessage `json:"body,omitempty"`
	// Job is the batch entry index a checkpoint belongs to.
	Job int `json:"job,omitempty"`
	// Gen is a checkpoint's restart generation (see JobCheckpoint).
	Gen int `json:"gen,omitempty"`
	// Cycle is the simulation cycle the snapshot was taken at.
	Cycle int64 `json:"cycle,omitempty"`
	// Snap is the machine snapshot (ckpt records). append writes it
	// raw after the JSON line and records only SnapLen.
	Snap []byte `json:"-"`
	// SnapLen is the length of the raw snapshot after the JSON line.
	SnapLen int `json:"snap_len,omitempty"`
	// Resp is the final response body, stored verbatim (base64, see
	// verbatimJSON) so a replayed job serves bytes identical to the
	// original (done records).
	Resp verbatimJSON `json:"resp,omitempty"`
	// Role marks a submit as owner ("") or replica (cluster mode).
	Role string `json:"role,omitempty"`
	// Node is the cluster node id writing a lease/release record.
	Node string `json:"node,omitempty"`
	// TTLMS is the lease validity window of a lease record.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Tenant attributes a submit record for accounting and fair-share.
	Tenant string `json:"tenant,omitempty"`
	// Usage is the per-tenant usage delta this job accrued (done
	// records). Replay restores it, so accounting survives a crash.
	Usage *TenantUsage `json:"usage,omitempty"`
}

// JobCheckpoint is the latest persisted pause point of one batch entry.
// Gen counts the times the entry reran from cycle 0 because its
// checkpoint did not restore: a checkpoint of a later generation
// supersedes one of an earlier generation, whatever their cycles.
type JobCheckpoint struct {
	Gen   int
	Cycle int64
	Snap  []byte
}

// supersedes reports whether checkpoint c is a later resume point of
// its entry than prev: a later generation, or a higher cycle in the
// same one.
func (c JobCheckpoint) supersedes(prev JobCheckpoint) bool {
	if c.Gen != prev.Gen {
		return c.Gen > prev.Gen
	}
	return c.Cycle > prev.Cycle
}

// ReplayedJob is one job reconstructed from the journal.
type ReplayedJob struct {
	ID   string
	Key  string
	Body json.RawMessage
	// Tenant is the submitting tenant (empty on pre-tenancy journals;
	// the manager maps that to DefaultTenant).
	Tenant string
	// Resp is non-nil iff the job completed before the restart.
	Resp []byte
	// Usage is the accounting delta recorded with the done record, nil
	// for unfinished jobs and pre-tenancy journals.
	Usage *TenantUsage
	// Ckpts holds, per batch entry index, the latest checkpoint of an
	// unfinished job; resuming from it skips the already-simulated
	// cycles without changing a byte of the outcome.
	Ckpts map[int]JobCheckpoint
	// Events is the checkpoint event history in journal order — every
	// ckpt record's (entry, cycle), not just the latest per entry — so
	// an SSE subscriber of a replayed job can be caught up exactly.
	Events []JobEvent
	// Owned reports whether this node must run the job: true for owner
	// submits and after a lease record, false for replica submits and
	// after a release record (the latest ownership record wins). A
	// pre-cluster journal, which has only owner submits, replays with
	// every job owned — exactly the old behavior.
	Owned bool
}

// Journal is the append side of the WAL. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	seq    uint64
	closed bool
	buf    []byte // the record being framed, reused across appends
}

// OpenJournal opens (creating if needed) the journal at path, replays
// every valid record, truncates a torn tail, and returns the journal
// positioned for appending plus the replayed jobs in submit order.
func OpenJournal(path string) (*Journal, []*ReplayedJob, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	j := &Journal{f: f}
	jobs, valid, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	for _, job := range jobs {
		if job.lastSeq > j.seq {
			j.seq = job.lastSeq
		}
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: truncate journal tail: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("serve: seek journal: %w", err)
	}
	out := make([]*ReplayedJob, len(jobs))
	for i, job := range jobs {
		out[i] = &job.ReplayedJob
	}
	return j, out, nil
}

// replayedJob carries replay bookkeeping alongside the public view.
type replayedJob struct {
	ReplayedJob
	lastSeq uint64
}

// replay scans the journal from the start and folds records into
// per-job state. It returns the jobs in submit order and the byte
// offset of the end of the last valid record.
func replay(f *os.File) ([]*replayedJob, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("serve: stat journal: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, 0, fmt.Errorf("serve: seek journal: %w", err)
	}
	var (
		jobs  []*replayedJob
		byID  = make(map[string]*replayedJob)
		valid int64
	)
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		rec, n, err := readRecord(r, st.Size()-valid)
		if err != nil {
			if err == errBadRecord {
				break // torn or corrupt tail: everything after is suspect
			}
			return nil, 0, fmt.Errorf("serve: read journal: %w", err)
		}
		valid += n
		switch rec.Kind {
		case recSubmit:
			if _, dup := byID[rec.ID]; dup {
				continue // resubmit of a known key; first submit wins
			}
			job := &replayedJob{
				ReplayedJob: ReplayedJob{ID: rec.ID, Key: rec.Key, Body: rec.Body,
					Tenant: rec.Tenant,
					Ckpts:  make(map[int]JobCheckpoint), Owned: rec.Role != roleReplica},
				lastSeq: rec.Seq,
			}
			byID[rec.ID] = job
			jobs = append(jobs, job)
		case recCkpt:
			if job := byID[rec.ID]; job != nil {
				// Snapless ckpt records are event-history backfill (cluster
				// fold of a transferred stream): they extend the event
				// sequence but are not resume points.
				if len(rec.Snap) > 0 && job.Ckpts != nil {
					job.Ckpts[rec.Job] = JobCheckpoint{Gen: rec.Gen, Cycle: rec.Cycle, Snap: rec.Snap}
				}
				job.Events = append(job.Events, JobEvent{Entry: rec.Job, Cycle: rec.Cycle})
				job.lastSeq = rec.Seq
			}
		case recDone:
			if job := byID[rec.ID]; job != nil {
				job.Resp = rec.Resp
				job.Usage = rec.Usage
				job.Ckpts = nil // no resume needed
				job.lastSeq = rec.Seq
			}
		case recLease:
			// A lease in our own journal means we claimed the job
			// (adoption after a peer death, or run-start/renewal).
			if job := byID[rec.ID]; job != nil {
				job.Owned = true
				job.lastSeq = rec.Seq
			}
		case recRelease:
			// We handed the job off during a drain: it is a replica now
			// and must not re-queue on restart (the claimant runs it).
			if job := byID[rec.ID]; job != nil {
				job.Owned = false
				job.lastSeq = rec.Seq
			}
		}
	}
	return jobs, valid, nil
}

// errBadRecord ends replay: the journal holds no further whole record.
var errBadRecord = errors.New("serve: torn or corrupt journal record")

// readRecord reads and verifies one record — its line and, for a ckpt
// record with a raw snapshot, the snapshot and its closing newline —
// of at most rem bytes. It returns the record and its length in the
// file, errBadRecord at the end of the journal's valid prefix (EOF, a
// torn tail, bad framing, JSON or CRC), or a read error.
func readRecord(r *bufio.Reader, rem int64) (rec journalRecord, n int64, err error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		if err == io.EOF {
			return rec, 0, errBadRecord
		}
		return rec, 0, err
	}
	n = int64(len(line))
	line = line[:len(line)-1]
	if len(line) < 10 || line[8] != ' ' {
		return rec, 0, errBadRecord
	}
	want, perr := strconv.ParseUint(string(line[:8]), 16, 32)
	payload := line[9:]
	if perr != nil || json.Unmarshal(payload, &rec) != nil {
		return rec, 0, errBadRecord
	}
	sum := crc32.ChecksumIEEE(payload)
	if rec.SnapLen != 0 {
		// The length is unverified until the CRC is: bound it by the
		// bytes the file still holds before allocating for it.
		if rec.Kind != recCkpt || rec.SnapLen < 0 || int64(rec.SnapLen) >= rem-n {
			return rec, 0, errBadRecord
		}
		raw := make([]byte, rec.SnapLen+1)
		if _, err := io.ReadFull(r, raw); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return rec, 0, errBadRecord
			}
			return rec, 0, err
		}
		if raw[rec.SnapLen] != '\n' {
			return rec, 0, errBadRecord
		}
		rec.Snap = raw[:rec.SnapLen]
		sum = crc32.Update(sum, crc32.IEEETable, rec.Snap)
		n += int64(len(raw))
	}
	if sum != uint32(want) {
		return rec, 0, errBadRecord
	}
	return rec, n, nil
}

// append writes one record: marshal, frame, write, fsync. A ckpt
// record's snapshot goes raw after the JSON line. The fsync per record
// is the durability contract — a submit that was 202'd to the client
// survives any later crash.
func (j *Journal) append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("serve: journal closed")
	}
	j.seq++
	rec.Seq = j.seq
	rec.SnapLen = len(rec.Snap)
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: marshal journal record: %w", err)
	}
	sum := crc32.Update(crc32.ChecksumIEEE(payload), crc32.IEEETable, rec.Snap)
	line := fmt.Appendf(j.buf[:0], "%08x ", sum)
	line = append(line, payload...)
	line = append(line, '\n')
	if len(rec.Snap) > 0 {
		line = append(line, rec.Snap...)
		line = append(line, '\n')
	}
	j.buf = line
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("serve: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("serve: sync journal: %w", err)
	}
	return nil
}

// AppendSubmit journals an accepted job before it is acknowledged.
// tenant attributes the job for accounting ("" = pre-tenancy default).
func (j *Journal) AppendSubmit(id, key, tenant string, body json.RawMessage) error {
	return j.append(journalRecord{Kind: recSubmit, ID: id, Key: key, Tenant: tenant, Body: body})
}

// AppendReplicaSubmit journals another node's job held for failover:
// replayed as a non-owned replica, never queued until a lease record
// promotes it.
func (j *Journal) AppendReplicaSubmit(id, key, tenant string, body json.RawMessage) error {
	return j.append(journalRecord{Kind: recSubmit, ID: id, Key: key, Tenant: tenant, Body: body, Role: roleReplica})
}

// AppendLease journals ownership of a job by node: written when a run
// starts, on every renewal heartbeat while it runs, and when a replica
// is promoted by failover claim or drain handoff.
func (j *Journal) AppendLease(id, node string, ttl time.Duration) error {
	return j.append(journalRecord{Kind: recLease, ID: id, Node: node, TTLMS: ttl.Milliseconds()})
}

// AppendRelease journals that node handed the job off to another owner
// (graceful drain); on replay the job demotes to a replica.
func (j *Journal) AppendRelease(id, node string) error {
	return j.append(journalRecord{Kind: recRelease, ID: id, Node: node})
}

// AppendCkpt journals a checkpoint of batch entry jobIdx's first run
// (generation 0).
func (j *Journal) AppendCkpt(id string, jobIdx int, cycle int64, snap []byte) error {
	return j.AppendCheckpoint(id, jobIdx, JobCheckpoint{Cycle: cycle, Snap: snap})
}

// AppendCheckpoint journals one batch entry's checkpoint with its
// restart generation.
func (j *Journal) AppendCheckpoint(id string, entry int, c JobCheckpoint) error {
	return j.append(journalRecord{Kind: recCkpt, ID: id, Job: entry, Gen: c.Gen, Cycle: c.Cycle, Snap: c.Snap})
}

// AppendDone journals a job's final response body plus the usage delta
// it accrued (nil when unknown, e.g. a replicated finish — the node
// that ran the cycles did the accounting).
func (j *Journal) AppendDone(id string, resp []byte, usage *TenantUsage) error {
	return j.append(journalRecord{Kind: recDone, ID: id, Resp: resp, Usage: usage})
}

// Close fsyncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
