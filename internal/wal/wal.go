// Package wal implements the write-ahead log under the store's
// checkpoint cycle: every acknowledged mutation is appended as a
// CRC-framed record (internal/frameio) to an append-only segment
// file, so recovery is restore-latest-snapshot plus replay-WAL-tail
// instead of losing everything since the last checkpoint.
//
// Durability policy is explicit. PolicyAlways fsyncs before a write
// is acknowledged; PolicyGroup batches concurrent commits into one
// fsync (bounded by a pending row count and a max-latency window) —
// the classic group commit that turns thousands of writers into tens of
// fsyncs; PolicyInterval acknowledges immediately and fsyncs on a
// timer, trading a bounded loss window for throughput.
//
// The log is segmented: each Open and each Rotate starts a new
// numbered segment file, and a completed checkpoint truncates
// segments older than the previous checkpoint boundary (two
// checkpoints of history, so recovery can fall back to the previous
// snapshot if the latest is damaged). Starting a fresh segment on
// every Open means appends never land after a torn tail left by a
// crash — the damaged segment is read-only history from then on.
//
// Failure model: the first append or fsync error latches the log
// into a failed state. Subsequent writes fail fast with a
// *WriteError; readers of the store are unaffected and keep serving
// the last durable state. A failed log never acknowledges a write it
// did not sync.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frameio"
)

// Policy selects when an appended record is fsynced relative to its
// acknowledgment.
type Policy string

// The three fsync policies.
const (
	// PolicyAlways fsyncs before acknowledging. Concurrent appends
	// arriving during an in-flight fsync still coalesce into the next
	// one, so "always" is group commit with a zero wait window.
	PolicyAlways Policy = "always"
	// PolicyGroup acknowledges after the batch fsync that covers the
	// record: the committer syncs when GroupBatch rows are pending or
	// the oldest has waited GroupWait, whichever comes first. A record
	// weighs its row count, so a large put-batch syncs at once while
	// small concurrent puts still coalesce.
	PolicyGroup Policy = "group"
	// PolicyInterval acknowledges immediately and fsyncs every
	// Interval; a crash loses at most the last window of acked writes.
	PolicyInterval Policy = "interval"
)

// ParsePolicy validates a policy name from a flag.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyAlways, PolicyGroup, PolicyInterval:
		return Policy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, group or interval)", s)
}

// Options configures a Log.
type Options struct {
	// Policy is the fsync policy (default PolicyGroup).
	Policy Policy
	// GroupBatch is the pending row count that triggers a group fsync
	// (default 128). PolicyGroup only.
	GroupBatch int
	// GroupWait bounds how long the oldest pending append waits for
	// its batch to fill (default 2ms). PolicyGroup only.
	GroupWait time.Duration
	// Interval is the background fsync period for PolicyInterval
	// (default 100ms).
	Interval time.Duration
	// InjectFault, when non-nil, is consulted before disk operations
	// ("append", "sync", "rotate") and its error is treated as the
	// disk failing. Torture tests only.
	InjectFault func(op string) error
}

func (o Options) withDefaults() Options {
	if o.Policy == "" {
		o.Policy = PolicyGroup
	}
	if o.GroupBatch <= 0 {
		o.GroupBatch = 128
	}
	if o.GroupWait <= 0 {
		o.GroupWait = 2 * time.Millisecond
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// Record ops. The store appends all of these but OpPut, which logs
// written before a single put became a one-row put-batch hold; Replay
// hands every op back for idempotent re-application.
const (
	OpPut           = "put"
	OpDelete        = "delete"
	OpCreateTenant  = "create-tenant"
	OpCreateDataset = "create-dataset"
	OpDropDataset   = "drop-dataset"
	OpGrant         = "grant"
	OpRevoke        = "revoke"
	OpSetQuota      = "set-quota"
	OpPutBatch      = "put-batch"
)

// Record is one logged mutation. Fields are a union over the ops:
// put carries Rec, put-batch carries Puts (one write's rows, applied
// and replayed all or nothing), create-dataset carries Schema (the
// store's schema JSON, opaque to this package), grant carries Actor
// and Perm, and so on. Seq is assigned by Append and is strictly
// increasing within one process lifetime; replay order is file order,
// not Seq.
type Record struct {
	Seq     uint64
	Op      string
	Tenant  string
	Actor   string
	Dataset string
	ID      string
	Rec     map[string]string
	Schema  json.RawMessage
	Perm    string
	N       int
	Puts    []Put
}

// Put is one row of a put-batch record.
type Put struct {
	ID  string
	Rec map[string]string
}

// rows is the record's group-commit weight and its count in Stats and
// ReplayStats: a put-batch counts its rows, every other record one.
func (r *Record) rows() int {
	if r.Op == OpPutBatch {
		return len(r.Puts)
	}
	return 1
}

// WriteError is the typed error surfaced to writers once the log has
// failed (disk error on append or fsync). The store keeps serving
// reads; writes report this until the operator replaces the disk and
// restarts.
type WriteError struct {
	Op    string // "append", "sync", "rotate", "closed"
	Cause error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("wal: log unavailable (%s): %v", e.Op, e.Cause)
}

func (e *WriteError) Unwrap() error { return e.Cause }

// segmentMagic starts every segment this package writes: its frames
// hold binary records (codec.go). segmentMagicV1 marks the format
// before it, whose frames held JSON records; replay refuses it with
// frameio.ErrUnsupportedFormat instead of reading the segment as torn
// at offset zero, which SealTornTail would truncate to nothing.
const (
	segmentMagic   = "SYMWAL2\n"
	segmentMagicV1 = "SYMWAL1\n"
)

// segmentName formats the file name of segment n.
func segmentName(n int) string { return fmt.Sprintf("wal-%08d.log", n) }

// parseSegmentName extracts the segment number, reporting whether
// the name is a WAL segment at all.
func parseSegmentName(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &n); err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		if n, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// Commit is the durability handle returned by Append: Wait blocks
// until the record is durable under the log's policy (or the log
// fails, or ctx is done). A nil *Commit waits as "immediately
// durable" so callers without a WAL can wait unconditionally.
type Commit struct {
	err  error
	done chan struct{}
}

// resolvedCommit returns an already-settled commit (interval policy,
// failed log).
func resolvedCommit(err error) *Commit { return &Commit{err: err} }

// Wait blocks until the record is durable per the log's policy and
// returns the outcome. ctx abandons the wait, not the write: the
// record may still become durable afterwards.
func (c *Commit) Wait(ctx context.Context) error {
	if c == nil || c.done == nil {
		if c != nil {
			return c.err
		}
		return nil
	}
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		return fmt.Errorf("wal: commit wait abandoned: %w", ctx.Err())
	}
}

// Stats is the operator-facing view of a log, served on /statusz.
// Appends counts rows, so a put-batch of n rows adds n.
type Stats struct {
	Policy            string `json:"policy"`
	Appends           uint64 `json:"appends"`
	AppendedSeq       uint64 `json:"appendedSeq"`
	SyncedSeq         uint64 `json:"syncedSeq"`
	Fsyncs            uint64 `json:"fsyncs"`
	BytesAppended     uint64 `json:"bytesAppended"`
	Segments          int    `json:"segments"`
	ActiveSegment     int    `json:"activeSegment"`
	TruncatedSegments uint64 `json:"truncatedSegments"`
	Failed            string `json:"failed,omitempty"`
}

// Log is an append-only, segmented write-ahead log. Safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	// ioMu serializes fsync and segment switches against each other
	// while leaving mu free, so appends keep filling the buffer while
	// an fsync is in flight. Lock order: ioMu before mu, always.
	ioMu sync.Mutex

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	seg      int   // active segment number
	segs     []int // live segment numbers, ascending (includes active)
	seq      uint64
	flushed  uint64 // highest seq written through to the OS
	synced   uint64 // highest seq known durable
	pending  []*Commit
	rowsDue  int       // rows covered by pending, the group-commit trigger
	oldest   time.Time // arrival of pending[0]
	failed   error
	closed   bool
	appends  uint64
	fsyncs   uint64
	bytes    uint64
	truncSeg uint64

	notify chan struct{}
	quit   chan struct{}
	ticker *time.Ticker // interval policy
	done   chan struct{}

	// failedFlag mirrors failed for lock-free health checks.
	failedFlag atomic.Bool
}

// Open creates (or joins) the log directory and starts a fresh
// active segment after any existing ones — a torn tail left by a
// crash stays untouched, and new appends are always reachable by
// replay. Call Replay first: Open does not read old segments.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l := &Log{
		dir:    dir,
		opts:   opts,
		seg:    next,
		segs:   append(segs, next),
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	if opts.Policy == PolicyInterval {
		l.ticker = time.NewTicker(opts.Interval)
	}
	go l.committer()
	return l, nil
}

// openSegmentLocked creates the segment file and writes its magic.
// The directory is fsynced so the new entry survives power loss: the
// file's own fsyncs make its contents durable, but on most
// filesystems only a directory fsync makes its *existence* durable,
// and an acked record in a segment whose entry vanished is a lost
// acked record. Callers hold mu (or own the log exclusively during
// Open), so the dir sync completes before any commit in the new
// segment can be acknowledged.
func (l *Log) openSegmentLocked(n int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(n)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: segment %d: %w", n, err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment %d: %w", n, err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := frameio.WriteMagic(bw, segmentMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment %d: %w", n, err)
	}
	l.f, l.bw = f, bw
	return nil
}

// syncDir fsyncs a directory, making its entries (file creations,
// renames) durable against power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the configured fsync policy.
func (l *Log) Policy() Policy { return l.opts.Policy }

// Healthy reports whether the log is accepting writes.
func (l *Log) Healthy() bool { return !l.failedFlag.Load() }

// Append serializes rec, assigns it the next sequence number and
// buffers it into the active segment. The returned Commit resolves
// when the record is durable under the policy (immediately for
// PolicyInterval). Appends on a failed or closed log resolve
// immediately with a *WriteError; a record with an unknown op
// resolves with an encoding error and leaves the log healthy. Append
// never blocks on disk. The record is encoded before the log lock is
// taken: under it run only the seq stamp, the checksum and the
// buffered write.
func (l *Log) Append(rec *Record) *Commit {
	payload, err := encodeRecord(nil, rec)
	if err != nil {
		return resolvedCommit(err)
	}
	rows := rec.rows()
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return resolvedCommit(err)
	}
	if l.closed {
		l.mu.Unlock()
		return resolvedCommit(&WriteError{Op: "closed", Cause: fmt.Errorf("log closed")})
	}
	l.seq++
	rec.Seq = l.seq
	binary.LittleEndian.PutUint64(payload, l.seq)
	if l.opts.InjectFault != nil {
		err = l.opts.InjectFault("append")
	}
	if err == nil {
		err = frameio.WriteFrame(l.bw, payload)
	}
	if err != nil {
		werr := l.failLocked("append", err)
		l.mu.Unlock()
		return resolvedCommit(werr)
	}
	l.appends += uint64(rows)
	l.bytes += uint64(len(payload)) + 12
	var c *Commit
	if l.opts.Policy == PolicyInterval {
		c = resolvedCommit(nil)
	} else {
		c = &Commit{done: make(chan struct{})}
		if len(l.pending) == 0 {
			l.oldest = time.Now()
		}
		l.pending = append(l.pending, c)
		l.rowsDue += rows
	}
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return c
}

// failLocked latches the log failed, resolves every pending commit
// with the error and returns the typed error. Callers hold mu.
func (l *Log) failLocked(op string, cause error) error {
	werr := &WriteError{Op: op, Cause: cause}
	if l.failed == nil {
		l.failed = werr
		l.failedFlag.Store(true)
		for _, c := range l.pending {
			c.err = werr
			close(c.done)
		}
		l.pending, l.rowsDue = nil, 0
	}
	return l.failed
}

// committer is the single goroutine that turns pending appends into
// fsyncs under the configured policy.
func (l *Log) committer() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.ticker != nil {
		tick = l.ticker.C
	}
	for {
		select {
		case <-l.quit:
			return
		case <-tick:
			l.syncNow()
		case <-l.notify:
			l.drainPending()
		}
	}
}

// drainPending syncs batches until no commit is pending, honoring
// the group window.
func (l *Log) drainPending() {
	for {
		l.mu.Lock()
		if len(l.pending) == 0 || l.failed != nil {
			l.mu.Unlock()
			return
		}
		var wait time.Duration
		if l.opts.Policy == PolicyGroup && l.rowsDue < l.opts.GroupBatch {
			if elapsed := time.Since(l.oldest); elapsed < l.opts.GroupWait {
				wait = l.opts.GroupWait - elapsed
			}
		}
		l.mu.Unlock()
		if wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-l.quit:
				timer.Stop()
				return
			case <-l.notify:
				// More appends arrived; re-evaluate the batch size.
				timer.Stop()
			case <-timer.C:
			}
			continue
		}
		l.syncNow()
	}
}

// syncNow flushes the buffer and fsyncs, resolving every commit
// covered by the sync. The fsync itself runs outside mu so appends
// keep buffering; ioMu keeps it ordered against rotation.
func (l *Log) syncNow() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if len(l.pending) == 0 && l.seq == l.synced {
		// Nothing new since the last sync (idle interval tick).
		l.mu.Unlock()
		return nil
	}
	batch := l.pending
	l.pending, l.rowsDue = nil, 0
	covered := l.seq
	err := l.bw.Flush()
	if err == nil && l.opts.InjectFault != nil {
		err = l.opts.InjectFault("sync")
	}
	if err != nil {
		werr := l.failLocked("sync", err)
		for _, c := range batch {
			c.err = werr
			close(c.done)
		}
		l.mu.Unlock()
		return werr
	}
	l.flushed = covered
	f := l.f
	l.mu.Unlock()

	serr := f.Sync()

	l.mu.Lock()
	if serr != nil {
		werr := l.failLocked("sync", serr)
		for _, c := range batch {
			c.err = werr
			close(c.done)
		}
		l.mu.Unlock()
		return werr
	}
	if covered > l.synced {
		l.synced = covered
	}
	l.fsyncs++
	l.mu.Unlock()
	for _, c := range batch {
		close(c.done)
	}
	return nil
}

// Sync forces everything appended so far onto disk and waits for it.
// An explicit barrier for shutdown paths and tests.
func (l *Log) Sync() error { return l.syncNow() }

// Rotate seals the active segment (flush + fsync + close) and starts
// the next one, returning the new active segment's number: every
// record appended before Rotate returned lives in a segment below
// the boundary. The checkpointer rotates before each snapshot so a
// completed checkpoint can truncate sealed history.
func (l *Log) Rotate() (boundary int, err error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	if l.closed {
		return 0, &WriteError{Op: "closed", Cause: fmt.Errorf("log closed")}
	}
	batch := l.pending
	l.pending, l.rowsDue = nil, 0
	covered := l.seq
	err = l.bw.Flush()
	if err == nil && l.opts.InjectFault != nil {
		err = l.opts.InjectFault("rotate")
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		werr := l.failLocked("rotate", err)
		for _, c := range batch {
			c.err = werr
			close(c.done)
		}
		return 0, werr
	}
	if covered > l.synced {
		l.synced = covered
	}
	l.flushed = covered
	l.fsyncs++
	l.f.Close()
	next := l.seg + 1
	if err := l.openSegmentLocked(next); err != nil {
		werr := l.failLocked("rotate", err)
		for _, c := range batch {
			c.err = werr
			close(c.done)
		}
		return 0, werr
	}
	l.seg = next
	l.segs = append(l.segs, next)
	for _, c := range batch {
		close(c.done)
	}
	return next, nil
}

// ActiveSegment returns the number of the segment currently
// receiving appends.
func (l *Log) ActiveSegment() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// TruncateBefore deletes sealed segments numbered below boundary.
// The checkpointer calls it after a completed checkpoint with the
// boundary of the checkpoint before it, keeping two checkpoints of
// replayable history for snapshot-fallback recovery. Removal errors
// are returned but non-fatal: an un-truncated segment costs disk,
// not correctness (replay is idempotent).
func (l *Log) TruncateBefore(boundary int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	kept := l.segs[:0]
	for _, n := range l.segs {
		if n >= boundary || n == l.seg {
			kept = append(kept, n)
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segmentName(n))); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = err
			}
			kept = append(kept, n)
			continue
		}
		l.truncSeg++
	}
	l.segs = kept
	return firstErr
}

// Stats returns a point-in-time operator view.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Policy:            string(l.opts.Policy),
		Appends:           l.appends,
		AppendedSeq:       l.seq,
		SyncedSeq:         l.synced,
		Fsyncs:            l.fsyncs,
		BytesAppended:     l.bytes,
		Segments:          len(l.segs),
		ActiveSegment:     l.seg,
		TruncatedSegments: l.truncSeg,
	}
	if l.failed != nil {
		st.Failed = l.failed.Error()
	}
	return st
}

// Close stops the committer, syncs everything appended and closes
// the active segment. Pending commits resolve (successfully if the
// final sync succeeds). Safe to call once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	close(l.quit)
	<-l.done
	if l.ticker != nil {
		l.ticker.Stop()
	}
	err := l.syncNow()
	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if _, ok := err.(*WriteError); ok && l.failed != nil {
		// Close after a failure reports the original failure.
		return l.failed
	}
	return err
}
