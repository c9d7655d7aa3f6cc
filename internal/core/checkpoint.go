package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/frameio"
	"repro/internal/mmapio"
	"repro/internal/store"
	"repro/internal/wal"
)

// Checkpointer periodically snapshots the platform's proprietary data
// store into a data directory and restores it on boot — the daemon
// side of the durability contract. Writes are atomic: each checkpoint
// goes to a temp file in the same directory, is fsynced, then renamed
// over the previous snapshot, so a crash mid-checkpoint leaves the
// last good snapshot in place.
//
// The snapshot uses store format v5, whose per-dataset locking means
// a running checkpoint does not block writers on other datasets.
//
// Boot maps the snapshot (internal/mmapio, which falls back to a heap
// read where mmap is unavailable) and attaches it: records and
// postings stay in the file's pages as an immutable base, writes land
// in a heap overlay and copy only the posting lists they touch, so
// time-to-serving and resident set do not scale with corpus size.
// Checkpoints always write a temp file and rename it into place, never
// rewriting in place, so a live process keeps serving from the
// replaced file's pages.
//
// Checkpoints are incremental: a frame cache shared across the
// checkpointer's lifetime means each periodic pass re-encodes only
// the datasets mutated since the previous one (dirty tracking by
// dataset version) and reuses the prior frames for clean ones. The
// on-disk format is unchanged — every snapshot file is still a
// complete, self-contained stream. The cache holds one encoded frame
// per dataset on the heap for the checkpointer's lifetime
// (CacheStats).
type Checkpointer struct {
	p        *Platform
	dir      string
	interval time.Duration
	cache    *store.FrameCache
	// Logf reports checkpoint activity (default: silent).
	Logf func(format string, args ...any)
	// MMap has no effect: every boot maps and attaches the snapshot.
	//
	// Deprecated: kept only so existing callers compile.
	MMap bool

	mu   sync.Mutex // serializes CheckpointContext calls
	stop chan struct{}
	done chan struct{}

	// wlog, when non-nil, is the write-ahead log layered under the
	// checkpoint cycle (EnableWALContext): each checkpoint rotates the
	// log first, so every record in a sealed segment is covered by the
	// snapshot taken after the rotation, and sealed segments older
	// than the PREVIOUS checkpoint's boundary are truncated — the one-
	// checkpoint lag keeps the retained prior snapshot (Path()+".1")
	// plus the remaining log a complete recovery point on its own.
	wlog *wal.Log
	// lastBoundary is the rotation boundary of the previous completed
	// checkpoint (0 = none yet). Guarded by mu.
	lastBoundary int
	// restored records that RestoreLatestContext loaded a snapshot, so
	// EnableWALContext can skip the boot checkpoint.
	restored bool
}

// NewCheckpointer prepares a checkpointer over dir, creating the
// directory if needed. interval <= 0 disables the periodic loop
// (CheckpointContext can still be called explicitly, e.g. at shutdown).
func (p *Platform) NewCheckpointer(dir string, interval time.Duration) (*Checkpointer, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: checkpointer needs a data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpointer: %w", err)
	}
	return &Checkpointer{p: p, dir: dir, interval: interval, cache: store.NewFrameCache()}, nil
}

// Path returns the snapshot file the checkpointer maintains.
func (c *Checkpointer) Path() string {
	return filepath.Join(c.dir, "store.snap")
}

// PrevPath returns the retained previous snapshot. Each checkpoint
// renames the current snapshot here before installing the new one, so
// a corrupt primary never strands the store: the previous checkpoint
// plus the write-ahead log (truncation lags one checkpoint) is a
// complete recovery point.
func (c *Checkpointer) PrevPath() string {
	return c.Path() + ".1"
}

// WALDir returns the write-ahead log directory EnableWALContext uses.
func (c *Checkpointer) WALDir() string {
	return filepath.Join(c.dir, "wal")
}

// RestoreLatestContext loads the latest usable snapshot into the
// platform's store, reporting whether a restore happened. A missing
// or corrupt primary snapshot falls back to the retained previous one
// (see PrevPath); only when both fail does boot fail. A primary in a
// format older than v5 is not corrupt: boot fails at once with
// frameio.ErrUnsupportedFormat, leaving both files in place.
// Cancelling ctx aborts the load with the store unchanged.
func (c *Checkpointer) RestoreLatestContext(ctx context.Context) (bool, error) {
	ok, err := c.restoreLatest(ctx)
	c.restored = ok && err == nil
	return ok, err
}

// restoreLatest is RestoreLatestContext without the bookkeeping.
func (c *Checkpointer) restoreLatest(ctx context.Context) (bool, error) {
	ok, err := c.restoreFrom(ctx, c.Path())
	if err == nil {
		if ok {
			return true, nil
		}
		// No primary: a crash between the retention rename and the
		// install rename leaves only the previous snapshot.
		return c.restoreFrom(ctx, c.PrevPath())
	}
	// An old-format primary is intact data this binary cannot read, not
	// damage: quarantining it and checkpointing over the fallback would
	// discard it.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, frameio.ErrUnsupportedFormat) {
		return false, err
	}
	c.logf("restore %s failed: %v; falling back to previous checkpoint", c.Path(), err)
	ok, ferr := c.restoreFrom(ctx, c.PrevPath())
	if ferr != nil {
		return false, fmt.Errorf("%w (fallback: %v)", err, ferr)
	}
	if !ok {
		return false, err // corrupt primary and nothing to fall back to
	}
	// Quarantine the corrupt primary now, before the first checkpoint:
	// the checkpoint's retention rename would otherwise move the known-
	// bad file over the good previous snapshot, and a crash between
	// that rename and the install of the new snapshot would leave the
	// next boot with nothing restorable at all. With the primary gone,
	// the retention rename is a no-op and PrevPath keeps the good
	// snapshot until the new one is installed.
	if qerr := c.quarantineBadSnapshot(); qerr != nil {
		return false, fmt.Errorf("core: restore: corrupt snapshot %s could not be quarantined: %w", c.Path(), qerr)
	}
	return true, nil
}

// quarantineBadSnapshot moves an unreadable primary snapshot aside as
// Path()+".corrupt" (kept for forensics; the next quarantine replaces
// it) and fsyncs the directory so the move survives power loss.
func (c *Checkpointer) quarantineBadSnapshot() error {
	if err := os.Rename(c.Path(), c.Path()+".corrupt"); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	c.logf("quarantined corrupt snapshot as %s", c.Path()+".corrupt")
	return syncDir(c.dir)
}

// syncDir fsyncs a directory so renames and file creations in it are
// durable against power loss, not just process crash.
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

// restoreFrom maps one snapshot file and restores the store from it;
// a missing file is (false, nil). The mapping is never unmapped, even
// when the restore fails: a partially built replacement may still
// hold views into it, and boot failure is terminal anyway.
func (c *Checkpointer) restoreFrom(ctx context.Context, path string) (bool, error) {
	m, err := mmapio.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("core: restore checkpoint: %w", err)
	}
	if err := c.p.Store.RestoreContext(ctx, m.Data()); err != nil {
		return false, fmt.Errorf("core: restore checkpoint %s: %w", path, err)
	}
	kind := "heap-backed"
	if m.Mapped() {
		kind = "mmap-backed"
	}
	c.logf("restored store from %s (%s, %d bytes)", path, kind, m.Len())
	// A dataset keeps the shard count its snapshot was written with,
	// unless the store fixes one (Config.ShardTarget) and the two
	// differ, which reshards it onto the heap; log each layout so the
	// boot log shows which happened.
	for _, st := range c.p.Store.Status() {
		c.logf("restored %s/%s: %d records in %d shards (ring gen %d, %d shards and %d bytes mapped)",
			st.Tenant, st.Dataset, st.Records, st.Shards, st.RingGen, st.MappedShards, st.MappedBytes)
	}
	return true, nil
}

// EnableWALContext layers a write-ahead log under the checkpoint
// cycle. Call it after RestoreLatestContext: it replays the log tail
// over the restored state (records already in the snapshot re-apply
// idempotently; runs of puts go through the store's batched write
// path), opens a fresh log generation and attaches it to the store so
// every subsequent acknowledged write is logged. From here on, boot
// recovers to the last acknowledged write — not just the last
// checkpoint — under the chosen fsync policy.
//
// Only a boot that restored nothing — a fresh data dir, whose seeded
// state exists in memory alone — writes a checkpoint before
// returning. After a restore the snapshot on disk plus the kept log
// segments is already a complete recovery point (truncation lags one
// checkpoint), so the platform serves as soon as the tail is replayed;
// a crash before the next checkpoint replays the same tail again. The
// periodic loop takes that checkpoint; a checkpointer without one
// (interval <= 0) leaves it to the caller, or the log and its replay
// grow with every crash until a clean shutdown.
//
// Writes made between RestoreLatestContext and EnableWALContext are
// not logged; after a restore they are durable only from the next
// checkpoint.
func (c *Checkpointer) EnableWALContext(ctx context.Context, opts wal.Options) (wal.ReplayStats, error) {
	st, err := c.p.Store.ReplayContext(ctx, c.WALDir())
	if err != nil {
		// Includes wal.ErrDamagedHistory: damage in a sealed segment
		// with acked writes beyond it fails boot loudly instead of
		// checkpointing over the hole and making the loss permanent.
		return st, fmt.Errorf("core: wal replay: %w", err)
	}
	if st.Records > 0 || st.Torn {
		c.logf("wal replay: %d records applied, %d skipped, %d segments (torn=%v)",
			st.Applied, st.Skipped, st.Segments, st.Torn)
	}
	// Seal a torn tail before opening the next segment: once a newer
	// segment exists, replay can no longer tell this crash tear from
	// media damage in acked history, and would refuse to boot.
	if st.Torn {
		if err := wal.SealTornTail(st); err != nil {
			return st, fmt.Errorf("core: wal: %w", err)
		}
		c.logf("wal: sealed torn tail: %s truncated to %d bytes", st.TornSegment, st.TornOffset)
	}
	l, err := wal.Open(c.WALDir(), opts)
	if err != nil {
		return st, fmt.Errorf("core: wal open: %w", err)
	}
	c.wlog = l
	c.p.Store.AttachWAL(l)
	if c.restored {
		return st, nil
	}
	if err := c.CheckpointContext(ctx); err != nil {
		return st, err
	}
	return st, nil
}

// WAL returns the attached write-ahead log (nil before
// EnableWALContext), for operator stats.
func (c *Checkpointer) WAL() *wal.Log {
	return c.wlog
}

// CacheStats reports the checkpointer's frame cache: the encoded
// dataset frames it keeps on the heap between checkpoints, and how
// often they were reused.
func (c *Checkpointer) CacheStats() store.FrameCacheStats {
	return c.cache.Stats()
}

// CheckpointContext writes one snapshot now: temp file, fsync, atomic
// rename. Concurrent calls serialize. Only datasets mutated since
// the previous checkpoint are re-encoded; clean ones reuse their
// cached frames (the file is still a complete snapshot either way).
// Cancelling ctx abandons the temp file; the previous snapshot stays
// good (the atomic-rename contract is what makes aborting safe).
func (c *Checkpointer) CheckpointContext(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Rotate the log BEFORE snapshotting: every record in a sealed
	// segment was applied to memory before its append (same dataset
	// lock), so the snapshot about to be taken covers all of them and
	// the sealed history becomes truncatable — one checkpoint later.
	boundary := 0
	if c.wlog != nil {
		b, err := c.wlog.Rotate()
		if err != nil {
			// A failed log cannot rotate; the snapshot itself is still
			// the durability path, so checkpoint anyway, never truncate.
			c.logf("wal rotate failed: %v", err)
		} else {
			boundary = b
		}
	}
	f, err := os.CreateTemp(c.dir, "store-*.tmp")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	before := c.cache.Stats()
	if err := c.p.Store.SnapshotContext(ctx, f, store.WithFrameCache(c.cache)); err != nil {
		return fail(err)
	}
	after := c.cache.Stats()
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	// Retain the previous snapshot before installing the new one: the
	// corrupt-primary fallback in RestoreLatestContext depends on it.
	if err := os.Rename(c.Path(), c.PrevPath()); err != nil && !os.IsNotExist(err) {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: retain previous: %w", err)
	}
	if err := os.Rename(tmp, c.Path()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	// Fsync the directory too: the renames themselves must survive
	// power loss before the checkpoint counts as durable (and before
	// the WAL history they supersede is truncated below).
	if err := syncDir(c.dir); err != nil {
		return fmt.Errorf("core: checkpoint: sync dir: %w", err)
	}
	c.logf("checkpoint written to %s (%d frames re-encoded, %d reused)",
		c.Path(), after.Misses-before.Misses, after.Hits-before.Hits)
	// Truncate WAL history one checkpoint behind: the snapshot just
	// written needs segments >= boundary; the retained previous one
	// needs segments >= lastBoundary. Everything older is garbage.
	if c.wlog != nil && boundary > 0 {
		if c.lastBoundary > 0 {
			if err := c.wlog.TruncateBefore(c.lastBoundary); err != nil {
				c.logf("wal truncate failed: %v", err)
			}
		}
		c.lastBoundary = boundary
	}
	return nil
}

// Start launches the periodic checkpoint loop. A checkpointer starts
// at most once; CloseContext stops it.
func (c *Checkpointer) Start() {
	if c.interval <= 0 || c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := c.CheckpointContext(context.Background()); err != nil {
					c.logf("checkpoint failed: %v", err)
				}
			case <-c.stop:
				return
			}
		}
	}()
}

// CloseContext stops the periodic loop and writes a final checkpoint,
// so a graceful shutdown never loses acknowledged writes. ctx bounds
// the final snapshot: a daemon given a shutdown deadline stops
// encoding mid-pass and keeps the previous checkpoint instead of
// hanging past its grace period.
// A WAL attached by EnableWALContext is closed after the final
// checkpoint — even a failed final snapshot loses nothing, because
// the closed log retains every acknowledged write for replay.
func (c *Checkpointer) CloseContext(ctx context.Context) error {
	if c.stop != nil {
		close(c.stop)
		<-c.done
		c.stop, c.done = nil, nil
	}
	err := c.CheckpointContext(ctx)
	if c.wlog != nil {
		if cerr := c.wlog.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("core: close wal: %w", cerr)
		}
		c.wlog = nil
	}
	return err
}

func (c *Checkpointer) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
