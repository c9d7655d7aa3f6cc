package store

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/wal"
)

// Write-ahead logging for the store.
//
// Every acknowledged mutation — record puts and deletes as well as
// the DDL surface (tenants, datasets, grants, quotas) — is appended
// to the attached log under the same lock that applied it to memory,
// so log order agrees with apply order for any single key. The append
// itself never blocks on disk; callers wait on the returned commit
// AFTER releasing the lock, so an fsync stalls only the writers that
// need the acknowledgment, never the whole store.
//
// Boot order is restore-snapshot, ReplayContext, then AttachWAL:
// replay runs with no log attached, so re-applying history can never
// re-log it. Replay batches runs of puts through the same index write
// path uploads use, which is what keeps a long log tail cheap to boot.

// AttachWAL attaches l to the store: every subsequent acknowledged
// mutation is appended to it. Attach after restore + replay, before
// serving traffic. A nil log detaches (writes stop logging).
func (s *Store) AttachWAL(l *wal.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = l
	for id, t := range s.tenants {
		for _, ds := range t.datasets {
			ds.bindWAL(l, id)
		}
	}
}

// walAppendLocked appends rec to the attached log, if any. Callers
// hold s.mu so the log observes DDL in apply order; they wait on the
// returned commit after releasing it. A nil return (no log) waits as
// an immediate success.
func (s *Store) walAppendLocked(rec *wal.Record) *wal.Commit {
	if s.wal == nil {
		return nil
	}
	return s.wal.Append(rec)
}

// replayBatchMax caps a run of buffered puts at one upload batch, so
// replay memory stays bounded however long the log tail is.
const replayBatchMax = 1024

// ReplayContext replays the write-ahead log in dir over the store, the
// boot step between restore and AttachWAL. Application is idempotent —
// a record already reflected in the restored snapshot converges to the
// same state — and never re-logs (boot attaches the log only after
// replay). Records whose target tenant or dataset does not exist are
// skipped via wal.ErrSkipRecord: the only way to log one is a racing
// drop whose outcome was ambiguous when the crash hit, and the drop won.
//
// Consecutive puts into one dataset go through the batched write path
// the uploads use: they are buffered (the dataset is looked up when a
// put is buffered, so Applied and Skipped count exactly as per-record
// replay would) and flushed as one index batch on any other op, a
// change of dataset, replayBatchMax buffered puts, or the end of the
// log. The result is identical to applying every record alone. ctx is
// checked before each flush.
func (s *Store) ReplayContext(ctx context.Context, dir string) (wal.ReplayStats, error) {
	var run putRun
	st, err := wal.Replay(dir, func(rec *wal.Record) error {
		if rec.Op != wal.OpPut {
			if err := run.flush(ctx); err != nil {
				return err
			}
			return s.applyRecord(rec)
		}
		ds, ok := s.lookupDataset(rec.Tenant, rec.Dataset)
		if !ok {
			return wal.ErrSkipRecord
		}
		if ds != run.ds || len(run.recs) == replayBatchMax {
			if err := run.flush(ctx); err != nil {
				return err
			}
			run.ds = ds
		}
		run.recs = append(run.recs, rec)
		return nil
	})
	// Puts buffered before a replay error (damaged history) still land,
	// as they would have one by one; the error is still reported.
	if ferr := run.flush(ctx); err == nil {
		err = ferr
	}
	return st, err
}

// putRun is the replay buffer: consecutive logged puts into ds.
type putRun struct {
	ds   *Dataset
	recs []*wal.Record
}

// flush applies the buffered puts and empties the buffer, even on
// error.
func (r *putRun) flush(ctx context.Context) error {
	if len(r.recs) == 0 {
		return nil
	}
	recs := r.recs
	r.recs = r.recs[:0]
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.ds.applyPuts(ctx, recs)
}

// applyRecord applies one replayed record other than a put.
func (s *Store) applyRecord(rec *wal.Record) error {
	switch rec.Op {
	case wal.OpCreateTenant:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.tenants[rec.Tenant]; !ok {
			s.tenants[rec.Tenant] = &tenant{
				owner:    rec.Actor,
				datasets: make(map[string]*Dataset),
				grants:   make(map[string]Permission),
			}
		}
		return nil
	case wal.OpCreateDataset:
		var sch Schema
		if err := json.Unmarshal(rec.Schema, &sch); err != nil {
			return fmt.Errorf("store: replay create-dataset %s/%s: %w", rec.Tenant, rec.Dataset, err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tenants[rec.Tenant]
		if !ok {
			return wal.ErrSkipRecord
		}
		if _, ok := t.datasets[sch.Name]; !ok {
			ds := newDataset(sch, s.shardTarget, s.cache)
			t.datasets[sch.Name] = ds
			if t.quota > 0 {
				ds.setQuotaCheck(usageExcluding(t, ds), t.quota)
			}
		}
		return nil
	case wal.OpDropDataset:
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tenants[rec.Tenant]
		if !ok {
			return wal.ErrSkipRecord
		}
		delete(t.datasets, rec.Dataset)
		return nil
	case wal.OpGrant:
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tenants[rec.Tenant]
		if !ok {
			return wal.ErrSkipRecord
		}
		t.grants[rec.ID] = Permission(rec.Perm)
		return nil
	case wal.OpRevoke:
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tenants[rec.Tenant]
		if !ok {
			return wal.ErrSkipRecord
		}
		delete(t.grants, rec.ID)
		return nil
	case wal.OpSetQuota:
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tenants[rec.Tenant]
		if !ok {
			return wal.ErrSkipRecord
		}
		t.quota = rec.N
		for _, ds := range t.datasets {
			ds.setQuotaCheck(usageExcluding(t, ds), rec.N)
		}
		return nil
	case wal.OpDelete:
		ds, ok := s.lookupDataset(rec.Tenant, rec.Dataset)
		if !ok {
			return wal.ErrSkipRecord
		}
		ds.applyDelete(rec.ID)
		return nil
	default:
		return fmt.Errorf("store: replay: unknown wal op %q (seq %d)", rec.Op, rec.Seq)
	}
}

// lookupDataset fetches a dataset without access checks, for replay:
// the logged write was authorized when it was first acknowledged.
func (s *Store) lookupDataset(tenantID, name string) (*Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[tenantID]
	if !ok {
		return nil, false
	}
	ds, ok := t.datasets[name]
	return ds, ok
}

// bindWAL wires the log and owning-tenant name into the dataset so
// puts and deletes can build their own records.
func (d *Dataset) bindWAL(l *wal.Log, tenantID string) {
	d.mu.Lock()
	d.wlog = l
	d.walTenant = tenantID
	d.mu.Unlock()
}

// walAppendLocked appends a put/delete record for this dataset.
// Callers hold d.mu (apply order = log order per key) and wait on the
// commit after releasing it.
func (d *Dataset) walAppendLocked(rec *wal.Record) *wal.Commit {
	if d.wlog == nil {
		return nil
	}
	rec.Tenant = d.walTenant
	rec.Dataset = d.schema.Name
	return d.wlog.Append(rec)
}

// applyPuts installs a run of replayed puts under their logged IDs
// through the upload batch path: no quota check (the writes were
// admitted when acknowledged), no re-logging, and the sequential-ID
// high-water mark advances so post-recovery inserts cannot collide
// with replayed IDs. Replay is the one boot path that mutates a mapped
// dataset: only datasets with a log tail pay materialization.
func (d *Dataset) applyPuts(ctx context.Context, recs []*wal.Record) error {
	ids := make([]string, len(recs))
	rows := make([]Record, len(recs))
	for i, rec := range recs {
		ids[i], rows[i] = rec.ID, rec.Rec
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.installBatchLocked(ctx, ids, rows); err != nil {
		return err
	}
	if d.schema.Key == "" {
		for _, id := range ids {
			if n, err := strconv.Atoi(id); err == nil && n > d.nextID {
				d.nextID = n
			}
		}
	}
	return nil
}

// applyDelete removes a replayed record; deleting an absent ID is the
// idempotent no-op replay depends on.
func (d *Dataset) applyDelete(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deleteLocked(id)
}
