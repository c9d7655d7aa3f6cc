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
// re-log it. Replay applies each logged put-batch as one batch through
// the same write path uploads use, which is what keeps a long log tail
// cheap to boot.

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

// ReplayContext replays the write-ahead log in dir over the store, the
// boot step between restore and AttachWAL. Application is idempotent —
// a record already reflected in the restored snapshot converges to the
// same state — and never re-logs (boot attaches the log only after
// replay). Records whose target tenant or dataset does not exist are
// skipped via wal.ErrSkipRecord: the only way to log one is a racing
// drop whose outcome was ambiguous when the crash hit, and the drop won.
//
// A put-batch record — what every put and upload logs — applies as one
// batch through applyPuts. A put record, which only logs written
// before puts were logged as one-row put-batch records hold, applies
// the same way as a batch of one, so a log holding long runs of them
// replays row by row. ctx is checked before each put is applied.
func (s *Store) ReplayContext(ctx context.Context, dir string) (wal.ReplayStats, error) {
	return wal.Replay(dir, func(rec *wal.Record) error {
		if rec.Op != wal.OpPut && rec.Op != wal.OpPutBatch {
			return s.applyRecord(rec)
		}
		ds, ok := s.lookupDataset(rec.Tenant, rec.Dataset)
		if !ok {
			return wal.ErrSkipRecord
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if rec.Op == wal.OpPut {
			return ds.applyPuts(ctx, []string{rec.ID}, []Record{rec.Rec})
		}
		ids := make([]string, len(rec.Puts))
		rows := make([]Record, len(rec.Puts))
		for i, p := range rec.Puts {
			ids[i], rows[i] = p.ID, p.Rec
		}
		return ds.applyPuts(ctx, ids, rows)
	})
}

// applyRecord applies one replayed record other than a put or
// put-batch.
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

// applyPuts installs replayed rows under their logged IDs
// through the upload batch path: no quota check (the writes were
// admitted when acknowledged), no re-logging, and the sequential-ID
// high-water mark advances so post-recovery inserts cannot collide
// with replayed IDs. The rows were decoded fresh from the log, so the
// dataset keeps them without a copy. On a mapped dataset the rows land
// in the heap overlay: replay costs O(rows replayed).
func (d *Dataset) applyPuts(ctx context.Context, ids []string, rows []Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.installBatchLocked(ctx, ids, rows, true); err != nil {
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
