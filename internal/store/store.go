package store

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/wal"
)

// Common errors. ErrAccessDenied is returned whenever an actor
// touches a tenant space without ownership or a grant.
var (
	ErrAccessDenied  = fmt.Errorf("store: access denied")
	ErrNoSuchTenant  = fmt.Errorf("store: no such tenant")
	ErrNoSuchDataset = fmt.Errorf("store: no such dataset")
	ErrDatasetExists = fmt.Errorf("store: dataset already exists")
)

// Permission is the access level of a grant.
type Permission string

// Grant levels: readers can query, writers can also modify.
const (
	PermRead  Permission = "read"
	PermWrite Permission = "write"
)

// ErrQuotaExceeded is returned when a tenant write would exceed its
// record quota.
var ErrQuotaExceeded = fmt.Errorf("store: tenant record quota exceeded")

// tenant is one designer's private space.
type tenant struct {
	owner    string
	datasets map[string]*Dataset
	grants   map[string]Permission // actor -> permission
	// quota bounds total records across the tenant's datasets
	// (0 = unlimited). Hosted platforms meter designer storage.
	quota int
}

// Store is the multi-tenant proprietary data store.
type Store struct {
	mu      sync.RWMutex
	tenants map[string]*tenant
	// shardTarget, when non-zero, fixes the index shard count for
	// datasets: new ones get it, and restore and log replay reshard a
	// snapshot written under another count to it. 0 (auto) gives a new
	// dataset one shard per CPU and keeps a restored one's count.
	shardTarget int
	// cache, when non-nil, is attached to every dataset index the
	// store creates or restores; each gets its own key namespace.
	cache *index.Cache
	// wal, when non-nil, receives every acknowledged mutation. Wired
	// by AttachWAL (wal.go) after restore + replay. Guarded by mu.
	wal *wal.Log
}

// Option configures a Store at construction time.
type Option func(*Store)

// WithShardTarget fixes the full-text index shard count for every
// dataset the store creates or restores. 0 (auto, the default) gives a
// new dataset one shard per CPU and keeps the count a restored dataset
// was written with. Individual datasets can still be resharded with
// ReshardContext afterwards.
func WithShardTarget(n int) Option {
	return func(s *Store) {
		if n >= 0 {
			s.shardTarget = n
		}
	}
}

// WithCache attaches a shared cross-request result cache to every
// dataset index the store creates or restores. Tenants share the
// cache's capacity but never its keys (per-index namespaces), and
// stamped validation means a hit is always from the dataset's current
// mutation era. Nil leaves caching off.
func WithCache(c *index.Cache) Option {
	return func(s *Store) { s.cache = c }
}

// New returns an empty store.
func New(opts ...Option) *Store {
	s := &Store{tenants: make(map[string]*tenant)}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// CreateTenant creates a private space owned by owner. Creating an
// existing tenant is an error.
func (s *Store) CreateTenant(id, owner string) error {
	s.mu.Lock()
	if _, ok := s.tenants[id]; ok {
		s.mu.Unlock()
		return fmt.Errorf("store: tenant %q already exists", id)
	}
	s.tenants[id] = &tenant{
		owner:    owner,
		datasets: make(map[string]*Dataset),
		grants:   make(map[string]Permission),
	}
	c := s.walAppendLocked(&wal.Record{Op: wal.OpCreateTenant, Tenant: id, Actor: owner})
	s.mu.Unlock()
	return c.Wait(context.Background())
}

// SetQuota bounds the tenant's total record count (0 = unlimited).
// Only the owner may set it (in production, the platform operator).
func (s *Store) SetQuota(id, byActor string, records int) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if !ok {
		s.mu.Unlock()
		return ErrNoSuchTenant
	}
	if t.owner != byActor {
		s.mu.Unlock()
		return ErrAccessDenied
	}
	t.quota = records
	for _, ds := range t.datasets {
		ds.setQuotaCheck(usageExcluding(t, ds), records)
	}
	c := s.walAppendLocked(&wal.Record{Op: wal.OpSetQuota, Tenant: id, Actor: byActor, N: records})
	s.mu.Unlock()
	return c.Wait(context.Background())
}

// usageExcluding reports the tenant's record count across every
// dataset except self. The excluded dataset adds its own (lock-held)
// count inside Put, avoiding self-deadlock.
func usageExcluding(t *tenant, self *Dataset) func() int {
	return func() int {
		total := 0
		for _, ds := range t.datasets {
			if ds != self {
				total += ds.Len()
			}
		}
		return total
	}
}

// Grant gives actor the given permission on tenant id. Only the owner
// may grant.
func (s *Store) Grant(id, byActor, toActor string, perm Permission) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if !ok {
		s.mu.Unlock()
		return ErrNoSuchTenant
	}
	if t.owner != byActor {
		s.mu.Unlock()
		return ErrAccessDenied
	}
	t.grants[toActor] = perm
	c := s.walAppendLocked(&wal.Record{Op: wal.OpGrant, Tenant: id, Actor: byActor, ID: toActor, Perm: string(perm)})
	s.mu.Unlock()
	return c.Wait(context.Background())
}

// Revoke removes actor's grant. Only the owner may revoke.
func (s *Store) Revoke(id, byActor, fromActor string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if !ok {
		s.mu.Unlock()
		return ErrNoSuchTenant
	}
	if t.owner != byActor {
		s.mu.Unlock()
		return ErrAccessDenied
	}
	delete(t.grants, fromActor)
	c := s.walAppendLocked(&wal.Record{Op: wal.OpRevoke, Tenant: id, Actor: byActor, ID: fromActor})
	s.mu.Unlock()
	return c.Wait(context.Background())
}

func (s *Store) access(id, actor string, need Permission) (*tenant, error) {
	t, ok := s.tenants[id]
	if !ok {
		return nil, ErrNoSuchTenant
	}
	if t.owner == actor {
		return t, nil
	}
	perm, ok := t.grants[actor]
	if !ok {
		return nil, ErrAccessDenied
	}
	if need == PermWrite && perm != PermWrite {
		return nil, ErrAccessDenied
	}
	return t, nil
}

// CreateDataset creates a dataset in the tenant space.
func (s *Store) CreateDataset(tenantID, actor string, schema Schema) (*Dataset, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	t, err := s.access(tenantID, actor, PermWrite)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if _, ok := t.datasets[schema.Name]; ok {
		s.mu.Unlock()
		return nil, ErrDatasetExists
	}
	ds := newDataset(schema, s.shardTarget, s.cache)
	t.datasets[schema.Name] = ds
	if t.quota > 0 {
		ds.setQuotaCheck(usageExcluding(t, ds), t.quota)
	}
	var c *wal.Commit
	if s.wal != nil {
		ds.bindWAL(s.wal, tenantID)
		sb, merr := json.Marshal(schema)
		if merr != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("store: encode schema for wal: %w", merr)
		}
		c = s.wal.Append(&wal.Record{Op: wal.OpCreateDataset, Tenant: tenantID, Actor: actor, Dataset: schema.Name, Schema: sb})
	}
	s.mu.Unlock()
	if err := c.Wait(context.Background()); err != nil {
		return nil, err
	}
	return ds, nil
}

// DatasetContext returns a dataset for reading or writing; access is
// checked at the requested level. The lookup itself is cheap, but it
// honors an already-cancelled ctx so a request that timed out in an
// admission queue fails before touching tenant state.
func (s *Store) DatasetContext(ctx context.Context, tenantID, actor, name string, need Permission) (*Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.access(tenantID, actor, need)
	if err != nil {
		return nil, err
	}
	ds, ok := t.datasets[name]
	if !ok {
		return nil, ErrNoSuchDataset
	}
	return ds, nil
}

// DropDataset removes a dataset.
func (s *Store) DropDataset(tenantID, actor, name string) error {
	s.mu.Lock()
	t, err := s.access(tenantID, actor, PermWrite)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if _, ok := t.datasets[name]; !ok {
		s.mu.Unlock()
		return ErrNoSuchDataset
	}
	delete(t.datasets, name)
	c := s.walAppendLocked(&wal.Record{Op: wal.OpDropDataset, Tenant: tenantID, Actor: actor, Dataset: name})
	s.mu.Unlock()
	return c.Wait(context.Background())
}

// Datasets lists the dataset names visible to actor in the tenant.
func (s *Store) Datasets(tenantID, actor string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.access(tenantID, actor, PermRead)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(t.datasets))
	for name := range t.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Tenants lists all tenant IDs (administrative; no data exposure).
func (s *Store) Tenants() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ReshardContext rebuilds one dataset's full-text index to n shards
// (see index.ReshardContext) and fixes n as its count. Access is
// checked at write level; the rebuild takes only that dataset's
// locks, so every other tenant and dataset is untouched while it
// runs. Cancelling ctx aborts the rebuild, leaving the live index
// unchanged.
func (s *Store) ReshardContext(ctx context.Context, tenantID, actor, name string, n int) error {
	ds, err := s.DatasetContext(ctx, tenantID, actor, name, PermWrite)
	if err != nil {
		return err
	}
	return ds.ReshardContext(ctx, n)
}

// AddBatchContext bulk-inserts recs into a dataset after a write-
// level access check, returning the assigned IDs in input order. The
// batched write path analyzes documents in parallel, applies per-shard
// groups under one lock acquisition each and logs the batch as one
// record — the bulk-load fast path behind `symctl load`.
func (s *Store) AddBatchContext(ctx context.Context, tenantID, actor, name string, recs []Record) ([]string, error) {
	ds, err := s.DatasetContext(ctx, tenantID, actor, name, PermWrite)
	if err != nil {
		return nil, err
	}
	return ds.AddBatchContext(ctx, recs)
}

// DatasetStatus is the operator-facing view of one dataset's index
// layout: shard count, ring generation (increments per completed
// reshard), tombstone ratio, and the block-max evaluator's cumulative
// posting counters (decoded vs jumped without decoding —
// operator-visible proof early exit is engaging on this dataset's
// traffic).
type DatasetStatus struct {
	Tenant          string  `json:"tenant"`
	Dataset         string  `json:"dataset"`
	Records         int     `json:"records"`
	Shards          int     `json:"shards"`
	RingGen         uint64  `json:"ringGen"`
	TombstoneRatio  float64 `json:"tombstoneRatio"`
	PostingsScored  uint64  `json:"postingsScored"`
	PostingsSkipped uint64  `json:"postingsSkipped"`
	// Residency counters for restored datasets: index shards and bytes
	// still served as views over the mapped snapshot vs. posting bytes
	// copied to the heap by writes. All zero for a dataset built by
	// writes. A rebuild moves shards onto the heap: a reshard all of
	// them, a compaction those it rebuilds.
	MappedShards      int   `json:"mappedShards,omitempty"`
	MappedBytes       int64 `json:"mappedBytes,omitempty"`
	MaterializedBytes int64 `json:"materializedBytes,omitempty"`
	// RecordBlockInflates counts the compressed record blocks inflated
	// to serve reads and checkpoints of a restored dataset's records:
	// a lookup by ID inflates none, a record read one, a request one
	// per block its records are in.
	RecordBlockInflates uint64 `json:"recordBlockInflates,omitempty"`
}

// Status reports every dataset's shard layout in deterministic
// (tenant, dataset) order. Administrative like Tenants: layout
// metadata only, no record exposure. The store lock is released
// before any dataset is inspected.
func (s *Store) Status() []DatasetStatus {
	s.mu.RLock()
	type ref struct {
		tenant, name string
		ds           *Dataset
	}
	refs := make([]ref, 0)
	for id, t := range s.tenants {
		for name, ds := range t.datasets {
			refs = append(refs, ref{tenant: id, name: name, ds: ds})
		}
	}
	s.mu.RUnlock()
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].tenant != refs[j].tenant {
			return refs[i].tenant < refs[j].tenant
		}
		return refs[i].name < refs[j].name
	})
	out := make([]DatasetStatus, len(refs))
	for i, r := range refs {
		scan := r.ds.ScanStats()
		mapped, mm := r.ds.memStats()
		out[i] = DatasetStatus{
			Tenant:          r.tenant,
			Dataset:         r.name,
			Records:         r.ds.Len(),
			Shards:          r.ds.NumShards(),
			RingGen:         r.ds.RingGen(),
			TombstoneRatio:  r.ds.TombstoneRatio(),
			PostingsScored:  scan.Scored,
			PostingsSkipped: scan.Skipped,

			MappedShards:      mm.MappedShards,
			MappedBytes:       mapped,
			MaterializedBytes: mm.MaterializedBytes,

			RecordBlockInflates: r.ds.recordBlockInflates(),
		}
	}
	return out
}
