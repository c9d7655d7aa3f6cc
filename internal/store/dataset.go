package store

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/index"
	"repro/internal/textproc"
	"repro/internal/wal"
)

// Dataset is one named, schema'd collection of records inside a
// tenant space, with a full-text index over its searchable fields.
type Dataset struct {
	schema Schema

	mu sync.RWMutex
	// records and order are the heap overlay: every record written
	// since attach (all of them for a heap dataset), and the insertion
	// order of the IDs the base does not place. mrecs, when non-nil,
	// is the base: views into a mapped snapshot's record section (see
	// mapped.go). Guarded by mu.
	records map[string]Record
	order   []string
	mrecs   *mappedRecords
	nextID  int
	ix      *index.Index
	// ver counts mutations (puts, deletes, reshards) for dirty
	// tracking: incremental checkpoints re-encode a dataset's frame
	// only when its version moved since the cached encode. Guarded by
	// mu — bumped under the write lock, read under the read lock, so
	// a version observed while encoding is consistent with the bytes.
	ver uint64

	// Tenant quota enforcement, wired by the store: usage reports
	// records across the tenant, quota is the ceiling (0 = none).
	usage func() int
	quota int

	// Write-ahead logging, wired by the store (see wal.go): when wlog
	// is non-nil every acknowledged put/delete appends a record tagged
	// with the owning tenant. Guarded by mu.
	wlog      *wal.Log
	walTenant string
}

// setQuotaCheck wires tenant-level quota enforcement into Put.
func (d *Dataset) setQuotaCheck(usage func() int, quota int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.usage = usage
	d.quota = quota
}

// newDataset builds a dataset whose index has shardTarget shards
// fixed, or the index default when shardTarget is 0 (one per CPU for
// a new index; a restored snapshot keeps its own count), and, when
// cache is non-nil, participates in the shared cross-request cache.
func newDataset(schema Schema, shardTarget int, cache *index.Cache) *Dataset {
	var ix *index.Index
	if shardTarget > 0 {
		ix = index.New(index.WithShards(shardTarget))
	} else {
		ix = index.New()
	}
	if cache != nil {
		ix.AttachCache(cache)
	}
	ds := &Dataset{
		schema:  schema,
		records: make(map[string]Record),
		ix:      ix,
	}
	for _, f := range schema.Fields {
		if f.Searchable {
			boost := 1.0
			if f.Name == "title" || f.Name == schema.Key {
				boost = 2
			}
			ds.ix.SetFieldOptions(f.Name, index.FieldOptions{Boost: boost})
		}
	}
	return ds
}

// Schema returns the dataset schema.
func (d *Dataset) Schema() Schema { return d.schema }

// Put inserts or replaces a record with no deadline, returning its ID.
func (d *Dataset) Put(rec Record) (string, error) {
	return d.PutContext(context.Background(), rec)
}

// PutContext inserts or replaces a record, returning its ID: a batch
// of one through the write path AddBatchContext runs, logged as a
// one-row put-batch record. When a write-ahead log is attached, the
// call returns only after the record is durable under the log's fsync
// policy; a *wal.WriteError return means the write applied in memory
// but is NOT durable (the log has failed — reads keep serving, further
// writes fail fast). Its validation errors name no batch ordinal:
// ingest reports a rejected upload record under its own.
func (d *Dataset) PutContext(ctx context.Context, rec Record) (string, error) {
	if err := checkRecord(d.schema, rec); err != nil {
		return "", err
	}
	if d.schema.Key != "" && rec[d.schema.Key] == "" {
		return "", fmt.Errorf("store: record missing key field %q", d.schema.Key)
	}
	ids, err := d.putBatch(ctx, []Record{rec})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// docFor projects a record into its index document: its searchable
// non-empty fields, to be analyzed. It stores nothing: hits, filters,
// facets and order-by read the dataset's own records, so the index
// keeps no second copy of them.
func docFor(s Schema, id string, rec Record) index.Document {
	fields := make(map[string]string)
	for _, f := range s.Fields {
		if v := rec[f.Name]; f.Searchable && v != "" {
			fields[f.Name] = v
		}
	}
	return index.Document{ID: id, Fields: fields}
}

// AddBatchContext inserts or replaces recs as one batch, returning
// the assigned IDs in input order. The heavy lifting — text analysis
// and per-shard index application — runs through the index's batched
// write path (one lock acquisition per shard instead of one per
// document), which is what makes bulk loads scale; results are
// bit-identical to looping PutContext. The batch is atomic in memory:
// cancellation is honored before anything is applied, and once
// application starts the whole batch lands. The log is atomic too:
// the batch is appended as ONE put-batch record, so the call waits on
// one commit and recovery replays all of the batch or none of it.
func (d *Dataset) AddBatchContext(ctx context.Context, recs []Record) ([]string, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	for i := range recs {
		if err := checkRecord(d.schema, recs[i]); err != nil {
			return nil, fmt.Errorf("store: batch record %d: %w", i, err)
		}
		if d.schema.Key != "" && recs[i][d.schema.Key] == "" {
			return nil, fmt.Errorf("store: batch record %d missing key field %q", i, d.schema.Key)
		}
	}
	return d.putBatch(ctx, recs)
}

// putBatch writes validated recs: the quota check, ID assignment, the
// index and the records, one put-batch log record, and the wait for
// it. The quota check runs BEFORE taking the write lock: usage() reads
// sibling datasets' counts, and holding our lock while taking theirs
// would invert lock order against their own writes. The check is
// therefore approximate under concurrent writers, which is the usual
// contract for storage metering.
func (d *Dataset) putBatch(ctx context.Context, recs []Record) ([]string, error) {
	d.mu.RLock()
	quota, usage := d.quota, d.usage
	cur := d.lenLocked()
	newCount := len(recs)
	if d.schema.Key != "" {
		newCount = 0
		seen := make(map[string]bool, len(recs))
		for _, rec := range recs {
			id := rec[d.schema.Key]
			if !d.existsLocked(id) && !seen[id] {
				seen[id] = true
				newCount++
			}
		}
	}
	d.mu.RUnlock()
	if quota > 0 && usage != nil && newCount > 0 && usage()+cur+newCount > quota {
		return nil, ErrQuotaExceeded
	}

	d.mu.Lock()
	ids := make([]string, len(recs))
	assigned := 0
	for i, rec := range recs {
		if d.schema.Key != "" {
			ids[i] = rec[d.schema.Key]
		} else {
			d.nextID++
			assigned++
			ids[i] = strconv.Itoa(d.nextID)
		}
	}
	cps, err := d.installBatchLocked(ctx, ids, recs, false)
	if err != nil {
		// Nothing was applied: return the assigned IDs to the sequence
		// for the next batch to reuse.
		d.nextID -= assigned
		d.mu.Unlock()
		return nil, err
	}
	var c *wal.Commit
	if d.wlog != nil {
		puts := make([]wal.Put, len(ids))
		for i, id := range ids {
			puts[i] = wal.Put{ID: id, Rec: cps[i]}
		}
		c = d.walAppendLocked(&wal.Record{Op: wal.OpPutBatch, Puts: puts})
	}
	d.mu.Unlock()
	if err := c.Wait(ctx); err != nil {
		return nil, err
	}
	return ids, nil
}

// installBatchLocked inserts or replaces recs[i] under ids[i] as one
// batch — the write path uploads and log replay share — and returns
// the installed records. One index batch and one version bump cover
// the batch; the index batch resolves duplicate IDs last-write-wins,
// exactly like installing the records one by one. The index goes
// first: a ctx error there applies nothing. owned says the dataset
// may keep recs itself, as replay's freshly decoded rows; an upload's
// rows belong to the caller and are copied. Callers hold d.mu.
func (d *Dataset) installBatchLocked(ctx context.Context, ids []string, recs []Record, owned bool) ([]Record, error) {
	cps := recs
	if !owned {
		cps = make([]Record, len(recs))
		for i, rec := range recs {
			cp := make(Record, len(rec))
			for k, v := range rec {
				cp[k] = v
			}
			cps[i] = cp
		}
	}
	docs := make([]index.Document, len(cps))
	for i, rec := range cps {
		docs[i] = docFor(d.schema, ids[i], rec)
	}
	if err := d.ix.AddBatchContext(ctx, docs); err != nil {
		return nil, err
	}
	for i, id := range ids {
		d.setRecordLocked(id, cps[i])
	}
	d.ver++
	return cps, nil
}

// Get returns the record with the given ID.
func (d *Dataset) Get(id string) (Record, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.recordViewLocked(id)
	if !ok {
		return nil, false
	}
	cp := make(Record, len(rec))
	for k, v := range rec {
		cp[k] = v
	}
	return cp, true
}

// Delete removes a record with no deadline, reporting whether it
// existed. Durability failures are deferred to the next write's error
// (the log latches failed); use DeleteContext to observe them here.
func (d *Dataset) Delete(id string) bool {
	ok, _ := d.DeleteContext(context.Background(), id)
	return ok
}

// DeleteContext removes a record, reporting whether it existed. Like
// PutContext, with a log attached the call returns only after the
// tombstone is durable; a *wal.WriteError means the delete applied in
// memory but is not durable.
func (d *Dataset) DeleteContext(ctx context.Context, id string) (bool, error) {
	d.mu.Lock()
	if !d.deleteLocked(id) {
		d.mu.Unlock()
		return false, nil
	}
	c := d.walAppendLocked(&wal.Record{Op: wal.OpDelete, ID: id})
	d.mu.Unlock()
	return true, c.Wait(ctx)
}

func (d *Dataset) deleteLocked(id string) bool {
	if !d.removeRecordLocked(id) {
		return false
	}
	d.ix.Delete(id)
	d.ver++
	return true
}

// Version reports the dataset's mutation counter. A checkpoint frame
// cached at version v can be reused verbatim while Version still
// returns v — the dirty-tracking contract behind incremental
// checkpoints.
func (d *Dataset) Version() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ver
}

// ReshardContext rebuilds the dataset's full-text index to n shards,
// taking only this dataset's locks: index reads proceed throughout,
// index writes wait for the whole rebuild (see index.ReshardContext),
// and every other dataset is untouched. Put and the batched upload
// path hold d.mu while they call the index, so store reads of a
// dataset that is written during a reshard stall behind that writer
// too; no served path reshards a live dataset. The version is bumped
// on both sides of the ring swap so a checkpoint frame encoded
// concurrently with the rebuild can never be cached as current. No-op
// and invalid reshards skip the bumps: they change nothing, so they
// must not dirty the dataset for incremental checkpoints.
func (d *Dataset) ReshardContext(ctx context.Context, n int) error {
	if n < 1 || n == d.ix.NumShards() {
		return d.ix.ReshardContext(ctx, n) // validates / no-ops without dirtying
	}
	d.bumpVersion()
	if err := d.ix.ReshardContext(ctx, n); err != nil {
		// Both aborted and failed rebuilds leave the live ring
		// unchanged, but the version already moved; the extra bump
		// just re-encodes one frame on the next checkpoint.
		return err
	}
	d.bumpVersion()
	return nil
}

func (d *Dataset) bumpVersion() {
	d.mu.Lock()
	d.ver++
	d.mu.Unlock()
}

// NumShards reports the dataset index's current shard count.
func (d *Dataset) NumShards() int { return d.ix.NumShards() }

// RingGen reports the dataset index's ring generation — it increments
// on every completed reshard, so operators can watch progress.
func (d *Dataset) RingGen() uint64 { return d.ix.RingGen() }

// ScanStats reports the dataset index's cumulative block-max scan
// counters: postings decoded vs. jumped without decoding.
func (d *Dataset) ScanStats() index.BlockScanStats { return d.ix.ScanStats() }

// TombstoneRatio reports the dataset index's uncompacted tombstone
// fraction.
func (d *Dataset) TombstoneRatio() float64 { return d.ix.TombstoneRatio() }

// Len returns the record count.
func (d *Dataset) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lenLocked()
}

// List returns up to limit records in insertion order starting at
// offset. limit <= 0 means all.
func (d *Dataset) List(offset, limit int) []Record {
	d.mu.RLock()
	defer d.mu.RUnlock()
	offset = max(offset, 0)
	n := d.lenLocked()
	if offset >= n {
		return nil
	}
	want := n - offset
	if limit > 0 && limit < want {
		want = limit
	}
	out := make([]Record, 0, want)
	for id, rec := range d.recordsLocked(offset) {
		cp := make(Record, len(rec)+1)
		for k, v := range rec {
			cp[k] = v
		}
		cp["_id"] = id
		out = append(out, cp)
		if len(out) == want {
			break
		}
	}
	return out
}

// Filter is a structured predicate over a typed field.
type Filter struct {
	Field string
	// Op is one of "=", "!=", "<", "<=", ">", ">=", "contains".
	Op    string
	Value string
}

// SearchRequest is a full-text + structured query over the dataset.
type SearchRequest struct {
	// Query is free text matched against searchable fields. Empty
	// matches all records (browse mode).
	Query string
	// Fields restricts which searchable fields the query runs
	// against; empty means all searchable fields.
	Fields  []string
	Filters []Filter
	Limit   int
	Offset  int
	// OrderBy sorts results by a field instead of relevance
	// ("price", "-price" for descending). Empty keeps BM25 order.
	OrderBy string
}

// Hit is one search result with its record and relevance score.
type Hit struct {
	ID     string
	Score  float64
	Record Record
}

// SearchContext runs the request, asking the index only for what the
// page needs and copying a record only for the hits it returns. There
// are two plans:
//
//   - No filters and no OrderBy — what a proprietary source sends on
//     every request: Limit and Offset go straight to the index. Its
//     top-k is the prefix of its full ranking (score descending, ties
//     on ascending ID), so the page is the one slicing every match
//     would give.
//   - Anything else: the full match set, filtered and sorted over
//     read-only record views; only the page is copied.
//
// An offset at or past the live record count answers an empty page
// under either plan without evaluating anything.
//
// Filter ops and the order field are validated before anything is
// evaluated. Cancelling ctx stops the index evaluation within one
// posting block and returns ctx.Err().
func (d *Dataset) SearchContext(ctx context.Context, req SearchRequest) ([]Hit, error) {
	q, err := d.prepare(req)
	if err != nil {
		return nil, err
	}
	offset := max(req.Offset, 0)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if offset > 0 && offset >= d.lenLocked() {
		// No page starts past the last record: answer without asking
		// the index for every match.
		return nil, nil
	}
	if len(req.Filters) == 0 && req.OrderBy == "" {
		raw, err := d.ix.SearchContext(ctx, q, index.SearchOptions{Limit: req.Limit, Offset: offset})
		if err != nil || raw == nil {
			return nil, err
		}
		return page(d.filterLocked(raw, nil), 0, 0), nil
	}
	raw, err := d.ix.SearchContext(ctx, q, index.SearchOptions{})
	if err != nil {
		return nil, err
	}
	views := d.filterLocked(raw, req.Filters)
	if req.OrderBy != "" {
		sortViews(d.schema, views, req.OrderBy)
	}
	return page(views, offset, req.Limit), nil
}

// prepare validates req against the schema — search fields, filter
// fields, filter ops, order field, in that order — and builds its
// index query.
func (d *Dataset) prepare(req SearchRequest) (index.Query, error) {
	fields := req.Fields
	if len(fields) == 0 {
		fields = d.schema.SearchableFields()
	} else {
		for _, f := range fields {
			fd, ok := d.schema.Field(f)
			if !ok {
				return nil, fmt.Errorf("store: unknown search field %q", f)
			}
			if !fd.Searchable {
				return nil, fmt.Errorf("store: field %q is not searchable", f)
			}
		}
	}
	for _, f := range req.Filters {
		if _, ok := d.schema.Field(f.Field); !ok {
			return nil, fmt.Errorf("store: unknown filter field %q", f.Field)
		}
	}
	for _, f := range req.Filters {
		if !validOp(f.Op) {
			return nil, fmt.Errorf("store: unknown filter op %q", f.Op)
		}
	}
	if req.OrderBy != "" {
		field := strings.TrimPrefix(req.OrderBy, "-")
		if _, ok := d.schema.Field(field); !ok {
			return nil, fmt.Errorf("store: unknown order field %q", field)
		}
	}
	if req.Query == "" {
		return index.AllQuery{}, nil
	}
	return index.MatchQuery{Fields: fields, Text: req.Query}, nil
}

// view is a hit that passed the store-side filters: the index result
// and a read-only view of its record, copied only if it is returned.
type view struct {
	res index.Result
	rec Record
}

// hit copies the record for return, with the ID under "_id".
func (v view) hit() Hit {
	cp := make(Record, len(v.rec)+1)
	for k, val := range v.rec {
		cp[k] = val
	}
	cp["_id"] = v.res.ID
	return Hit{ID: v.res.ID, Score: v.res.Score, Record: cp}
}

// field reads what the returned copy will hold under name: the
// record's value, except "_id", which the copy sets to the ID.
func (v view) field(name string) string {
	if name == "_id" {
		return v.res.ID
	}
	return v.rec[name]
}

// filterLocked returns the hits of raw whose records pass filters,
// in order. Hits in the mapped base are read in insertion order, not
// rank order, so each block they touch inflates once.
func (d *Dataset) filterLocked(raw []index.Result, filters []Filter) []view {
	views := make([]view, len(raw))
	var base []basePick
	for k, r := range raw {
		views[k].res = r
		if rec, ok := d.records[r.ID]; ok {
			views[k].rec = rec
		} else if i, ok := d.baseLiveLocked(r.ID); ok {
			base = append(base, basePick{view: k, pos: i})
		}
	}
	if len(base) > 0 {
		slices.SortFunc(base, func(a, b basePick) int { return a.pos - b.pos })
		cur := d.mrecs.cursor()
		for _, p := range base {
			views[p.view].rec, _ = cur.record(p.pos)
		}
		cur.close()
	}
	out := views[:0]
	for _, v := range views {
		if matchAll(d.schema, v.rec, filters) {
			out = append(out, v)
		}
	}
	return out
}

// basePick is a hit whose record is read from the mapped base: its
// view and its base position.
type basePick struct{ view, pos int }

// page slices views to [offset, offset+limit) (limit 0 = to the end)
// and copies the records of the hits in it. As in the index, an
// offset past the end yields nil.
func page(views []view, offset, limit int) []Hit {
	if offset > 0 {
		if offset >= len(views) {
			return nil
		}
		views = views[offset:]
	}
	if limit > 0 && len(views) > limit {
		views = views[:limit]
	}
	hits := make([]Hit, len(views))
	for i, v := range views {
		hits[i] = v.hit()
	}
	return hits
}

// FacetsContext counts the values of field across records matching
// the request's query and filters — the designer's filter sidebar
// (e.g. producer counts next to inventory results). It counts over
// record views, copying none.
func (d *Dataset) FacetsContext(ctx context.Context, req SearchRequest, field string) ([]index.FacetCount, error) {
	if _, ok := d.schema.Field(field); !ok {
		return nil, fmt.Errorf("store: unknown facet field %q", field)
	}
	q, err := d.prepare(SearchRequest{Query: req.Query, Fields: req.Fields, Filters: req.Filters})
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	raw, err := d.ix.SearchContext(ctx, q, index.SearchOptions{})
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	for _, v := range d.filterLocked(raw, req.Filters) {
		if val := v.field(field); val != "" {
			counts[val]++
		}
	}
	out := make([]index.FacetCount, 0, len(counts))
	for v, n := range counts {
		out = append(out, index.FacetCount{Value: v, N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Value < out[j].Value
	})
	return out, nil
}

// validOp reports whether matchFilter knows op.
func validOp(op string) bool {
	switch op {
	case "", "=", "!=", "contains", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func matchAll(s Schema, rec Record, filters []Filter) bool {
	for _, f := range filters {
		if !matchFilter(s, rec, f) {
			return false
		}
	}
	return true
}

// matchFilter evaluates one filter whose op prepare validated.
func matchFilter(s Schema, rec Record, f Filter) bool {
	have := rec[f.Field]
	switch f.Op {
	case "=", "":
		return have == f.Value
	case "!=":
		return have != f.Value
	case "contains":
		return containsFold(have, f.Value)
	}
	// "<", "<=", ">", ">="
	if fd, _ := s.Field(f.Field); fd.Type == TypeNumber {
		a, err1 := strconv.ParseFloat(have, 64)
		b, err2 := strconv.ParseFloat(f.Value, 64)
		if err1 != nil || err2 != nil {
			return false
		}
		return cmpOrdered(a, b, f.Op)
	}
	return cmpOrdered(have, f.Value, f.Op)
}

func cmpOrdered[T float64 | string](a, b T, op string) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default:
		return a >= b
	}
}

func containsFold(haystack, needle string) bool {
	h := textproc.Terms(haystack)
	n := textproc.Terms(needle)
	if len(n) == 0 {
		return true
	}
	set := make(map[string]bool, len(h))
	for _, t := range h {
		set[t] = true
	}
	for _, t := range n {
		if !set[t] {
			return false
		}
	}
	return true
}

// sortViews orders views by a field prepare validated ("price",
// "-price" for descending), stably, so ties keep rank order.
func sortViews(s Schema, views []view, orderBy string) {
	field, desc := strings.CutPrefix(orderBy, "-")
	fd, _ := s.Field(field)
	numeric := fd.Type == TypeNumber
	sort.SliceStable(views, func(i, j int) bool {
		a, b := views[i].field(field), views[j].field(field)
		var less bool
		if numeric {
			af, _ := strconv.ParseFloat(a, 64)
			bf, _ := strconv.ParseFloat(b, 64)
			less = af < bf
		} else {
			less = a < b
		}
		if desc {
			return !less && a != b
		}
		return less
	})
}
