// Package index implements the in-memory inverted index that backs
// every searchable source in the Symphony reproduction: the synthetic
// web engine's verticals and each designer's proprietary data store.
//
// It supports multi-field documents, BM25 ranking with per-field
// boosts, term / and / or / phrase / prefix queries, exact filters on
// keyword fields, deletions, and snippet generation.
//
// Concurrency model: the index is split into N shards (default
// GOMAXPROCS, configurable via WithShards). Each shard owns its own
// RWMutex, postings maps, doc table and ordinal space; documents route
// to shards by an FNV-1a hash of their ID. Queries fan out across
// shards in parallel and merge ranked partials, so readers contend on
// N locks instead of one and writers block only 1/N of the corpus —
// matching the paper's read-heavy hosted execution model where the
// platform index is the shared hot path for every published app.
//
// The shard count belongs to the data: New gives an index WithShards
// shards, or GOMAXPROCS when none is set, and Restore keeps the count
// the snapshot was written with unless WithShards fixed another.
// Every operation routes through an immutable ring descriptor held
// behind an atomic pointer, so ReshardContext (reshard.go) can rebuild
// the documents into a new ring through the batch write path and swap
// it in while readers keep using the old one.
//
// BM25 stays globally correct: corpus statistics (live doc count,
// per-field total lengths, document frequencies) are aggregated across
// shards before evaluation, so scores are bit-identical for any shard
// count.
package index

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/textproc"
)

// Document is the unit of indexing. Fields holds the searchable text
// per field: the index analyzes it, then drops it, keeping only the
// postings and the names of the fields the document carried. Stored
// holds what hits and snippets return verbatim (display fields, URLs,
// prices, and the text of a field snippets are cut from); the index
// keeps the map, shared, not copied. Neither map is written to.
type Document struct {
	ID     string
	Fields map[string]string
	Stored map[string]string
}

// FieldOptions controls how a field is analyzed and scored.
type FieldOptions struct {
	// Analyzer used at index and query time. Nil means the default
	// free-text analyzer.
	Analyzer *textproc.Analyzer
	// Boost multiplies the field's BM25 contribution. Zero means 1.
	Boost float64
}

// Ranker selects the scoring function.
type Ranker int

// Rankers: BM25 (default) and classic TF-IDF, kept for the ablation
// in DESIGN.md §5.
const (
	RankerBM25 Ranker = iota
	RankerTFIDF
)

// Option configures an Index at construction time.
type Option func(*indexConfig)

type indexConfig struct {
	shards int
}

// WithShards fixes the number of shards: New builds that many, and
// Restore reshards a snapshot written with any other count. Values
// below 1 are ignored. WithShards(1) reproduces the pre-sharding
// single-lock behaviour, including exact result ordering and scores.
func WithShards(n int) Option {
	return func(c *indexConfig) {
		if n > 0 {
			c.shards = n
		}
	}
}

// ring is one immutable generation of the shard layout. All routing
// (shardFor), fan-out and statistics aggregation for a single
// operation read one ring, loaded once from the index's atomic
// pointer, so an operation can never see half of an old layout and
// half of a new one. ReshardContext builds a fresh ring and swaps the
// pointer; rings are never mutated after publication (shard *contents*
// keep their own locks — the ring only fixes which shards exist).
type ring struct {
	// gen increments on every layout change (ReshardContext,
	// Restore). It is the natural invalidation stamp for caches keyed
	// to a layout.
	gen    uint64
	shards []*shard
}

// live counts the ring's live documents, one shard lock at a time.
func (r *ring) live() int {
	n := 0
	for _, s := range r.shards {
		n += s.lenLive()
	}
	return n
}

// shardFor routes a document ID to its owning shard in this ring.
func (r *ring) shardFor(id string) *shard {
	return r.shards[r.shardIndexFor(id)]
}

// shardIndexFor routes a document ID to its owning shard's index,
// for callers grouping documents per shard before applying.
func (r *ring) shardIndexFor(id string) int {
	if len(r.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// Index is a thread-safe sharded inverted index.
type Index struct {
	// ring is the current shard layout. Readers load it once per
	// operation and never block on layout changes.
	ring atomic.Pointer[ring]
	// target is the fixed shard count: WithShards(n) or the n of the
	// last completed ReshardContext, 0 when none was set. Restore
	// reshards a snapshot to it when it is set and keeps the
	// snapshot's count when it is not. Written only under wgate's
	// write lock.
	target int

	// wgate orders writers against ring swaps: AddBatchContext,
	// Delete and SetFieldOptions hold it shared for the whole
	// route-and-apply, and ReshardContext and CompactContext hold it
	// exclusively for the whole rebuild, so no write lands on the old
	// ring after its documents were read, and rebuilds serialize.
	// Readers never touch it, so queries keep answering from the old
	// ring until the swap.
	wgate sync.RWMutex

	// earlyExitOff disables the single-cursor block-max loop
	// (wand.go), so single-list top-k queries (a TermQuery, or a
	// non-"and" MatchQuery that expands to one posting list in a
	// shard) also run on the accumulator path, as every other query
	// does. Only equivalence tests set it; results are identical
	// either way.
	earlyExitOff atomic.Bool
	// scanScored / scanSkipped count postings decoded vs. jumped
	// without decoding by the block-max evaluator, across all
	// searches — operator-visible proof that early exit is live.
	scanScored  atomic.Uint64
	scanSkipped atomic.Uint64

	// ver counts completed mutations (adds, deletes, configuration
	// changes). Together with the ring generation it forms the Stamp
	// that validates entries in the attached cross-request cache:
	// mutations bump it after they apply, so anything cached against
	// the old value is never served to a reader that starts after the
	// mutation.
	ver atomic.Uint64
	// cache, when non-nil, is the shared cross-request cache plus this
	// index's key namespace. See AttachCache in cache.go.
	cache atomic.Pointer[cacheRef]

	// an memoizes query-text analysis and the sorted field list across
	// requests, swapped out wholesale whenever the field registry (and
	// with it an analyzer) changes. Populated lazily; see analysisMemo.
	an atomic.Pointer[analysisMemo]

	// Residency counters (mapped.go): what copy-on-write has
	// materialized onto the heap so far, and lazy decode failures.
	mmMatTerms atomic.Int64
	mmMatBytes atomic.Int64
	mmLazyErrs atomic.Int64

	// cfg guards global, shard-independent state: the scoring
	// configuration and the registry of known fields with their
	// analysis options.
	cfg struct {
		sync.RWMutex
		ranker Ranker
		k1, b  float64
		fields map[string]FieldOptions
	}
}

// New returns an empty index with standard BM25 parameters
// (k1=1.2, b=0.75) and the WithShards count of shards, or one per
// available CPU when none is set.
func New(opts ...Option) *Index {
	var c indexConfig
	for _, opt := range opts {
		opt(&c)
	}
	n := c.shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ix := &Index{target: c.shards}
	ix.cfg.k1 = 1.2
	ix.cfg.b = 0.75
	ix.cfg.fields = make(map[string]FieldOptions)
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = newShard(ix)
	}
	ix.ring.Store(&ring{gen: 1, shards: shards})
	return ix
}

// NumShards reports how many shards the index currently has. Unlike
// the original construction-time property, this is live:
// ReshardContext and Restore change it.
func (ix *Index) NumShards() int { return len(ix.ring.Load().shards) }

// RingGen reports the current ring generation. It increments on every
// layout change (ReshardContext, Restore), so it serves as an
// invalidation stamp for layout-scoped caches and as operator-visible
// evidence that a reshard completed.
func (ix *Index) RingGen() uint64 { return ix.ring.Load().gen }

// BlockScanStats reports cumulative posting-block activity of the
// block-max evaluator: blocks entered for decoding and whole blocks
// skipped without decoding. A zero Skipped on a corpus larger than a
// few blocks means early exit is not engaging.
type BlockScanStats struct {
	Scored  uint64 `json:"scored"`
	Skipped uint64 `json:"skipped"`
}

// ScanStats returns the index's cumulative block scan counters.
func (ix *Index) ScanStats() BlockScanStats {
	return BlockScanStats{Scored: ix.scanScored.Load(), Skipped: ix.scanSkipped.Load()}
}

// SetRanker switches the scoring function. Safe to call at any time;
// it affects subsequent searches only.
func (ix *Index) SetRanker(r Ranker) {
	ix.cfg.Lock()
	ix.cfg.ranker = r
	ix.cfg.Unlock()
	ix.bumpVer()
}

// SetFieldOptions configures analysis and boost for a field. It must
// be called before documents containing the field are added; changing
// analyzers after indexing would desynchronize query analysis.
//
// It holds the write gate shared, so it waits out a reshard in
// progress and its options land on the ring that is current.
func (ix *Index) SetFieldOptions(field string, opts FieldOptions) {
	ix.wgate.RLock()
	defer ix.wgate.RUnlock()
	ix.cfg.Lock()
	ix.cfg.fields[field] = opts
	ix.cfg.Unlock()
	ix.invalidateAnalysis()
	for _, s := range ix.ring.Load().shards {
		s.setFieldOptions(field, opts)
	}
	ix.bumpVer()
}

// analysisMemo is the cross-request analysis cache: analyzed terms
// keyed by (field, raw text), plus the sorted field list. Query text
// repeats heavily across requests — the whole memo exists so the warm
// query path re-analyzes nothing and allocates nothing for analysis.
// Invalidation is wholesale: any registry write (new field, changed
// analyzer, restore) drops the memo pointer and the next query starts
// a fresh one. In-flight queries may finish against the old memo,
// which matches the existing snapshot semantics (they captured their
// field options before the write anyway).
type analysisMemo struct {
	mu     sync.RWMutex
	terms  map[fieldTerm][]string
	fields []string // sorted registry snapshot; nil until first use
}

// analysisMemoCap bounds the memo so adversarial query vocabularies
// cannot grow it without bound; at the cap, misses just skip storing.
const analysisMemoCap = 4096

func (ix *Index) analysisMemoRef() *analysisMemo {
	if m := ix.an.Load(); m != nil {
		return m
	}
	m := &analysisMemo{terms: make(map[fieldTerm][]string)}
	if ix.an.CompareAndSwap(nil, m) {
		return m
	}
	return ix.an.Load()
}

// invalidateAnalysis drops the analysis memo; callers are the registry
// write sites (SetFieldOptions, ensureFields on a new field, restore).
func (ix *Index) invalidateAnalysis() { ix.an.Store(nil) }

// fieldsCached is Fields through the analysis memo: one registry scan
// and sort per registry change instead of per query. The returned
// slice is shared — callers must not mutate it.
func (ix *Index) fieldsCached() []string {
	m := ix.analysisMemoRef()
	m.mu.RLock()
	f := m.fields
	m.mu.RUnlock()
	if f != nil {
		return f
	}
	f = ix.Fields()
	m.mu.Lock()
	if m.fields == nil {
		m.fields = f
	} else {
		f = m.fields
	}
	m.mu.Unlock()
	return f
}

// analyzedTermsCached returns opts.Analyzer.AnalyzeTerms(raw) through
// the cross-request memo. Returned slices are shared and immutable.
func (ix *Index) analyzedTermsCached(opts FieldOptions, field, raw string) []string {
	m := ix.analysisMemoRef()
	key := fieldTerm{field, raw}
	m.mu.RLock()
	terms, ok := m.terms[key]
	m.mu.RUnlock()
	if ok {
		return terms
	}
	terms = opts.Analyzer.AnalyzeTerms(raw)
	m.mu.Lock()
	if len(m.terms) < analysisMemoCap {
		m.terms[key] = terms
	}
	m.mu.Unlock()
	return terms
}

// fieldOpts returns the registered options for field and whether the
// field is known to the index.
func (ix *Index) fieldOpts(field string) (FieldOptions, bool) {
	ix.cfg.RLock()
	defer ix.cfg.RUnlock()
	opts, ok := ix.cfg.fields[field]
	return opts, ok
}

// ensureFields registers every field name of docs not seen before
// with default options: one read-locked probe over the whole batch,
// and one write-locked pass only when some name is new.
func (ix *Index) ensureFields(docs []Document) {
	ix.cfg.RLock()
	known := true
	for i := 0; i < len(docs) && known; i++ {
		for field := range docs[i].Fields {
			if _, known = ix.cfg.fields[field]; !known {
				break
			}
		}
	}
	ix.cfg.RUnlock()
	if known {
		return
	}
	ix.cfg.Lock()
	for i := range docs {
		for field := range docs[i].Fields {
			if _, ok := ix.cfg.fields[field]; !ok {
				ix.cfg.fields[field] = FieldOptions{}
			}
		}
	}
	ix.cfg.Unlock()
	ix.invalidateAnalysis()
}

// scoringParams snapshots the ranker configuration for one search.
func (ix *Index) scoringParams() (Ranker, float64, float64) {
	ix.cfg.RLock()
	defer ix.cfg.RUnlock()
	return ix.cfg.ranker, ix.cfg.k1, ix.cfg.b
}

// Add indexes doc, replacing any existing document with the same ID:
// a batch of one through AddBatchContext, with no deadline.
func (ix *Index) Add(doc Document) error {
	return ix.AddBatchContext(context.Background(), []Document{doc})
}

// AddBatch indexes docs with the batched write path and no deadline.
func (ix *Index) AddBatch(docs []Document) error {
	return ix.AddBatchContext(context.Background(), docs)
}

// analyzeChunk is how many documents an AddBatchContext analysis
// worker claims at a time.
const analyzeChunk = 16

// AddBatchContext indexes docs as one batch: text analysis — the
// dominant indexing cost — runs on up to GOMAXPROCS goroutines (the
// caller among them) that claim documents in chunks from a shared
// cursor, documents are grouped by owning shard, and each shard group
// is applied under ONE write-lock acquisition (in parallel across
// shards) instead of one per document. Each worker analyzes each
// distinct token once per batch (textproc.Memo). The result is
// bit-identical to one batch per document of the same slice: within a
// shard, documents apply in slice order, so duplicate IDs resolve
// last-write-wins exactly like the loop would.
//
// Cancellation is honored during validation and analysis, before
// anything is applied; once application starts the whole batch lands
// and the call returns nil. Callers therefore never see a
// half-applied batch on ctx cancellation.
func (ix *Index) AddBatchContext(ctx context.Context, docs []Document) error {
	if len(docs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range docs {
		if docs[i].ID == "" {
			return fmt.Errorf("index: document %d has empty ID", i)
		}
	}
	analyzed, err := ix.analyzeBatch(ctx, docs)
	if err != nil {
		return err
	}
	// The write gate (held shared) keeps the ring from swapping
	// mid-batch: a batch waits out a rebuild in progress, so no
	// document is lost to one.
	ix.wgate.RLock()
	ix.applyBatch(ix.ring.Load(), docs, analyzed)
	ix.wgate.RUnlock()
	ix.bumpVer()
	return nil
}

// analyzeBatch registers the fields of docs and analyzes them: workers
// claim chunks of document indexes from a shared cursor, and the
// calling goroutine is one of them. ctx is checked once per chunk, and
// once more after the join, so a cancelled batch returns ctx.Err() and
// no analysis. Each worker keeps its own analysis memo and slabs for
// the length of the batch.
func (ix *Index) analyzeBatch(ctx context.Context, docs []Document) ([]docTerms, error) {
	// Register fields before analysis so the workers only take read
	// locks.
	ix.ensureFields(docs)
	analyzed := make([]docTerms, len(docs))
	var cursor atomic.Int64
	analyze := func() {
		var w batchAnalyzer
		for ctx.Err() == nil {
			end := int(cursor.Add(analyzeChunk))
			start := end - analyzeChunk
			if start >= len(docs) {
				return
			}
			for i := start; i < min(end, len(docs)); i++ {
				analyzed[i] = w.analyzeDoc(ix, &docs[i])
			}
		}
	}
	var wg sync.WaitGroup
	for k := min(runtime.GOMAXPROCS(0), (len(docs)+analyzeChunk-1)/analyzeChunk); k > 1; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			analyze()
		}()
	}
	analyze()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return analyzed, nil
}

// applyBatch adds the analyzed docs to the shards of r: grouped by
// owning shard, each group under one lock acquisition on its shard,
// groups in parallel. The last group runs on the calling goroutine,
// so a batch that touches one shard — a single document — starts no
// goroutine. Within a shard documents apply in slice order. The
// caller holds the write gate.
func (ix *Index) applyBatch(r *ring, docs []Document, analyzed []docTerms) {
	groups := make([][]int, len(r.shards))
	last := 0
	for i := range docs {
		si := r.shardIndexFor(docs[i].ID)
		groups[si] = append(groups[si], i)
		last = max(last, si)
	}
	var wg sync.WaitGroup
	for si, idxs := range groups[:last] {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *shard, idxs []int) {
			defer wg.Done()
			s.addBatch(docs, analyzed, idxs)
		}(r.shards[si], idxs)
	}
	r.shards[last].addBatch(docs, analyzed, groups[last])
	wg.Wait()
}

// Delete removes the document with the given ID. It reports whether a
// document was removed. Like AddBatchContext, it holds the write gate
// shared, so it waits out a rebuild in progress. The document's
// postings stay until CompactContext or a reshard drops them.
func (ix *Index) Delete(id string) bool {
	ix.wgate.RLock()
	deleted := ix.ring.Load().shardFor(id).delete(id)
	ix.wgate.RUnlock()
	if deleted {
		ix.bumpVer()
	}
	return deleted
}

// TombstoneRatio reports the fraction of uncompacted tombstoned
// ordinals across the whole index: dead/(dead+live), 0 when empty.
// Operators use it to decide when CompactContext is worth a rebuild.
func (ix *Index) TombstoneRatio() float64 {
	dead, live := 0, 0
	for _, s := range ix.ring.Load().shards {
		s.mu.RLock()
		dead += s.dead
		live += s.live
		s.mu.RUnlock()
	}
	if dead == 0 {
		return 0
	}
	return float64(dead) / float64(dead+live)
}

// Len returns the number of live documents.
func (ix *Index) Len() int {
	return ix.ring.Load().live()
}

// Get returns the document stored under id: its ID and Stored map.
// Its Fields is nil, because the index keeps no field text.
func (ix *Index) Get(id string) (Document, bool) {
	return ix.ring.Load().shardFor(id).get(id)
}

// Fields returns the names of all indexed fields, sorted.
func (ix *Index) Fields() []string {
	ix.cfg.RLock()
	defer ix.cfg.RUnlock()
	out := make([]string, 0, len(ix.cfg.fields))
	for f := range ix.cfg.fields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// DocFreq returns how many live documents contain term in field after
// analysis with the field's analyzer.
func (ix *Index) DocFreq(field, term string) int {
	opts, ok := ix.fieldOpts(field)
	if !ok {
		return 0
	}
	terms := opts.Analyzer.AnalyzeTerms(term)
	if len(terms) == 0 {
		return 0
	}
	r := ix.ring.Load()
	dfs := make([]int, len(r.shards))
	eachShard(r, func(i int, s *shard) { dfs[i] = s.docFreq(field, terms[0]) })
	n := 0
	for _, df := range dfs {
		n += df
	}
	return n
}
