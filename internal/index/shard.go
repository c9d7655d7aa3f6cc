package index

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

type fieldPostings struct {
	// term -> block-compressed postings ordered by doc ordinal
	terms map[string]*postingList
	// total token count across live docs, for average length
	totalLen int
	// per-ordinal field length, dense (0 = absent or empty); docCount
	// tracks how many live ordinals carry the field, the denominator
	// of the BM25 average length.
	docLen   []int
	docCount int
	// minLen is the smallest non-zero field length ever recorded
	// (0 = none yet). Deletes leave it alone: a stale low value is
	// still a valid lower bound on every live length, which is all
	// the block-max score bound needs — BM25 only grows as length
	// shrinks, so bounding at minLen instead of zero stays correct
	// while cutting the bound's slack enormously.
	minLen int
	opts   FieldOptions
	// mapped, when non-nil, backs terms absent from the heap map with
	// the shard's v4 payload (see mapped.go). Read lookups go through
	// lookup(), writes through promoteTermLocked().
	mapped *mappedField
	// dict caches the sorted term dictionary for prefix scans and
	// spell candidates. Writers holding the shard write lock
	// invalidate it (Store nil); readers holding the read lock rebuild
	// and cache it on demand — concurrent rebuilds are benign.
	dict atomic.Pointer[[]string]
}

// sortedTerms returns the field's term dictionary in sorted order,
// rebuilding the cache if a writer invalidated it. Callers must hold
// the shard lock (read or write).
func (fp *fieldPostings) sortedTerms() []string {
	if p := fp.dict.Load(); p != nil {
		return *p
	}
	terms := make([]string, 0, len(fp.terms))
	for t := range fp.terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	fp.dict.Store(&terms)
	return terms
}

func (fp *fieldPostings) setDocLen(ord, n int) {
	for len(fp.docLen) <= ord {
		// append, not a sized make: amortized doubling keeps a corpus
		// build linear.
		fp.docLen = append(fp.docLen, 0)
	}
	fp.docLen[ord] = n
	fp.docCount++
	if n > 0 && (fp.minLen == 0 || n < fp.minLen) {
		fp.minLen = n
	}
}

func (fp *fieldPostings) lenAt(ord int) int {
	if ord < len(fp.docLen) {
		return fp.docLen[ord]
	}
	return 0
}

// shard is one independent slice of the index. It owns its mutex, its
// postings, its doc table and its ordinal space; ordinals are never
// meaningful across shards. No code path holds two shard locks at
// once, so fan-out readers and single-shard writers cannot deadlock.
// Lock ordering: a shard lock may wrap ix.cfg.RLock (fieldForLocked
// reads the field registry), never the reverse — code holding
// ix.cfg's write lock must not touch a shard lock.
type shard struct {
	mu sync.RWMutex
	ix *Index

	fields map[string]*fieldPostings
	// docs is the overlay: docs[i] is ordinal base+i; deleted rows
	// have ID "". byID maps the overlay's live IDs to their ordinals.
	docs []docRow
	byID map[string]int
	// lastFields is the field-name slice of the last row added, which
	// the next row shares when it names the same fields (rowFields).
	lastFields []string
	// base is the number of ordinals the mapped payload holds (0 for
	// a heap shard): ordinals below it read from ms.
	base int
	live int
	// dead counts tombstoned ordinals: deleted and replaced documents
	// whose postings stay until a rebuild (CompactContext or a
	// reshard) drops them.
	dead int

	// ms, when non-nil, is the mapped v4 payload this shard was
	// attached from (mapped.go): the immutable base under the overlay.
	// dirty records any mutation since attach: a clean mapped shard
	// snapshots verbatim.
	ms    *mappedShard
	dirty bool
}

// docRow is what a shard keeps of a document once it has analyzed
// it: the ID, the sorted names of the fields it carried — a delete
// takes their lengths out of the field statistics, and the encoder
// lists the ordinals carrying each field — and the Stored map hits
// and snippets return. The fields' text is not kept. A deleted row
// has ID "".
type docRow struct {
	ID     string
	Fields []string
	Stored map[string]string
}

func newShard(ix *Index) *shard {
	return &shard{
		ix:     ix,
		fields: make(map[string]*fieldPostings),
		byID:   make(map[string]int),
	}
}

// setFieldOptions updates the field's options where the shard holds
// the field. A shard creates a field only when a document carries it
// (fieldForLocked reads the options from the registry then), so its
// payload is the same however the options were registered.
func (s *shard) setFieldOptions(field string, opts FieldOptions) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fp := s.fields[field]; fp != nil {
		fp.opts = opts
	}
}

func (s *shard) fieldForLocked(field string) *fieldPostings {
	fp, ok := s.fields[field]
	if !ok {
		fp = &fieldPostings{
			terms: make(map[string]*postingList),
		}
		if opts, ok := s.ix.fieldOpts(field); ok {
			fp.opts = opts
		}
		s.fields[field] = fp
	}
	return fp
}

// addBatch applies the shard's slice of a batch under a single
// write-lock acquisition: idxs selects this shard's documents from
// docs, in slice order, so the result is identical to one batch per
// document without paying one lock round trip each. The documents were
// analyzed by the caller outside the write lock.
func (s *shard) addBatch(docs []Document, analyzed []docTerms, idxs []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range idxs {
		s.addLocked(docs[i], analyzed[i])
	}
}

// addLocked inserts doc under an already-held write lock. Ordinals
// grow monotonically, so postings always append in increasing doc
// order — the invariant the delta-encoded lists rely on.
func (s *shard) addLocked(doc Document, analyzed docTerms) {
	s.dirty = true
	if ord, ok := s.findOrd(doc.ID); ok {
		s.deleteOrdLocked(ord)
	}
	ord := s.numDocs()
	s.docs = append(s.docs, docRow{ID: doc.ID, Fields: s.rowFields(analyzed), Stored: doc.Stored})
	s.byID[doc.ID] = ord
	s.live++
	for _, ft := range analyzed {
		fp := s.fieldForLocked(ft.field)
		fp.setDocLen(ord, len(ft.pos))
		fp.totalLen += len(ft.pos)
		from := int32(0)
		for i, id := range ft.ids {
			term := ft.terms[id]
			// promoteTermLocked copies a still-mapped term onto the
			// heap first, so the append never touches the mapping.
			list := fp.promoteTermLocked(term)
			if list == nil {
				list = &postingList{}
				fp.terms[term] = list
				fp.dict.Store(nil)
			}
			appendPosting(list, ord, ft.pos[from:ft.ends[i]])
			from = ft.ends[i]
		}
	}
}

// rowFields returns the sorted names of analyzed's fields. Rows never
// write to their slice, so a row naming the same fields as the last
// one added shares its slice: a shard whose documents carry one set
// of fields keeps a single copy of the names.
func (s *shard) rowFields(analyzed docTerms) []string {
	prev := s.lastFields
	same := len(prev) == len(analyzed)
	for i := 0; same && i < len(analyzed); i++ {
		same = slices.Contains(prev, analyzed[i].field)
	}
	if same {
		return prev
	}
	names := make([]string, len(analyzed))
	for i, ft := range analyzed {
		names[i] = ft.field
	}
	slices.Sort(names)
	s.lastFields = names
	return names
}

func (s *shard) delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteByIDLocked(id)
}

func (s *shard) deleteByIDLocked(id string) bool {
	ord, ok := s.findOrd(id)
	if !ok {
		return false
	}
	s.dirty = true
	s.deleteOrdLocked(ord)
	return true
}

// deleteOrdLocked tombstones a document ordinal. Postings are lazily
// skipped at query time (posting lists may still reference the
// ordinal) and fully dropped by a rebuild. A base ordinal gets its dead
// bit and leaves the fields attach recorded it carrying; nothing of
// its entry is decoded.
func (s *shard) deleteOrdLocked(ord int) {
	if !s.liveAt(ord) {
		return
	}
	if ord < s.base {
		for i := range s.ms.fields {
			if mf := &s.ms.fields[i]; mf.carries(ord) {
				s.fields[mf.name].dropLen(ord)
			}
		}
		s.ms.kill(ord)
	} else {
		row := &s.docs[ord-s.base]
		delete(s.byID, row.ID)
		for _, field := range row.Fields {
			s.fields[field].dropLen(ord)
		}
		*row = docRow{}
	}
	s.live--
	s.dead++
}

// dropLen removes the deleted ordinal ord's length from the field's
// statistics; a nil field (never registered) has none.
func (fp *fieldPostings) dropLen(ord int) {
	if fp == nil {
		return
	}
	fp.totalLen -= fp.lenAt(ord)
	if ord < len(fp.docLen) {
		fp.docLen[ord] = 0
	}
	fp.docCount--
}

// tombstones counts the shard's dead ordinals.
func (s *shard) tombstones() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dead
}

func (s *shard) lenLive() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

func (s *shard) get(id string) (Document, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ord, ok := s.findOrd(id)
	if !ok {
		return Document{}, false
	}
	// A corrupt mapped entry reads as absent.
	hid, stored := s.hitAt(ord)
	return Document{ID: hid, Stored: stored}, hid != ""
}

// docFreq counts live documents containing the analyzed term.
func (s *shard) docFreq(field, term string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveDFLocked(field, term)
}

func (s *shard) liveDFLocked(field, term string) int {
	fp := s.fields[field]
	if fp == nil {
		return 0
	}
	list := fp.lookup(term)
	if list == nil {
		return 0
	}
	if s.dead == 0 {
		// No tombstones anywhere in the shard: every posting is live,
		// so df is the list length — O(1) instead of a full list walk.
		// CompactContext restores this fast path after deletions.
		return list.n
	}
	n := 0
	it := list.iter()
	for it.next() {
		if s.liveAt(it.doc) {
			n++
		}
	}
	return n
}

// search evaluates q against this shard only, using the globally
// aggregated stats, and returns hits sorted by (score desc, ID asc).
// When k > 0 a bounded min-heap selects the shard-local top k during
// the scan — the global top k can only contain each shard's local top
// k — instead of sorting every match.
//
// A cancelled ctx skips the shard entirely; cancellation mid-eval is
// caught by the stride polls inside the eval loops, and the caller
// (searchWith) discards every partial once any poll has fired.
func (s *shard) search(ctx context.Context, q Query, st *searchStats, k int) []Result {
	if ctx.Err() != nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// A top-k query over one posting list takes the block-max
	// early-exit path (wand.go), which skips whole posting blocks the
	// bounded heap's threshold rules out — same hits, same scores,
	// same order.
	if k > 0 && !s.ix.earlyExitOff.Load() {
		if hits, ok := s.searchTopK(q, st, k); ok {
			return hits
		}
	}
	acc := getAccum(s.numDocs())
	defer putAccum(acc)
	q.eval(s, st, acc)
	if st.canceled() {
		return nil
	}
	if k > 0 {
		return s.topKLocked(acc, k)
	}
	hits := getShardHits()
	for ord, seen := range acc.seen {
		if !seen {
			continue
		}
		id, stored := s.hitAt(ord)
		if id == "" {
			continue
		}
		hits = append(hits, Result{ID: id, Score: acc.scores[ord], Stored: stored})
	}
	slices.SortFunc(hits, cmpShardHits)
	return hits
}

// cmpShardHits orders hits by (score desc, ID asc) — a total order,
// since IDs are unique within a shard.
func cmpShardHits(a, b Result) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if a.ID < b.ID {
		return -1
	}
	if a.ID > b.ID {
		return 1
	}
	return 0
}

// topKLocked selects the k best (score desc, ID asc) matching hits
// with a bounded min-heap: the heap root is the worst retained hit,
// and candidates that cannot beat it are rejected before a Result is
// even built. (score, ID) is a total order — IDs are unique — so the
// selected set and final sort are identical to sorting every match
// and truncating.
func (s *shard) topKLocked(acc *accum, k int) []Result {
	h := &topkHeap{k: k, h: getShardHits()}
	for ord, seen := range acc.seen {
		if !seen {
			continue
		}
		if !s.liveAt(ord) {
			continue
		}
		h.offer(s, ord, acc.scores[ord])
	}
	return h.sorted()
}

// topkHeap is the bounded min-heap both evaluation paths feed: the
// root is the worst retained hit, its score the running threshold the
// block-max evaluator skips against. Candidates must be offered in
// ascending ordinal order so both paths build identical heaps.
type topkHeap struct {
	h []Result
	k int
}

func (t *topkHeap) full() bool { return len(t.h) == t.k }

// threshold is the worst retained score; callers must check full()
// first — with fewer than k hits every candidate must be evaluated.
func (t *topkHeap) threshold() float64 { return t.h[0].Score }

// offer considers the live document at ord with score sc. The score
// decides first and the ID only breaks a tie, compared in place, so a
// mapped candidate the heap rejects decodes nothing; an admitted one
// decodes its ID and Stored map.
func (t *topkHeap) offer(s *shard, ord int, sc float64) {
	// (sc, id) ordering after the heap root is worse: reject.
	if t.full() {
		root := &t.h[0]
		if sc < root.Score || (sc == root.Score && s.idAfter(ord, root.ID)) {
			return
		}
	}
	id, stored := s.hitAt(ord)
	hit := Result{ID: id, Score: sc, Stored: stored}
	if len(t.h) < t.k {
		t.h = append(t.h, hit)
		siftUp(t.h, len(t.h)-1)
		return
	}
	t.h[0] = hit
	siftDown(t.h, 0)
}

func (t *topkHeap) sorted() []Result {
	slices.SortFunc(t.h, cmpShardHits)
	return t.h
}

// heapLess orders the worst hit first (min-heap on the search order).
func heapLess(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func siftUp(h []Result, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Result, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && heapLess(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && heapLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// count returns how many live documents in this shard match q. It
// tests liveness only: on a mapped shard's base, decoding each
// match's doc entry would cost allocations per match.
func (s *shard) count(ctx context.Context, q Query, st *searchStats) int {
	if ctx.Err() != nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	acc := getAccum(s.numDocs())
	defer putAccum(acc)
	q.eval(s, st, acc)
	n := 0
	for ord, seen := range acc.seen {
		if seen && s.liveAt(ord) {
			n++
		}
	}
	return n
}

// facets returns this shard's stored-field value counts for docs
// matching q.
func (s *shard) facets(ctx context.Context, q Query, st *searchStats, field string) map[string]int {
	if ctx.Err() != nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	acc := getAccum(s.numDocs())
	defer putAccum(acc)
	q.eval(s, st, acc)
	counts := make(map[string]int)
	for ord, seen := range acc.seen {
		if !seen {
			continue
		}
		_, stored := s.hitAt(ord)
		if v := stored[field]; v != "" {
			counts[v]++
		}
	}
	return counts
}

// termScorer holds the per-(field, term) constants of the scoring
// formula, hoisted out of the per-posting loop. Corpus-wide inputs
// (live count, document frequency, average field length) come from st
// so scores are identical regardless of shard count.
type termScorer struct {
	ranker   Ranker
	k1, b    float64
	idf      float64
	tfidfIDF float64
	avgLen   float64
	boost    float64
}

// scorerFor resolves the scoring constants for (field, term), or
// ok=false when the term scores nothing (unknown term, df 0).
func (s *shard) scorerFor(fp *fieldPostings, field, term string, st *searchStats) (termScorer, bool) {
	df := st.df[fieldTerm{field, term}]
	if df == 0 {
		return termScorer{}, false
	}
	sc := termScorer{ranker: st.ranker, k1: st.k1, b: st.b}
	sc.idf = math.Log(1 + (float64(st.live)-float64(df)+0.5)/(float64(df)+0.5))
	if st.ranker == RankerTFIDF {
		sc.tfidfIDF = math.Log(float64(st.live+1) / float64(df))
	}
	sc.avgLen = st.avgLen[field]
	if sc.avgLen == 0 {
		sc.avgLen = 1
	}
	sc.boost = fp.opts.Boost
	if sc.boost == 0 {
		sc.boost = 1
	}
	return sc, true
}

// score computes one document's contribution, bit-identical to the
// pre-iterator map evaluator's formula.
func (sc *termScorer) score(tf float64, docLen int) float64 {
	var score float64
	switch sc.ranker {
	case RankerTFIDF:
		// Classic lnc-style TF-IDF with log tf damping and raw
		// inverse document frequency, no length normalization.
		score = (1 + math.Log(tf)) * sc.tfidfIDF
	default: // BM25
		dl := float64(docLen)
		denom := tf + sc.k1*(1-sc.b+sc.b*dl/sc.avgLen)
		score = sc.idf * (tf * (sc.k1 + 1)) / denom
	}
	return sc.boost * score
}

// scoreTermInto scores every live posting of (field, term) into out,
// decoding only the (doc, tf) stream — positions stay untouched. max
// selects disjunctive-max accumulation (across fields) over sum.
func (s *shard) scoreTermInto(fp *fieldPostings, field, term string, st *searchStats, out *accum, max bool) {
	list := fp.lookup(term)
	if list == nil || list.n == 0 {
		return
	}
	sc, ok := s.scorerFor(fp, field, term, st)
	if !ok {
		return
	}
	// Long lists go through the shared cache in decoded form: the
	// varint walk is paid once per mutation era instead of per query.
	if dec := cachedPostings(st.cref, st.stamp, list); dec != nil {
		for i, ord := range dec.ords {
			if i&(cancelStride-1) == cancelStride-1 && st.canceled() {
				return
			}
			doc := int(ord)
			if !s.liveAt(doc) {
				continue
			}
			v := sc.score(float64(dec.tfs[i]), fp.lenAt(doc))
			if max {
				out.mergeMax(doc, v)
			} else {
				out.add(doc, v)
			}
		}
		return
	}
	it := list.iter()
	n := 0
	for it.next() {
		if n++; n&(cancelStride-1) == 0 && st.canceled() {
			return
		}
		if !s.liveAt(it.doc) {
			continue
		}
		v := sc.score(float64(it.tf), fp.lenAt(it.doc))
		if max {
			out.mergeMax(it.doc, v)
		} else {
			out.add(it.doc, v)
		}
	}
}
