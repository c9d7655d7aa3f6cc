package index

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/textproc"
)

// This file holds the cross-shard machinery: global BM25 statistics
// aggregation, the parallel fan-out helper, and the k-way merges that
// combine per-shard partial results into one globally ranked answer.

// fieldTerm keys the global document-frequency table.
type fieldTerm struct {
	field, term string
}

// searchStats carries the corpus-wide statistics one query evaluation
// needs: live doc count, per-field average lengths, and document
// frequencies for every term the query scores, all aggregated across
// shards before evaluation begins. It also snapshots the scoring
// configuration so a concurrent SetRanker cannot split one search
// across two rankers, and caches query-text analysis so each shard
// evaluates without re-running analyzers under its read lock.
//
// Stats are gathered with at most one shard lock held at a time, and
// evaluation holds only the evaluating shard's lock, so no code path
// ever waits on a second shard lock while holding a first — the
// classic sharded-reader deadlock is structurally impossible.
type searchStats struct {
	live   int
	ranker Ranker
	k1, b  float64
	avgLen map[string]float64
	df     map[fieldTerm]int
	// terms caches AnalyzeTerms output keyed by (field, raw text);
	// toks caches full Analyze output (with positions) for phrases.
	terms map[fieldTerm][]string
	toks  map[fieldTerm][]textproc.Token
	// gen is the scratch generation stamp (see scratch.go): bumped
	// every time this pooled struct is released, so a stale reference
	// from a past query can be detected before it evaluates.
	gen atomic.Uint32
	// need/needFields are gatherStats working maps, pooled with the
	// struct; raw memoizes strings.Fields(strings.ToLower(text)) per
	// query text, and allFields memoizes the index's registered field
	// list, so MatchQuery evaluation never re-derives either per shard.
	need       map[fieldTerm]bool
	needFields map[string]bool
	raw        map[string][]string
	allFields  []string
	// done, when non-nil, is the request context's Done channel. The
	// evaluation loops poll it once per posting block (cancelStride),
	// so a cancelled query stops scoring within one block boundary
	// instead of burning CPU to the end of every posting list. A nil
	// channel (background context) costs one nil check per block.
	done <-chan struct{}
	// cref/stamp carry the attached cross-request cache (nil when none)
	// and the mutation era this evaluation was stamped with, so shard
	// evaluation can fetch and store decoded posting lists.
	cref  *cacheRef
	stamp Stamp
}

// cancelStride is how many postings an evaluation loop scores between
// cancellation polls. It equals the posting block size, so the pinned
// contract is "a cancelled query stops within one block".
const cancelStride = postingBlockSize

// canceled reports whether the request driving this evaluation has
// been cancelled. It never blocks.
func (st *searchStats) canceled() bool {
	if st.done == nil {
		return false
	}
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

func newSearchStats() *searchStats {
	return &searchStats{
		avgLen:     make(map[string]float64),
		df:         make(map[fieldTerm]int),
		terms:      make(map[fieldTerm][]string),
		toks:       make(map[fieldTerm][]textproc.Token),
		need:       make(map[fieldTerm]bool),
		needFields: make(map[string]bool),
		raw:        make(map[string][]string),
	}
}

// rawTokens returns strings.Fields(strings.ToLower(text)) through the
// per-query memo, so shard evaluation and plan building never re-run
// the tokenizer collectTerms already paid for. It never writes the
// memo: shard evaluation runs concurrently over one shared stats
// struct, so misses (only possible off the public query paths)
// recompute without storing.
func (st *searchStats) rawTokens(text string) []string {
	if toks, ok := st.raw[text]; ok {
		return toks
	}
	return strings.Fields(strings.ToLower(text))
}

// memoRawTokens is rawTokens for the single-threaded collect phase,
// where storing into the memo is safe.
func (st *searchStats) memoRawTokens(text string) []string {
	if toks, ok := st.raw[text]; ok {
		return toks
	}
	toks := strings.Fields(strings.ToLower(text))
	st.raw[text] = toks
	return toks
}

// fieldsOf resolves a MatchQuery's field list: its own when explicit,
// else the memoized index-wide registry (identical to the per-shard
// expansion it replaces — shards skip unknown fields via fp == nil,
// and both lists are sorted).
func (st *searchStats) fieldsOf(explicit []string) []string {
	if len(explicit) > 0 {
		return explicit
	}
	return st.allFields
}

// analyzedTerms returns the cached analysis of raw text for field,
// falling back to the shard's own analyzer on a cache miss.
func (st *searchStats) analyzedTerms(fp *fieldPostings, field, raw string) []string {
	if terms, ok := st.terms[fieldTerm{field, raw}]; ok {
		return terms
	}
	return fp.opts.Analyzer.AnalyzeTerms(raw)
}

// analyzedToks is analyzedTerms for position-carrying tokens.
func (st *searchStats) analyzedToks(fp *fieldPostings, field, raw string) []textproc.Token {
	if toks, ok := st.toks[fieldTerm{field, raw}]; ok {
		return toks
	}
	return fp.opts.Analyzer.Analyze(raw)
}

// gatherStats walks q to find every (field, term) pair it will score
// and fills a pooled searchStats with what scoring them needs: the live
// doc count, the fields' average lengths and the terms' document
// frequencies. With a cache attached, values stamped in this era are
// served from it, and only the misses pay a pass over r's shards, whose
// results are then cached. The pass holds one shard lock at a time,
// never nested, and sums integers, so the derived floats are
// bit-identical for any shard count. The ring is supplied by the caller
// so statistics and evaluation read the same layout generation even if
// a reshard swaps rings mid-request. The context's Done channel is
// carried into the stats so every evaluation loop downstream can poll
// for cancellation.
func (ix *Index) gatherStats(ctx context.Context, r *ring, ref *cacheRef, stamp Stamp, q Query) *searchStats {
	st := getSearchStats()
	st.done = ctx.Done()
	st.ranker, st.k1, st.b = ix.scoringParams()
	st.cref, st.stamp = ref, stamp
	need := st.need
	ix.collectTerms(q, need, st)
	if len(need) == 0 {
		// Nothing scores by BM25 (AllQuery, PrefixQuery): skip the
		// aggregation pass entirely.
		return st
	}
	needFields := st.needFields
	for ft := range need {
		needFields[ft.field] = true
	}
	liveOK := false
	if ref != nil {
		// need and needFields are pooled working maps: dropping what
		// the cache answers leaves exactly the misses in them.
		for f := range needFields {
			if v, ok := ref.c.get(ref.key(kindAvgLen, f), stamp); ok {
				st.avgLen[f] = v.(float64)
				delete(needFields, f)
			}
		}
		for ft := range need {
			if v, ok := ref.c.get(ref.key(kindDF, dfKey(ft)), stamp); ok {
				st.df[ft] = v.(int)
				delete(need, ft)
			}
		}
		if v, ok := ref.c.get(ref.key(kindLive, ""), stamp); ok {
			st.live, liveOK = v.(int), true
		}
		if liveOK && len(needFields) == 0 && len(need) == 0 {
			return st
		}
	}
	// The handful of requested fields makes a linear-scanned slice
	// cheaper than a map — and allocation-free at steady state.
	type lenAcc struct {
		field              string
		totalLen, docCount int
		present            bool
	}
	var accBuf [8]lenAcc
	acc := accBuf[:0]
	for f := range needFields {
		acc = append(acc, lenAcc{field: f})
	}
	live := 0
	for _, s := range r.shards {
		s.mu.RLock()
		live += s.live
		for i := range acc {
			if fp := s.fields[acc[i].field]; fp != nil {
				acc[i].totalLen += fp.totalLen
				acc[i].docCount += fp.docCount
				acc[i].present = true
			}
		}
		for ft := range need {
			st.df[ft] += s.liveDFLocked(ft.field, ft.term)
		}
		s.mu.RUnlock()
	}
	// avgLen gets an entry only for fields some shard actually
	// carries, mirroring the scoring fallback to 1.
	for i := range acc {
		if !acc[i].present {
			continue
		}
		v := 1.0
		if acc[i].docCount > 0 {
			v = float64(acc[i].totalLen) / float64(acc[i].docCount)
		}
		st.avgLen[acc[i].field] = v
		if ref != nil {
			ref.c.put(ref.key(kindAvgLen, acc[i].field), stamp, v, 8)
		}
	}
	if ref != nil {
		for ft := range need {
			ref.c.put(ref.key(kindDF, dfKey(ft)), stamp, st.df[ft], 8)
		}
	}
	if !liveOK {
		st.live = live
		if ref != nil {
			ref.c.put(ref.key(kindLive, ""), stamp, live, 8)
		}
	}
	return st
}

// collectTerms records every (field, analyzed term) pair q scores and
// fills st's analysis caches so shard evaluation never re-runs an
// analyzer under a shard lock. Text that appears twice in q (the same
// words under several Bool clauses) is analyzed once. Analysis uses
// the index-level field registry, which SetFieldOptions keeps in
// lockstep with every shard's per-field options.
func (ix *Index) collectTerms(q Query, need map[fieldTerm]bool, st *searchStats) {
	switch t := q.(type) {
	case MatchQuery:
		fields := t.Fields
		if len(fields) == 0 {
			if st.allFields == nil {
				st.allFields = ix.fieldsCached()
			}
			fields = st.allFields
		}
		rawTerms := st.memoRawTokens(t.Text)
		for _, field := range fields {
			opts, ok := ix.fieldOpts(field)
			if !ok {
				continue
			}
			for _, raw := range rawTerms {
				key := fieldTerm{field, raw}
				terms, ok := st.terms[key]
				if !ok {
					terms = ix.analyzedTermsCached(opts, field, raw)
					st.terms[key] = terms
				}
				for _, term := range terms {
					need[fieldTerm{field, term}] = true
				}
			}
		}
	case TermQuery:
		opts, ok := ix.fieldOpts(t.Field)
		if !ok {
			return
		}
		key := fieldTerm{t.Field, t.Term}
		terms, ok := st.terms[key]
		if !ok {
			terms = ix.analyzedTermsCached(opts, t.Field, t.Term)
			st.terms[key] = terms
		}
		if len(terms) > 0 {
			need[fieldTerm{t.Field, terms[0]}] = true
		}
	case PhraseQuery:
		opts, ok := ix.fieldOpts(t.Field)
		if !ok {
			return
		}
		key := fieldTerm{t.Field, t.Text}
		toks, ok := st.toks[key]
		if !ok {
			toks = opts.Analyzer.Analyze(t.Text)
			st.toks[key] = toks
		}
		if len(toks) > 0 {
			// Phrase scoring is anchored on the first term's BM25 score.
			need[fieldTerm{t.Field, toks[0].Term}] = true
		}
	case BoolQuery:
		for _, sub := range t.Must {
			ix.collectTerms(sub, need, st)
		}
		for _, sub := range t.Should {
			ix.collectTerms(sub, need, st)
		}
		for _, sub := range t.MustNot {
			ix.collectTerms(sub, need, st)
		}
	}
}

// eachShard runs fn once per shard of the ring, in parallel when
// there is more than one shard. fn must only take its own shard's
// lock.
func eachShard(r *ring, fn func(i int, s *shard)) {
	fanOut(len(r.shards), func(i int) { fn(i, r.shards[i]) })
}

// fanOut runs fn for 0..n-1, in parallel goroutines when n > 1: the
// fan-out of per-shard maintenance (eachShard) and of restore's shard
// attach. Query evaluation runs on the shared executor (runShards in
// executor.go) instead.
func fanOut(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// mergeHits k-way merges per-shard hit lists (each already sorted by
// score desc, ID asc) into one globally ordered list. When cap > 0 the
// merge stops after cap hits. Shard counts are small, so a linear scan
// for the best head beats heap bookkeeping.
// The returned slice comes from a pool; callers release it with
// mergedPool.put when the request's results have been copied out.
func mergeHits(parts [][]Result, cap int) []Result {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if cap <= 0 || cap > total {
		cap = total
	}
	out := mergedPool.get(0)
	heads := headsPool.get(len(parts))
	defer headsPool.put(heads)
	for len(out) < cap {
		best := -1
		for i, p := range parts {
			h := heads[i]
			if h >= len(p) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := &parts[best][heads[best]]
			c := &p[h]
			if c.Score > b.Score || (c.Score == b.Score && c.ID < b.ID) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	return out
}

// mergeFacets sums per-shard facet count maps and returns them sorted
// by count desc, value asc.
func mergeFacets(parts []map[string]int) []FacetCount {
	counts := make(map[string]int)
	for _, p := range parts {
		for v, n := range p {
			counts[v] += n
		}
	}
	out := make([]FacetCount, 0, len(counts))
	for v, n := range counts {
		out = append(out, FacetCount{Value: v, N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Value < out[j].Value
	})
	return out
}
