package index

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/textproc"
)

// Session is a request-scoped statistics cache. One end-user request
// typically hits the index several times with overlapping terms —
// ranked hits, a total count, a facet sidebar, often for the same
// query — and each call re-aggregated document frequencies and field
// lengths across every shard. A Session remembers what one request
// already aggregated (live count, per-field average lengths, per-term
// document frequencies, query-text analysis) so the second and later
// calls reuse it, taking zero shard locks when nothing new is needed.
//
// Statistics are cached as of first use, which is exactly the point:
// the queries of one request see one consistent statistics snapshot.
// Do not reuse a Session across requests on a mutating index — create
// one per request; creation is cheap.
//
// A Session is safe for concurrent use: the cache is mutex-guarded
// and each query evaluates against its own private searchStats copy.
//
// A Session pins the shard ring it was created on: every query of the
// request aggregates and evaluates against one layout generation, so
// an online Reshard mid-request cannot mix statistics from one layout
// with evaluation on another. (The pinned ring's shards remain fully
// valid after a swap — they just stop receiving new writes, which is
// exactly the request-scoped snapshot contract.)
type Session struct {
	ix *Index
	r  *ring
	// ref/st pin the shared cross-request cache (nil when none) and
	// the mutation era captured at session creation. Every cache
	// operation of the session presents this one stamp, so the session
	// reads one consistent era — its documented snapshot semantics —
	// and anything it stores is never served to readers that started
	// after a later mutation.
	ref *cacheRef
	st  Stamp

	mu     sync.Mutex
	ranker Ranker
	k1, b  float64

	liveOK bool
	live   int
	// avgLen caches per-field average lengths; avgLenOK marks fields
	// aggregated already (a field absent from every shard caches 0,
	// which scoring treats as 1 — same as the uncached lookup miss).
	avgLen   map[string]float64
	avgLenOK map[string]bool
	// df caches document frequencies; dfOK marks aggregated terms
	// (df 0 is a valid cached value).
	df   map[fieldTerm]int
	dfOK map[fieldTerm]bool
	// terms/toks cache query-text analysis keyed by (field, raw);
	// raw caches tokenized query text keyed by the raw text.
	terms map[fieldTerm][]string
	toks  map[fieldTerm][]textproc.Token
	raw   map[string][]string

	// released guards the pooled lifecycle (see Release): sessions
	// recycle through a sync.Pool, and the flag makes double-release
	// a no-op instead of a double-put.
	released atomic.Bool
}

func newSession() *Session {
	return &Session{
		avgLen:   make(map[string]float64),
		avgLenOK: make(map[string]bool),
		df:       make(map[fieldTerm]int),
		dfOK:     make(map[fieldTerm]bool),
		terms:    make(map[fieldTerm][]string),
		toks:     make(map[fieldTerm][]textproc.Token),
		raw:      make(map[string][]string),
	}
}

// Release returns the session's scratch (its struct and memo maps) to
// the process-wide pool. Call it when the request that created the
// session is done; the session must not be used afterwards. Release
// is idempotent and optional — an unreleased session is garbage
// collected exactly as before pooling existed.
func (sess *Session) Release() {
	if sess.released.Swap(true) {
		return
	}
	sess.ix = nil
	sess.r = nil
	sess.ref = nil
	sess.st = Stamp{}
	sess.liveOK = false
	sess.live = 0
	clear(sess.avgLen)
	clear(sess.avgLenOK)
	clear(sess.df)
	clear(sess.dfOK)
	clear(sess.terms)
	clear(sess.toks)
	clear(sess.raw)
	sessionPool.Put(sess)
}

// Session returns a new request-scoped statistics cache over the
// index. The scoring configuration is snapshotted here so every query
// of the request scores under one ranker.
func (ix *Index) Session() *Session {
	sess := getSession()
	sess.released.Store(false)
	sess.ix = ix
	sess.r = ix.ring.Load()
	sess.ranker, sess.k1, sess.b = ix.scoringParams()
	sess.ref = ix.cache.Load()
	sess.st = ix.stampFor(sess.r)
	return sess
}

// statsFor assembles the searchStats q needs, aggregating across
// shards only what this session has not seen yet. The returned stats
// hold private copies of the cached maps' relevant entries, so
// concurrent session queries never share mutable state — including
// the cancellation channel, which is per-call, not per-session.
func (sess *Session) statsFor(ctx context.Context, q Query) *searchStats {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := getSearchStats()
	st.done = ctx.Done()
	st.ranker, st.k1, st.b = sess.ranker, sess.k1, sess.b
	st.cref, st.stamp = sess.ref, sess.st
	// Seed the analysis caches so collectTerms skips re-analysis of
	// raw text this session has already processed.
	for k, v := range sess.terms {
		st.terms[k] = v
	}
	for k, v := range sess.toks {
		st.toks[k] = v
	}
	for k, v := range sess.raw {
		st.raw[k] = v
	}
	need := st.need
	sess.ix.collectTerms(q, need, st)
	for k, v := range st.terms {
		sess.terms[k] = v
	}
	for k, v := range st.toks {
		sess.toks[k] = v
	}
	for k, v := range st.raw {
		sess.raw[k] = v
	}
	if len(need) == 0 {
		// Nothing scores by BM25: same fast path as Index.gatherStats.
		return st
	}
	missingTerms := make(map[fieldTerm]bool)
	missingFields := make(map[string]bool)
	for ft := range need {
		if !sess.dfOK[ft] {
			missingTerms[ft] = true
		}
		if !sess.avgLenOK[ft.field] {
			missingFields[ft.field] = true
		}
	}
	if len(missingTerms) > 0 || len(missingFields) > 0 || !sess.liveOK {
		live, avgLen, df := aggregateStatsCached(sess.ref, sess.st, sess.r, missingFields, missingTerms)
		if !sess.liveOK {
			sess.live = live
			sess.liveOK = true
		}
		for f := range missingFields {
			sess.avgLen[f] = avgLen[f] // 0 when absent from every shard
			sess.avgLenOK[f] = true
		}
		for ft := range missingTerms {
			sess.df[ft] = df[ft]
			sess.dfOK[ft] = true
		}
	}
	st.live = sess.live
	for ft := range need {
		st.df[ft] = sess.df[ft]
		if v := sess.avgLen[ft.field]; v != 0 {
			st.avgLen[ft.field] = v
		}
	}
	return st
}

// RingGen reports the ring generation this session is pinned to,
// the invalidation key for holding sessions across requests.
func (sess *Session) RingGen() uint64 { return sess.r.gen }

// SearchContext is Index.SearchContext evaluated under this session's
// statistics, served from the shared cache when an identical request
// was answered in the same mutation era.
func (sess *Session) SearchContext(ctx context.Context, q Query, opts SearchOptions) ([]Result, error) {
	if q == nil {
		q = AllQuery{}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sess.ref != nil {
		if key, ok := serpKey(q, opts); ok {
			ck := sess.ref.key(kindSERP, key)
			if v, ok := sess.ref.c.get(ck, sess.st); ok {
				return copyResults(v.([]Result)), nil
			}
			hits, err := sess.ix.searchWith(ctx, sess.r, sess.statsFor(ctx, q), q, opts)
			if err != nil {
				return nil, err
			}
			sess.ref.c.put(ck, sess.st, hits, serpBytes(hits))
			return copyResults(hits), nil
		}
	}
	return sess.ix.searchWith(ctx, sess.r, sess.statsFor(ctx, q), q, opts)
}

// CountContext is Index.CountContext evaluated under this session's
// statistics, cached like SearchContext.
func (sess *Session) CountContext(ctx context.Context, q Query, filters map[string]string) (int, error) {
	if q == nil {
		q = AllQuery{}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if sess.ref != nil {
		if key, ok := countKey(q, filters); ok {
			ck := sess.ref.key(kindCount, key)
			if v, ok := sess.ref.c.get(ck, sess.st); ok {
				return v.(int), nil
			}
			n, err := sess.ix.countWith(ctx, sess.r, sess.statsFor(ctx, q), q, filters)
			if err != nil {
				return 0, err
			}
			sess.ref.c.put(ck, sess.st, n, 8)
			return n, nil
		}
	}
	return sess.ix.countWith(ctx, sess.r, sess.statsFor(ctx, q), q, filters)
}

// FacetsContext is Index.FacetsContext evaluated under this session's
// statistics, cached like SearchContext.
func (sess *Session) FacetsContext(ctx context.Context, q Query, field string, filters map[string]string) ([]FacetCount, error) {
	if q == nil {
		q = AllQuery{}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sess.ref != nil {
		if key, ok := facetsKey(q, field, filters); ok {
			ck := sess.ref.key(kindFacets, key)
			if v, ok := sess.ref.c.get(ck, sess.st); ok {
				return copyFacets(v.([]FacetCount)), nil
			}
			fc, err := sess.ix.facetsWith(ctx, sess.r, sess.statsFor(ctx, q), q, field, filters)
			if err != nil {
				return nil, err
			}
			sess.ref.c.put(ck, sess.st, fc, facetBytes(fc))
			return copyFacets(fc), nil
		}
	}
	return sess.ix.facetsWith(ctx, sess.r, sess.statsFor(ctx, q), q, field, filters)
}
