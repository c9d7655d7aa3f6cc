package index

import (
	"container/list"
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Cross-request result caching. A hosted search platform answers the
// same queries over and over — the same SERP for every visitor of a
// published app page, the same document frequencies for every query
// sharing a term — so one Cache is shared by many indexes (every store
// dataset, every engine vertical) and remembers work across requests.
//
// Correctness rests on generation stamps, not explicit invalidation.
// Every cached value is stamped with the (ring generation, mutation
// version) pair of the index it was computed against; readers pass the
// stamp they captured before evaluating, and a stored value is served
// only when the stamps match exactly. Mutations bump the version
// AFTER they complete, so any value computed concurrently with a
// mutation carries a stamp no post-mutation reader can present — stale
// data dies at the bump without the mutation path ever touching the
// cache.
//
// The cache is size-bounded (bytes, estimated) with LRU eviction, and
// every index attached to it gets a private key namespace, so tenants
// sharing the process share capacity but never collide on keys.

// Stamp identifies one mutation era of one index: the shard-ring
// generation (layout changes) and the mutation version (content and
// configuration changes). Values cached under a stamp are served only
// to readers presenting the same stamp.
type Stamp struct {
	Gen uint64
	Ver uint64
}

// newer reports whether a was taken after b (both counters are
// monotonic, and Gen bumps reset nothing).
func (a Stamp) newer(b Stamp) bool {
	if a.Gen != b.Gen {
		return a.Gen > b.Gen
	}
	return a.Ver > b.Ver
}

// Cache entry kinds. Each kind has its own key grammar; the kind byte
// keeps the grammars from colliding.
const (
	kindSERP uint8 = iota
	kindCount
	kindFacets
	kindDF
	kindAvgLen
	kindLive
	kindPostings
)

// cacheKey addresses one cached value. ns scopes keys to one attached
// index. Posting-list entries key on the list pointer itself: a
// compaction or reshard builds new lists, so entries for the old ones
// simply become unreachable and age out.
type cacheKey struct {
	ns   uint64
	kind uint8
	key  string
	list *postingList
}

type cacheEntry struct {
	key   cacheKey
	stamp Stamp
	bytes int64
	val   any
}

// entryOverhead is the accounted fixed cost of one entry: the entry
// struct, its map slot, its LRU element and key string header.
const entryOverhead = 160

// postingCacheMin is the posting count below which decoded lists are
// not cached: short lists decode faster than a cache round-trip.
const postingCacheMin = 1024

// CacheStats is the operator view of a Cache.
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evicted     uint64 `json:"evicted"`
	Invalidated uint64 `json:"invalidated"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Budget      int64  `json:"budget"`
}

// Cache is a shared, size-bounded, stamp-validated result cache. One
// Cache serves any number of indexes (see Index.AttachCache); all
// methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element

	hits        atomic.Uint64
	misses      atomic.Uint64
	evicted     atomic.Uint64
	invalidated atomic.Uint64
}

// NewCache returns a cache bounded to roughly maxBytes of cached
// values (sizes are estimates: postings and result slices dominate and
// are accounted exactly; per-entry bookkeeping is a fixed charge).
func NewCache(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &Cache{
		budget:  maxBytes,
		lru:     list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.used
	c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evicted:     c.evicted.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     entries,
		Bytes:       bytes,
		Budget:      c.budget,
	}
}

// get returns the value stored under k if its stamp matches st
// exactly. An entry with an older stamp is dead for every future
// reader — it is removed on sight. An entry with a newer stamp is kept
// (the reader captured its stamp before a mutation that a later reader
// already cached past) but not served.
func (c *Cache) get(k cacheKey, st Stamp) (any, bool) {
	c.mu.Lock()
	el, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.stamp != st {
		if st.newer(e.stamp) {
			c.removeLocked(el, e)
			c.mu.Unlock()
			c.invalidated.Add(1)
		} else {
			c.mu.Unlock()
		}
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.mu.Unlock()
	c.hits.Add(1)
	return e.val, true
}

// put stores val under k with stamp st, evicting least-recently-used
// entries to stay within budget. A value larger than the whole budget
// is not cached. An existing entry with a newer stamp wins over the
// incoming one (a read that started before a mutation must not clobber
// fresher data).
func (c *Cache) put(k cacheKey, st Stamp, val any, bytes int64) {
	bytes += entryOverhead + int64(len(k.key))
	if bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		if e.stamp.newer(st) {
			return
		}
		c.removeLocked(el, e)
	}
	for c.used+bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back, back.Value.(*cacheEntry))
		c.evicted.Add(1)
	}
	e := &cacheEntry{key: k, stamp: st, bytes: bytes, val: val}
	c.entries[k] = c.lru.PushFront(e)
	c.used += bytes
}

func (c *Cache) removeLocked(el *list.Element, e *cacheEntry) {
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.used -= e.bytes
}

// cacheRef pairs an attached cache with the attaching index's private
// key namespace. Indexes hold it behind an atomic pointer so
// AttachCache is safe against in-flight queries.
type cacheRef struct {
	c  *Cache
	ns uint64
}

func (ref *cacheRef) key(kind uint8, key string) cacheKey {
	return cacheKey{ns: ref.ns, kind: kind, key: key}
}

func (ref *cacheRef) listKey(l *postingList) cacheKey {
	return cacheKey{ns: ref.ns, kind: kindPostings, list: l}
}

// cacheNSCounter hands out one namespace per AttachCache call,
// process-wide, so two indexes can never share keys even across
// detach/re-attach cycles.
var cacheNSCounter atomic.Uint64

// AttachCache connects the index to a shared cross-request cache (nil
// detaches). Queries consult it for whole SERPs, counts, facets,
// aggregated term statistics and hot decoded posting lists; mutations
// need no cache hooks because every entry is stamped with the ring
// generation and mutation version it was computed under, and readers
// only accept exact stamp matches.
func (ix *Index) AttachCache(c *Cache) {
	if c == nil {
		ix.cache.Store(nil)
		return
	}
	ix.cache.Store(&cacheRef{c: c, ns: cacheNSCounter.Add(1)})
}

// stampFor is the index's current mutation era under ring r. Callers
// capture it before evaluating and pass it to every cache operation of
// that evaluation, so a mutation completing mid-read (which bumps the
// version after it applies) strands the read's stores in the old era
// instead of ever serving them forward.
func (ix *Index) stampFor(r *ring) Stamp {
	return Stamp{Gen: r.gen, Ver: ix.ver.Load()}
}

// bumpVer marks a completed mutation: anything cached before or during
// it is now unservable to new readers.
func (ix *Index) bumpVer() { ix.ver.Add(1) }

// --- key construction ---------------------------------------------

// Keys are built from length-prefixed components so adjacent fields
// can never alias ("ab"+"c" vs "a"+"bc").
func appendComp(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

// appendQueryKey serializes q canonically. The bool return is false
// for query shapes the cache does not key (nil sub-queries embedded in
// bools keep a canonical tag, so every package query type serializes).
func appendQueryKey(b []byte, q Query) ([]byte, bool) {
	switch t := q.(type) {
	case nil:
		return append(b, 'n'), true
	case AllQuery:
		return append(b, 'A'), true
	case TermQuery:
		b = append(b, 'T')
		b = appendComp(b, t.Field)
		return appendComp(b, t.Term), true
	case PrefixQuery:
		b = append(b, 'P')
		b = appendComp(b, t.Field)
		return appendComp(b, t.Prefix), true
	case PhraseQuery:
		b = append(b, 'H')
		b = appendComp(b, t.Field)
		return appendComp(b, t.Text), true
	case MatchQuery:
		b = append(b, 'M')
		b = strconv.AppendInt(b, int64(len(t.Fields)), 10)
		b = append(b, ';')
		for _, f := range t.Fields {
			b = appendComp(b, f)
		}
		b = appendComp(b, t.Text)
		return appendComp(b, t.Operator), true
	case BoolQuery:
		b = append(b, 'B')
		var ok bool
		for _, group := range []struct {
			tag  byte
			subs []Query
		}{{'m', t.Must}, {'s', t.Should}, {'x', t.MustNot}} {
			b = append(b, group.tag)
			b = strconv.AppendInt(b, int64(len(group.subs)), 10)
			b = append(b, ';')
			for _, sub := range group.subs {
				if b, ok = appendQueryKey(b, sub); !ok {
					return nil, false
				}
			}
		}
		return b, true
	default:
		return nil, false
	}
}

// serpKey keys one (query, options) SERP. ok is false when the query
// is an unknown implementation and must not be cached.
func serpKey(q Query, opts SearchOptions) (string, bool) {
	b, ok := appendQueryKey(make([]byte, 0, 64), q)
	if !ok {
		return "", false
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.Limit), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(opts.Offset), 10)
	b = append(b, ',')
	b = appendComp(b, opts.SnippetField)
	return string(b), true
}

// countKey keys one query's count.
func countKey(q Query) (string, bool) {
	b, ok := appendQueryKey(make([]byte, 0, 48), q)
	return string(b), ok
}

// facetsKey keys one (query, facet field) facet table.
func facetsKey(q Query, field string) (string, bool) {
	b, ok := appendQueryKey(make([]byte, 0, 48), q)
	if !ok {
		return "", false
	}
	b = append(b, '|')
	b = appendComp(b, field)
	return string(b), true
}

func dfKey(ft fieldTerm) string {
	b := appendComp(make([]byte, 0, 32), ft.field)
	return string(appendComp(b, ft.term))
}

// --- size estimates ------------------------------------------------

// serpBytes estimates the retained size of a cached result slice.
// Stored maps are shared with the index's own document table (Results
// reference, never copy them), so they are charged as pointers.
func serpBytes(hits []Result) int64 {
	n := int64(len(hits)) * 48
	for i := range hits {
		n += int64(len(hits[i].ID) + len(hits[i].Snippet))
	}
	return n
}

func facetBytes(fc []FacetCount) int64 {
	n := int64(len(fc)) * 24
	for i := range fc {
		n += int64(len(fc[i].Value))
	}
	return n
}

// --- the read path --------------------------------------------------

// answerKind describes one kind of cached whole answer: its key-grammar
// tag, its size estimate, and the copy a caller receives so that
// appending to or reslicing its result cannot corrupt the cached value
// (Stored maps stay shared, as they already are with the index).
type answerKind[T any] struct {
	kind  uint8
	bytes func(T) int64
	clone func(T) T
}

var (
	serpAnswers  = answerKind[[]Result]{kindSERP, serpBytes, slices.Clone[[]Result]}
	countAnswers = answerKind[int]{kindCount, func(int) int64 { return 8 }, func(n int) int { return n }}
	facetAnswers = answerKind[[]FacetCount]{kindFacets, facetBytes, slices.Clone[[]FacetCount]}
)

// read is the one read path of SearchContext, CountContext and
// FacetsContext. It loads the shard ring and the mutation stamp once,
// so statistics, evaluation and any cache entry belong to one layout
// and one era. An identical request answered in that era is served
// from the attached cache; otherwise read gathers statistics for q,
// evaluates, and stores the answer. key runs only when a cache is
// attached; ok=false (a query type the cache cannot key) bypasses it.
func (a answerKind[T]) read(ctx context.Context, ix *Index, q Query, key func() (string, bool), eval func(*ring, *searchStats) (T, error)) (T, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	r := ix.ring.Load()
	ref := ix.cache.Load()
	stamp := ix.stampFor(r)
	if ref != nil {
		if k, ok := key(); ok {
			ck := ref.key(a.kind, k)
			if v, hit := ref.c.get(ck, stamp); hit {
				return a.clone(v.(T)), nil
			}
			v, err := eval(r, ix.gatherStats(ctx, r, ref, stamp, q))
			if err == nil {
				ref.c.put(ck, stamp, v, a.bytes(v))
				v = a.clone(v)
			}
			return v, err
		}
	}
	return eval(r, ix.gatherStats(ctx, r, ref, stamp, q))
}

// --- decoded posting lists ----------------------------------------

// decodedList is a posting list's (ordinal, tf) stream decoded into
// flat arrays: the accumulator, count and facet paths iterate it
// without re-walking the varint blocks. Read-only once cached.
type decodedList struct {
	ords []int32
	tfs  []int32
}

func decodePostings(list *postingList) *decodedList {
	dec := &decodedList{
		ords: make([]int32, 0, list.n),
		tfs:  make([]int32, 0, list.n),
	}
	it := list.iter()
	for it.next() {
		dec.ords = append(dec.ords, int32(it.doc))
		dec.tfs = append(dec.tfs, int32(it.tf))
	}
	return dec
}

// cachedPostings returns the decoded form of list, through the cache
// when one is attached and the list is long enough to be worth it.
func cachedPostings(ref *cacheRef, st Stamp, list *postingList) *decodedList {
	if ref == nil || list.n < postingCacheMin {
		return nil
	}
	k := ref.listKey(list)
	if v, ok := ref.c.get(k, st); ok {
		return v.(*decodedList)
	}
	dec := decodePostings(list)
	ref.c.put(k, st, dec, int64(len(dec.ords))*8)
	return dec
}
