package index

import "sync"

// Request-scratch pooling: every transient a query evaluation needs —
// the aggregated-statistics struct with its maps, the per-shard
// partial-result buffers, the merge cursors, the bounded top-k heap
// backing arrays and the block-max cursor (topkScan in wand.go) —
// recycles through sync.Pools instead of being reallocated per
// request. Two rules make this safe:
//
//  1. Join before release. Every fan-out (runShards) returns only
//     after all shard tasks have returned, even on a cancelled
//     context, so nothing is ever put back while a worker still
//     writes to it.
//  2. Generation checks. Pooled searchStats carry a generation stamp
//     bumped on every release; the fan-out captures the stamp at
//     submit time and each shard task re-checks it before evaluating.
//     A reference that somehow outlived its query (a bug in rule 1)
//     skips the work instead of scribbling on a later query's scratch.

var statsPool = sync.Pool{New: func() any { return newSearchStats() }}

// getSearchStats returns an empty pooled searchStats.
func getSearchStats() *searchStats {
	return statsPool.Get().(*searchStats)
}

// putSearchStats clears st and returns it to the pool. The generation
// bump invalidates any stale reference still carrying the old stamp.
func putSearchStats(st *searchStats) {
	st.gen.Add(1)
	clear(st.avgLen)
	clear(st.df)
	clear(st.terms)
	clear(st.toks)
	clear(st.need)
	clear(st.needFields)
	clear(st.raw)
	st.allFields = nil
	st.live = 0
	st.done = nil
	st.cref = nil
	st.stamp = Stamp{}
	statsPool.Put(st)
}

// slicePool recycles buffers of any slice type; get returns a zeroed
// slice of length n. It is a mutex-guarded freelist rather than a
// sync.Pool on purpose: storing a slice header in a sync.Pool boxes it
// into an interface — one heap allocation per put, which is exactly
// the churn the pool exists to remove. The critical sections are a few
// instructions, far cheaper than the allocation they avoid.
type slicePool[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// slicePoolCap bounds each freelist; beyond it buffers are dropped to
// the GC so a burst can never pin memory forever.
const slicePoolCap = 64

func (sp *slicePool[T]) get(n int) []T {
	sp.mu.Lock()
	var v []T
	if len(sp.free) > 0 {
		v = sp.free[len(sp.free)-1]
		sp.free[len(sp.free)-1] = nil
		sp.free = sp.free[:len(sp.free)-1]
	}
	sp.mu.Unlock()
	if cap(v) < n {
		return make([]T, n)
	}
	v = v[:n]
	var zero T
	for i := range v {
		v[i] = zero
	}
	return v
}

func (sp *slicePool[T]) put(v []T) {
	if v == nil {
		return
	}
	sp.mu.Lock()
	if len(sp.free) < slicePoolCap {
		sp.free = append(sp.free, v[:0])
	}
	sp.mu.Unlock()
}

var (
	partsPool      slicePool[[]Result]
	countsPool     slicePool[int]
	facetPartsPool slicePool[map[string]int]
	headsPool      slicePool[int]
	mergedPool     slicePool[Result]
	shardHitsPool  slicePool[Result]
)

// getShardHits returns an empty hit buffer for a shard's partial
// results (top-k heap backing or the exhaustive path's append target).
// Ownership transfers with the buffer: the shard hands it to
// searchWith inside parts, and searchWith releases all of them after
// the merge.
func getShardHits() []Result { return shardHitsPool.get(0) }

func putShardHits(h []Result) { shardHitsPool.put(h) }
