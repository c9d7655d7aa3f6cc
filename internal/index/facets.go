package index

import "context"

// FacetCount is one stored-field value with its hit count.
type FacetCount struct {
	Value string
	N     int
}

// FacetsContext counts the distinct values of a stored field across
// every live document matching q (before pagination). Search
// applications use this for the filter sidebar: producer counts next
// to inventory results, site counts next to web results. Each shard
// counts its own matches in parallel; the per-shard maps are summed
// before sorting, so counts are exact across shard boundaries.
// Cancelling ctx stops evaluation within one posting block per shard
// and returns ctx.Err().
func (ix *Index) FacetsContext(ctx context.Context, q Query, field string) ([]FacetCount, error) {
	if q == nil {
		q = AllQuery{}
	}
	return facetAnswers.read(ctx, ix, q,
		func() (string, bool) { return facetsKey(q, field) },
		func(r *ring, st *searchStats) ([]FacetCount, error) { return ix.facetsWith(ctx, r, st, q, field) })
}

func (ix *Index) facetsWith(ctx context.Context, r *ring, st *searchStats, q Query, field string) ([]FacetCount, error) {
	defer putSearchStats(st)
	parts := facetPartsPool.get(len(r.shards))
	defer facetPartsPool.put(parts)
	gen := st.gen.Load()
	ix.runShards(st, r, func(i int, s *shard) {
		if st.gen.Load() != gen {
			return
		}
		parts[i] = s.facets(ctx, q, st, field)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return mergeFacets(parts), nil
}
