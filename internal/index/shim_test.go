package index

import "context"

// Test-side shims over the ctx-first API. The suite's queries never
// carry a deadline, so each shim evaluates under a background context
// and treats an error — impossible without cancellation — as test
// corruption worth a panic rather than a silently skewed expectation.

func (ix *Index) mustSearch(q Query, opts SearchOptions) []Result {
	rs, err := ix.SearchContext(context.Background(), q, opts)
	if err != nil {
		panic(err)
	}
	return rs
}

func (ix *Index) mustCount(q Query) int {
	n, err := ix.CountContext(context.Background(), q)
	if err != nil {
		panic(err)
	}
	return n
}

func (ix *Index) mustFacets(q Query, field string) []FacetCount {
	fc, err := ix.FacetsContext(context.Background(), q, field)
	if err != nil {
		panic(err)
	}
	return fc
}
