package index

import (
	"reflect"
	"testing"
)

func TestFacetsOverMatch(t *testing.T) {
	ix := sampleIndex(t)
	got := ix.mustFacets(MatchQuery{Text: "game"}, "producer")
	want := []FacetCount{
		{Value: "Nintendo", N: 2},
		{Value: "Ensemble", N: 1},
		{Value: "Epic", N: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facets = %v", got)
	}
}

// TestFacetsRespectFilters: facets count only the documents a
// restricting clause lets through.
func TestFacetsRespectFilters(t *testing.T) {
	ix := sampleIndex(t)
	got := ix.mustFacets(BoolQuery{Must: []Query{AllQuery{}, TermQuery{Field: "title", Term: "zelda"}}}, "producer")
	if len(got) != 1 || got[0].N != 2 {
		t.Fatalf("filtered facets = %v", got)
	}
}

func TestFacetsSkipDeletedAndEmpty(t *testing.T) {
	ix := sampleIndex(t)
	ix.Delete("g1")
	got := ix.mustFacets(nil, "producer")
	for _, f := range got {
		if f.Value == "Nintendo" && f.N != 1 {
			t.Fatalf("deleted doc counted: %v", got)
		}
	}
	if got := ix.mustFacets(nil, "nonexistent"); len(got) != 0 {
		t.Fatalf("phantom field facets = %v", got)
	}
}
