package engine

import (
	"context"
	"testing"

	"repro/internal/webcorpus"
)

func TestRelatedQueries(t *testing.T) {
	e := New(generated(webcorpus.Config{Seed: 61, PagesPerSite: 4}))
	issue := func(q string, times int) {
		for i := 0; i < times; i++ {
			e.Search(context.Background(), Request{Query: q})
		}
	}
	issue("zelda walkthrough", 4)
	issue("zelda review", 2)
	issue("halo review", 3)
	issue("wine tasting", 5)

	rel := e.RelatedQueries("zelda games", 5)
	if len(rel) < 2 {
		t.Fatalf("related = %v", rel)
	}
	if rel[0] != "zelda walkthrough" || rel[1] != "zelda review" {
		t.Errorf("ranking = %v", rel)
	}
	for _, r := range rel {
		if r == "wine tasting" {
			t.Error("unrelated query surfaced")
		}
	}
}

func TestRelatedQueriesExcludesSelf(t *testing.T) {
	e := New(generated(webcorpus.Config{Seed: 62, PagesPerSite: 4}))
	e.Search(context.Background(), Request{Query: "halo review"})
	e.Search(context.Background(), Request{Query: "halo trailer"})
	for _, r := range e.RelatedQueries("Halo Review", 5) {
		if r == "halo review" {
			t.Fatal("query suggested itself")
		}
	}
}

func TestRelatedQueriesStemMatch(t *testing.T) {
	e := New(generated(webcorpus.Config{Seed: 63, PagesPerSite: 4}))
	e.Search(context.Background(), Request{Query: "game reviews"})
	rel := e.RelatedQueries("best review", 5)
	if len(rel) != 1 || rel[0] != "game reviews" {
		t.Fatalf("stemmed relation missed: %v", rel)
	}
}

func TestRelatedQueriesEmpty(t *testing.T) {
	e := New(generated(webcorpus.Config{Seed: 64, PagesPerSite: 4}))
	if rel := e.RelatedQueries("", 5); rel != nil {
		t.Fatalf("empty query related = %v", rel)
	}
	if rel := e.RelatedQueries("the of", 5); rel != nil {
		t.Fatalf("stopword query related = %v", rel)
	}
}
