package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/webcorpus"
)

func suggestEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(generated(webcorpus.Config{Seed: 51, PagesPerSite: 4}))
	issue := func(q string, times int) {
		for i := 0; i < times; i++ {
			if _, err := e.Search(context.Background(), Request{Query: q}); err != nil {
				t.Fatal(err)
			}
		}
	}
	issue("zelda walkthrough", 5)
	issue("zelda review", 3)
	issue("zelda spirit tracks", 1)
	issue("halo wars", 4)
	return e
}

func TestSuggestRanksByFrequency(t *testing.T) {
	e := suggestEngine(t)
	got := e.Suggest("zelda", 3)
	want := []string{"zelda walkthrough", "zelda review", "zelda spirit tracks"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Suggest = %v, want %v", got, want)
	}
}

func TestSuggestCaseInsensitiveAndTrimmed(t *testing.T) {
	e := suggestEngine(t)
	got := e.Suggest("  ZeLdA", 2)
	if len(got) != 2 || got[0] != "zelda walkthrough" {
		t.Fatalf("Suggest = %v", got)
	}
}

func TestSuggestExcludesExactPrefix(t *testing.T) {
	e := suggestEngine(t)
	for _, s := range e.Suggest("halo wars", 5) {
		if s == "halo wars" {
			t.Fatal("exact query suggested back")
		}
	}
}

func TestSuggestEmptyPrefix(t *testing.T) {
	e := suggestEngine(t)
	if got := e.Suggest("", 5); got != nil {
		t.Fatalf("empty prefix = %v", got)
	}
	if got := e.Suggest("zzznothing", 5); len(got) != 0 {
		t.Fatalf("no-match prefix = %v", got)
	}
}

func TestSuggestSeesNewQueries(t *testing.T) {
	e := suggestEngine(t)
	if got := e.Suggest("wine", 5); len(got) != 0 {
		t.Fatalf("unexpected suggestions %v", got)
	}
	e.Search(context.Background(), Request{Query: "wine tasting"})
	got := e.Suggest("wine", 5)
	if len(got) != 1 || got[0] != "wine tasting" {
		t.Fatalf("new query not suggested: %v", got)
	}
}

func TestSuggestDefaultLimit(t *testing.T) {
	e := New(generated(webcorpus.Config{Seed: 52, PagesPerSite: 4}))
	for i := 0; i < 10; i++ {
		e.Search(context.Background(), Request{Query: "common prefix " + string(rune('a'+i))})
	}
	if got := e.Suggest("common", 0); len(got) != 5 {
		t.Fatalf("default limit = %d", len(got))
	}
}
