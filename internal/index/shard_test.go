package index

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// shardCorpus builds the same moderately sized corpus into an index
// with the given shard count: enough docs that every shard of a
// 4-shard index owns several, with shared and unique terms, stored
// facet values, and varied field lengths.
func shardCorpus(t testing.TB, opts ...Option) *Index {
	t.Helper()
	ix := New(opts...)
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	for i := 0; i < 60; i++ {
		ix.Add(shardDoc(i))
	}
	return ix
}

// shardDoc is shardCorpus's document i.
func shardDoc(i int) Document {
	producers := []string{"Nintendo", "Ensemble", "Epic"}
	body := fmt.Sprintf("shared corpus document number%d", i)
	if i%3 == 0 {
		body += " zelda adventure exploration"
	}
	if i%4 == 0 {
		body += " halo strategy"
	}
	return Document{
		ID:     fmt.Sprintf("doc%02d", i),
		Fields: map[string]string{"title": fmt.Sprintf("Title %d", i), "body": body},
		Stored: map[string]string{"producer": producers[i%len(producers)]},
	}
}

func shardQueries() map[string]Query {
	return map[string]Query{
		"match-or":  MatchQuery{Text: "zelda strategy"},
		"match-and": MatchQuery{Text: "zelda halo", Operator: "and"},
		"term":      TermQuery{Field: "body", Term: "adventure"},
		"phrase":    PhraseQuery{Field: "body", Text: "zelda adventure"},
		"prefix":    PrefixQuery{Field: "body", Prefix: "numb"},
		"bool": BoolQuery{
			Must:    []Query{MatchQuery{Text: "shared"}},
			Should:  []Query{TermQuery{Field: "body", Term: "halo"}},
			MustNot: []Query{TermQuery{Field: "body", Term: "number7"}},
		},
		"all": AllQuery{},
	}
}

// TestWithShardsEquivalence: every query type must return identical
// IDs, identical scores (BM25 global stats are aggregated exactly) and
// identical order no matter how many shards the index is split into.
func TestWithShardsEquivalence(t *testing.T) {
	base := shardCorpus(t, WithShards(1))
	for _, n := range []int{2, 3, 8} {
		sharded := shardCorpus(t, WithShards(n))
		if got := sharded.NumShards(); got != n {
			t.Fatalf("NumShards = %d, want %d", got, n)
		}
		for name, q := range shardQueries() {
			want := base.mustSearch(q, SearchOptions{})
			got := sharded.mustSearch(q, SearchOptions{})
			if len(want) != len(got) {
				t.Fatalf("shards=%d %s: %d hits, want %d", n, name, len(got), len(want))
			}
			for i := range want {
				if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
					t.Fatalf("shards=%d %s hit %d: got %s@%v, want %s@%v",
						n, name, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
			if bc, sc := base.mustCount(q), sharded.mustCount(q); bc != sc {
				t.Fatalf("shards=%d %s: Count %d, want %d", n, name, sc, bc)
			}
		}
		if bd, sd := base.DocFreq("body", "zelda"), sharded.DocFreq("body", "zelda"); bd != sd {
			t.Fatalf("shards=%d DocFreq %d, want %d", n, sd, bd)
		}
	}
}

// TestWithShards1PreRefactorRanking pins the single-shard path to the
// pre-refactor rankings of the classic sample corpus: title boost and
// BM25 length normalization must place the shorter boosted title first.
func TestWithShards1PreRefactorRanking(t *testing.T) {
	ix := New(WithShards(1))
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	docs := []Document{
		{ID: "g1", Fields: map[string]string{"title": "The Legend of Zelda", "desc": "An adventure game with puzzles and exploration"}, Stored: map[string]string{"producer": "Nintendo"}},
		{ID: "g2", Fields: map[string]string{"title": "Halo Wars", "desc": "A strategy game set in the Halo universe"}, Stored: map[string]string{"producer": "Ensemble"}},
		{ID: "g3", Fields: map[string]string{"title": "Gears of War", "desc": "A shooter game with cover mechanics"}, Stored: map[string]string{"producer": "Epic"}},
		{ID: "g4", Fields: map[string]string{"title": "Zelda Spirit Tracks", "desc": "A handheld adventure game in the Zelda series"}, Stored: map[string]string{"producer": "Nintendo"}},
	}
	if err := ix.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	got := ids(ix.mustSearch(MatchQuery{Text: "zelda"}, SearchOptions{}))
	if len(got) != 2 || got[0] != "g1" || got[1] != "g4" {
		t.Fatalf("zelda ranking = %v, want [g1 g4]", got)
	}
	if got := ids(ix.mustSearch(MatchQuery{Text: "zelda puzzles", Operator: "and"}, SearchOptions{})); len(got) != 1 || got[0] != "g1" {
		t.Fatalf("AND ranking = %v, want [g1]", got)
	}
}

// TestCrossShardFacetsSummation: facet counts must be exact sums over
// documents that live in different shards.
func TestCrossShardFacetsSummation(t *testing.T) {
	for _, n := range []int{1, 4} {
		ix := shardCorpus(t, WithShards(n))
		got := ix.mustFacets(AllQuery{}, "producer")
		if len(got) != 3 {
			t.Fatalf("shards=%d facets = %v", n, got)
		}
		total := 0
		for _, f := range got {
			total += f.N
			if f.N != 20 {
				t.Fatalf("shards=%d producer %s count = %d, want 20", n, f.Value, f.N)
			}
		}
		if total != 60 {
			t.Fatalf("shards=%d facet total = %d, want 60", n, total)
		}
		// Restricted query: every third doc mentions zelda.
		zelda := ix.mustFacets(MatchQuery{Text: "zelda"}, "producer")
		zTotal := 0
		for _, f := range zelda {
			zTotal += f.N
		}
		if zTotal != 20 {
			t.Fatalf("shards=%d zelda facet total = %d, want 20", n, zTotal)
		}
	}
}

// TestDeleteCompactNonZeroShard deletes and compacts a document that
// routes to a shard other than shard 0, then verifies it is gone from
// search, facets and document-frequency stats.
func TestDeleteCompactNonZeroShard(t *testing.T) {
	ix := New(WithShards(4))
	r := ix.ring.Load()
	victim := ""
	for i := 0; i < 32 && victim == ""; i++ {
		id := fmt.Sprintf("pick%d", i)
		if r.shardFor(id) != r.shards[0] {
			victim = id
		}
	}
	if victim == "" {
		t.Fatal("no ID routed off shard 0")
	}
	ix.Add(Document{ID: victim, Fields: map[string]string{"body": "rarestterm common"}, Stored: map[string]string{"kind": "victim"}})
	ix.Add(Document{ID: "keeper", Fields: map[string]string{"body": "common words"}, Stored: map[string]string{"kind": "keeper"}})
	if !ix.Delete(victim) {
		t.Fatal("Delete returned false")
	}
	if err := ix.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	if rs := ix.mustSearch(MatchQuery{Text: "rarestterm"}, SearchOptions{}); len(rs) != 0 {
		t.Fatalf("deleted doc still matches: %v", ids(rs))
	}
	if df := ix.DocFreq("body", "rarestterm"); df != 0 {
		t.Fatalf("post-compact df = %d", df)
	}
	for _, f := range ix.mustFacets(nil, "kind") {
		if f.Value == "victim" {
			t.Fatalf("deleted doc still faceted: %v", f)
		}
	}
}

// TestTieBreakDeterministicAcrossShards: documents with identical
// content have identical scores; the cross-shard merge must order them
// by ascending ID regardless of which shard each landed in.
func TestTieBreakDeterministicAcrossShards(t *testing.T) {
	for _, n := range []int{1, 4, 7} {
		ix := New(WithShards(n))
		for i := 0; i < 40; i++ {
			ix.Add(Document{ID: fmt.Sprintf("tie%02d", i), Fields: map[string]string{"b": "identical content everywhere"}})
		}
		rs := ix.mustSearch(MatchQuery{Text: "identical"}, SearchOptions{})
		if len(rs) != 40 {
			t.Fatalf("shards=%d hits = %d", n, len(rs))
		}
		for i, r := range rs {
			if want := fmt.Sprintf("tie%02d", i); r.ID != want {
				t.Fatalf("shards=%d hit %d = %s, want %s", n, i, r.ID, want)
			}
			if r.Score != rs[0].Score {
				t.Fatalf("shards=%d unequal tie scores: %v vs %v", n, r.Score, rs[0].Score)
			}
		}
		// Pagination across the tie must line up with the full ordering.
		page := ix.mustSearch(MatchQuery{Text: "identical"}, SearchOptions{Limit: 10, Offset: 15})
		for i, r := range page {
			if want := rs[15+i].ID; r.ID != want {
				t.Fatalf("shards=%d page hit %d = %s, want %s", n, i, r.ID, want)
			}
		}
	}
}

// TestSuggestTermsAcrossShards: candidate document frequencies must be
// summed across shards so the most common correction wins even when
// its occurrences are spread over every shard.
func TestSuggestTermsAcrossShards(t *testing.T) {
	for _, n := range []int{1, 4} {
		ix := New(WithShards(n))
		for i := 0; i < 12; i++ {
			ix.Add(Document{ID: fmt.Sprintf("z%d", i), Fields: map[string]string{"title": "zelda adventure"}})
		}
		ix.Add(Document{ID: "zb", Fields: map[string]string{"title": "zebra documentary"}})
		sugs := ix.SuggestTerms("title", "zeldb", 3)
		if len(sugs) == 0 || sugs[0] != "zelda" {
			t.Fatalf("shards=%d suggestions = %v", n, sugs)
		}
		if sugs := ix.SuggestTerms("title", "zelda", 3); sugs != nil {
			t.Fatalf("shards=%d exact term corrected: %v", n, sugs)
		}
	}
}

// TestShardedConcurrentMixedOps hammers a multi-shard index with
// concurrent adds, deletes and fan-out reads; run under -race in CI.
func TestShardedConcurrentMixedOps(t *testing.T) {
	ix := New(WithShards(4))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				ix.Add(Document{ID: id, Fields: map[string]string{"body": "concurrent sharded platform"}, Stored: map[string]string{"w": fmt.Sprint(w)}})
				if i%10 == 9 {
					ix.Delete(fmt.Sprintf("w%d-%d", w, i-5))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ix.mustSearch(MatchQuery{Text: "platform"}, SearchOptions{Limit: 10, SnippetField: "body"})
				ix.mustFacets(MatchQuery{Text: "sharded"}, "w")
				ix.mustCount(AllQuery{})
			}
		}()
	}
	wg.Wait()
	if got, want := ix.Len(), 4*(100-10); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}
