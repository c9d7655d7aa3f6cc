package index

import (
	"fmt"
	"strings"
	"testing"
)

// The cross-request cache must be invisible except in latency: a hit
// returns exactly what evaluation would have, any mutation makes every
// older entry unservable, and a read stamped before a mutation can
// neither be served the newer entry nor clobber it.

func TestCacheWarmHitIdentical(t *testing.T) {
	ix := equivCorpus(t, 3)
	c := NewCache(8 << 20)
	ix.AttachCache(c)
	q := MatchQuery{Text: "zelda strategy"}
	opts := SearchOptions{Limit: 10}

	cold := ix.mustSearch(q, opts)
	h0 := c.Stats().Hits
	warm := ix.mustSearch(q, opts)
	if c.Stats().Hits == h0 {
		t.Fatal("second identical query did not hit the cache")
	}
	mustEqualResults(t, "warm vs cold", warm, cold)

	// Hits are copies: a caller scribbling on its results must not
	// poison the cached value.
	warm[0].Score = -1
	warm[0].ID = "scribbled"
	again := ix.mustSearch(q, opts)
	mustEqualResults(t, "after scribble", again, cold)

	// Counts and facets ride the same cache.
	n := ix.mustCount(q)
	h1 := c.Stats().Hits
	if got := ix.mustCount(q); got != n {
		t.Fatalf("warm Count %d, want %d", got, n)
	}
	if c.Stats().Hits == h1 {
		t.Fatal("second Count did not hit the cache")
	}
	fc := ix.mustFacets(q, "producer")
	h2 := c.Stats().Hits
	fc2 := ix.mustFacets(q, "producer")
	if c.Stats().Hits == h2 {
		t.Fatal("second Facets did not hit the cache")
	}
	if len(fc) != len(fc2) {
		t.Fatalf("warm facets %v, want %v", fc2, fc)
	}
	for i := range fc {
		if fc[i] != fc2[i] {
			t.Fatalf("warm facet %d: %v, want %v", i, fc2[i], fc[i])
		}
	}
}

// TestCacheInvalidationOnMutation: after any write the cache must
// never serve the pre-write answer. Every post-mutation query is held
// to bit-identity with the reference evaluator over the live data.
func TestCacheInvalidationOnMutation(t *testing.T) {
	ix := equivCorpus(t, 3)
	c := NewCache(8 << 20)
	ix.AttachCache(c)
	q := MatchQuery{Text: "zelda adventure"}
	opts := SearchOptions{Limit: 10}

	ix.mustSearch(q, opts) // fill
	ix.mustSearch(q, opts) // warm

	// Add a document that must dominate the ranking.
	ix.Add(Document{
		ID:     "fresh",
		Fields: map[string]string{"title": "zelda zelda", "body": strings.Repeat("zelda adventure ", 8)},
		Stored: map[string]string{"producer": "Nintendo", "parity": "1"},
	})
	got := ix.mustSearch(q, opts)
	mustEqualResults(t, "after add", got, refSearch(ix, q, opts))
	found := false
	for _, r := range got {
		found = found || r.ID == "fresh"
	}
	if !found {
		t.Fatal("stale SERP served: added document missing from results")
	}

	// Delete it again; it must vanish immediately.
	ix.mustSearch(q, opts) // re-fill under the post-add stamp
	if !ix.Delete("fresh") {
		t.Fatal("Delete(fresh) found nothing")
	}
	got = ix.mustSearch(q, opts)
	mustEqualResults(t, "after delete", got, refSearch(ix, q, opts))
	for _, r := range got {
		if r.ID == "fresh" {
			t.Fatal("stale SERP served: deleted document still in results")
		}
	}

	// Configuration changes are mutations too.
	ix.mustSearch(q, opts)
	ix.SetFieldOptions("title", FieldOptions{Boost: 5})
	mustEqualResults(t, "after boost change", ix.mustSearch(q, opts), refSearch(ix, q, opts))

	if c.Stats().Invalidated == 0 {
		t.Fatal("no entry was invalidated by stamp mismatch")
	}
}

// TestCacheEviction: a cache smaller than the working set evicts LRU
// entries instead of growing, and stays within budget.
func TestCacheEviction(t *testing.T) {
	ix := New(WithShards(1))
	for i := 0; i < 50; i++ {
		ix.Add(Document{
			ID:     fmt.Sprintf("d%02d", i),
			Fields: map[string]string{"body": fmt.Sprintf("common term%d %s", i, strings.Repeat("pad ", 40))},
		})
	}
	budget := int64(4 << 10)
	c := NewCache(budget)
	ix.AttachCache(c)
	for i := 0; i < 50; i++ {
		ix.mustSearch(MatchQuery{Text: fmt.Sprintf("term%d common", i)}, SearchOptions{Limit: 20})
	}
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("tiny cache never evicted: %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("cache exceeded budget: %d > %d", st.Bytes, budget)
	}
	if st.Entries == 0 {
		t.Fatalf("cache held nothing at all: %+v", st)
	}
}

// TestCacheStampRules pins the get/put era rules at the unit level:
// exact match serves, a newer reader kills an older entry, an older
// reader (one that captured its stamp before a mutation) neither reads
// nor replaces a newer entry.
func TestCacheStampRules(t *testing.T) {
	c := NewCache(1 << 20)
	ref := &cacheRef{c: c, ns: cacheNSCounter.Add(1)}
	k := ref.key(kindSERP, "q")
	old := Stamp{Gen: 1, Ver: 1}
	cur := Stamp{Gen: 1, Ver: 2}

	c.put(k, old, "old", 8)
	if v, ok := c.get(k, old); !ok || v != "old" {
		t.Fatalf("exact-stamp get = %v, %v", v, ok)
	}
	// A reader from a newer era invalidates the entry on sight.
	if _, ok := c.get(k, cur); ok {
		t.Fatal("newer reader was served an older entry")
	}
	if st := c.Stats(); st.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want 1", st.Invalidated)
	}
	if _, ok := c.get(k, old); ok {
		t.Fatal("invalidated entry still served to its own era")
	}

	// An older writer must not clobber a newer entry, and an older
	// reader must not be served it — but the entry survives.
	c.put(k, cur, "cur", 8)
	c.put(k, old, "stale", 8)
	if _, ok := c.get(k, old); ok {
		t.Fatal("older reader was served a newer entry")
	}
	if v, ok := c.get(k, cur); !ok || v != "cur" {
		t.Fatalf("newer entry lost: %v, %v", v, ok)
	}

	// A generation bump outranks any version.
	gen2 := Stamp{Gen: 2, Ver: 0}
	if _, ok := c.get(k, gen2); ok {
		t.Fatal("next-generation reader was served an old-generation entry")
	}
	if _, ok := c.get(k, cur); ok {
		t.Fatal("gen-invalidated entry still served")
	}

	// Values over budget are simply not cached.
	c.put(ref.key(kindSERP, "huge"), cur, "x", 2<<20)
	if _, ok := c.get(ref.key(kindSERP, "huge"), cur); ok {
		t.Fatal("over-budget value was cached")
	}
}
