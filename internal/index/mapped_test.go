package index

import "testing"

// TestMappedFindAllocs: a dictionary probe on a mapped field compares
// payload bytes in place, so looking a term up — present or absent —
// allocates nothing.
func TestMappedFindAllocs(t *testing.T) {
	mx := mappedCopy(t, equivCorpus(t, 1))
	mf := mx.ring.Load().shards[0].fields["body"].mapped
	if mf == nil {
		t.Fatal("body field is not mapped")
	}
	for _, tc := range []struct {
		term string
		want bool
	}{
		{"adventure", true},
		{"nosuchterm", false},
	} {
		if _, ok := mf.find(tc.term); ok != tc.want {
			t.Fatalf("find(%q) = %v, want %v", tc.term, ok, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { mf.find(tc.term) }); n != 0 {
			t.Errorf("find(%q) made %v allocations, want 0", tc.term, n)
		}
	}
}

// TestCountMappedAllocs: counting on an unmaterialized mapped shard
// tests liveness from the doc directory, so its allocations do not grow
// with the number of matches (decoding each match's doc entry into its
// Fields and Stored maps would cost about a dozen per match).
func TestCountMappedAllocs(t *testing.T) {
	mx := mappedCopy(t, equivCorpus(t, 1))
	allocs := func(term string) (matches int, perRun float64) {
		q := TermQuery{Field: "body", Term: term}
		matches = mx.mustCount(q)
		return matches, testing.AllocsPerRun(50, func() { mx.mustCount(q) })
	}
	fewN, few := allocs("halo")
	manyN, many := allocs("shared")
	if manyN < 3*fewN {
		t.Fatalf("corpus drifted: %d matches for shared, %d for halo", manyN, fewN)
	}
	// Decoding doc entries costs several allocations per match. The
	// slack of one per 20 extra matches absorbs sync.Pool misses, which
	// the race detector injects at random.
	if many-few > float64(manyN-fewN)/20 {
		t.Errorf("Count made %v allocations for %d matches but %v for %d; want no growth with matches", many, manyN, few, fewN)
	}
}
