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
