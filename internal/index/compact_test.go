package index

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func fillSequential(t testing.TB, ix *Index, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := ix.Add(Document{
			ID:     fmt.Sprintf("doc%03d", i),
			Fields: map[string]string{"body": fmt.Sprintf("common text item%d", i)},
			Stored: map[string]string{"n": fmt.Sprint(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTombstoneRatio(t *testing.T) {
	ix := New(WithShards(1))
	if got := ix.TombstoneRatio(); got != 0 {
		t.Fatalf("empty index ratio = %v", got)
	}
	fillSequential(t, ix, 10)
	for i := 0; i < 4; i++ {
		ix.Delete(fmt.Sprintf("doc%03d", i))
	}
	if got := ix.TombstoneRatio(); got != 0.4 {
		t.Fatalf("ratio after 4/10 deletes = %v, want 0.4", got)
	}
	if err := ix.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ix.TombstoneRatio(); got != 0 {
		t.Fatalf("ratio after compact = %v, want 0", got)
	}
	// The dead postings are gone, not just skipped.
	s := ix.ring.Load().shards[0]
	s.mu.RLock()
	n, docs := s.fields["body"].terms["common"].n, s.numDocs()
	s.mu.RUnlock()
	if n != 6 || docs != 6 {
		t.Fatalf("after compact: %d postings for 'common' over %d ordinals, want 6 and 6", n, docs)
	}
}

// TestCompactContextMovesCleanShards: compaction rebuilds only the
// shards holding tombstones. On a mapped index without any it keeps
// the ring; with tombstones in one shard, every other shard moves into
// the new ring as it is, still mapped.
func TestCompactContextMovesCleanShards(t *testing.T) {
	src := New(WithShards(3))
	fillSequential(t, src, 60)
	mx := mappedCopy(t, src)
	ring0 := mx.ring.Load()
	if err := mx.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if mx.ring.Load() != ring0 || mx.RingGen() != ring0.gen || mx.MMapStats().MappedShards != 3 {
		t.Fatalf("compacting a clean index: gen %d → %d, %d shards mapped; want the ring kept and 3 mapped",
			ring0.gen, mx.RingGen(), mx.MMapStats().MappedShards)
	}

	victim := ring0.shards[1]
	id := ""
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("doc%03d", i); ring0.shardFor(cand) == victim {
			id = cand
		}
	}
	mx.Delete(id)
	if err := mx.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := mx.ring.Load()
	if r.gen != ring0.gen+1 || r.shards[0] != ring0.shards[0] || r.shards[2] != ring0.shards[2] || r.shards[1] == victim {
		t.Fatalf("compacting shard 1: gen %d, shards kept %v %v %v; want gen %d and shards 0 and 2 kept",
			r.gen, r.shards[0] == ring0.shards[0], r.shards[1] == victim, r.shards[2] == ring0.shards[2], ring0.gen+1)
	}
	if st := mx.MMapStats(); st.MappedShards != 2 {
		t.Fatalf("%d shards mapped after compacting one, want 2", st.MappedShards)
	}
	if _, ok := mx.Get(id); ok || mx.Len() != 59 || mx.TombstoneRatio() != 0 {
		t.Fatalf("after compact: Get(%s) found %v, Len %d, ratio %v", id, ok, mx.Len(), mx.TombstoneRatio())
	}
}

// TestCompactContextCancelled cancels a compaction at each point where
// it checks ctx in turn, and checks that every abort leaves the ring,
// the tombstones and the answers exactly as before; a retry then
// compacts.
func TestCompactContextCancelled(t *testing.T) {
	ix := equivCorpus(t, 3)
	queries := equivQueries()
	want := make(map[string][]Result, len(queries))
	for name, q := range queries {
		want[name] = ix.mustSearch(q, SearchOptions{})
	}
	ring0, ratio := ix.ring.Load(), ix.TombstoneRatio()

	counter := &midwayCtx{Context: context.Background(), admit: 1 << 30}
	if err := equivCorpus(t, 3).CompactContext(counter); err != nil {
		t.Fatal(err)
	}
	calls := counter.errs
	if calls < 4 {
		t.Fatalf("a full compaction made %d ctx checks; want the entry and one per source shard at least", calls)
	}
	for admit := 1; admit < calls; admit++ {
		ctx := &midwayCtx{Context: context.Background(), admit: admit}
		if err := ix.CompactContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("admit %d: CompactContext = %v; want context.Canceled", admit, err)
		}
		if ix.ring.Load() != ring0 || ix.TombstoneRatio() != ratio {
			t.Fatalf("admit %d: aborted compaction changed the ring or the tombstone ratio %v → %v", admit, ratio, ix.TombstoneRatio())
		}
		for name, q := range queries {
			mustEqualResults(t, fmt.Sprintf("admit %d %s", admit, name), ix.mustSearch(q, SearchOptions{}), want[name])
		}
	}
	if err := ix.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ix.RingGen() != ring0.gen+1 || ix.TombstoneRatio() != 0 {
		t.Fatalf("retry: gen %d, ratio %v; want %d and 0", ix.RingGen(), ix.TombstoneRatio(), ring0.gen+1)
	}
	for name, q := range queries {
		mustEqualResults(t, "retry "+name, ix.mustSearch(q, SearchOptions{}), want[name])
	}
}
