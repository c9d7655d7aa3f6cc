package index

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReshardEquivalence walks an index through the shard-count
// transitions 1→3→5→2 and pins, after every transition, the full
// query suite (search with pagination, counts, facets)
// float-equal to both the reference evaluator and a freshly built
// index at that count — extending the eval_equiv harness across
// reshard transitions.
func TestReshardEquivalence(t *testing.T) {
	ix := equivCorpus(t, 1)
	transitions := []int{3, 5, 2}
	gen := ix.RingGen()
	for _, n := range transitions {
		if err := ix.ReshardContext(context.Background(), n); err != nil {
			t.Fatalf("Reshard(%d): %v", n, err)
		}
		if got := ix.NumShards(); got != n {
			t.Fatalf("NumShards after Reshard(%d) = %d", n, got)
		}
		if g := ix.RingGen(); n != 1 && g <= gen {
			t.Fatalf("ring gen after Reshard(%d) = %d, want > %d", n, g, gen)
		}
		gen = ix.RingGen()
		fresh := equivCorpus(t, n)
		for name, q := range equivQueries() {
			label := fmt.Sprintf("reshard→%d %s", n, name)
			opts := []SearchOptions{
				{},
				{Limit: 10},
				{Limit: 10, Offset: 7},
			}
			for i, o := range opts {
				got := ix.mustSearch(q, o)
				mustEqualResults(t, fmt.Sprintf("%s ref opts%d", label, i), got, refSearch(ix, q, o))
				mustEqualResults(t, fmt.Sprintf("%s fresh opts%d", label, i), got, fresh.mustSearch(q, o))
			}
			if got, want := ix.mustCount(q), fresh.mustCount(q); got != want {
				t.Fatalf("%s: Count %d, want %d", label, got, want)
			}
			gotF, wantF := ix.mustFacets(q, "producer"), fresh.mustFacets(q, "producer")
			if fmt.Sprint(gotF) != fmt.Sprint(wantF) {
				t.Fatalf("%s: facets %v, want %v", label, gotF, wantF)
			}
		}
		if got, want := ix.Len(), fresh.Len(); got != want {
			t.Fatalf("reshard→%d: Len %d, want %d", n, got, want)
		}
	}
}

// TestReshardValidation covers the edges: invalid counts error, a
// same-count reshard is a no-op that keeps the ring generation, and
// resharding an empty index works.
func TestReshardValidation(t *testing.T) {
	ix := New(WithShards(2))
	if err := ix.ReshardContext(context.Background(), 0); err == nil {
		t.Fatal("Reshard(0) accepted")
	}
	if err := ix.ReshardContext(context.Background(), -3); err == nil {
		t.Fatal("Reshard(-3) accepted")
	}
	gen := ix.RingGen()
	if err := ix.ReshardContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if ix.RingGen() != gen {
		t.Fatalf("no-op reshard bumped ring gen %d → %d", gen, ix.RingGen())
	}
	if err := ix.ReshardContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if ix.NumShards() != 5 || ix.Len() != 0 {
		t.Fatalf("empty reshard: shards=%d len=%d", ix.NumShards(), ix.Len())
	}
	if err := ix.Add(Document{ID: "a", Fields: map[string]string{"body": "hello world"}}); err != nil {
		t.Fatal(err)
	}
	if got := ix.mustSearch(TermQuery{Field: "body", Term: "hello"}, SearchOptions{}); len(got) != 1 {
		t.Fatalf("post-reshard add not searchable: %d hits", len(got))
	}
}

// TestRestoreHonorsConfiguredShards is the regression test for the
// silent WithShards override: a snapshot written by a 4-shard index
// (a 4-core box) restored on a WithShards(16) index (a 16-core box)
// must end with 16 shards and rankings float-equal to a fresh
// 16-shard build of the same live documents.
func TestRestoreHonorsConfiguredShards(t *testing.T) {
	src := equivCorpus(t, 4)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := New(WithShards(16))
	restored.SetFieldOptions("title", FieldOptions{Boost: 2})
	if err := restored.Restore(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := restored.NumShards(); got != 16 {
		t.Fatalf("restored NumShards = %d, want configured 16", got)
	}

	fresh := equivCorpus(t, 16)
	for name, q := range equivQueries() {
		mustEqualResults(t, "restore-16 "+name,
			restored.mustSearch(q, SearchOptions{Limit: 20}), fresh.mustSearch(q, SearchOptions{Limit: 20}))
	}

	// The other direction: a wide snapshot restored on a narrow box.
	var wide bytes.Buffer
	if err := restored.Snapshot(&wide); err != nil {
		t.Fatal(err)
	}
	narrow := New(WithShards(2))
	narrow.SetFieldOptions("title", FieldOptions{Boost: 2})
	if err := narrow.Restore(wide.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := narrow.NumShards(); got != 2 {
		t.Fatalf("narrow restore NumShards = %d, want 2", got)
	}
	for name, q := range equivQueries() {
		mustEqualResults(t, "restore-2 "+name,
			narrow.mustSearch(q, SearchOptions{Limit: 20}), fresh.mustSearch(q, SearchOptions{Limit: 20}))
	}
}

// TestReshardReadersBitIdenticalDuringMigration pins the CoW reader
// guarantee: with a static corpus, queries racing a series of
// reshards must return bit-identical results at every instant —
// before, during and after each ring swap.
func TestReshardReadersBitIdenticalDuringMigration(t *testing.T) {
	ix := equivCorpus(t, 2)
	q := MatchQuery{Text: "zelda strategy"}
	baseline := ix.mustSearch(q, SearchOptions{Limit: 20})
	baseCount := ix.mustCount(q)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Bool
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := ix.mustSearch(q, SearchOptions{Limit: 20})
				if len(got) != len(baseline) {
					failed.Store(true)
					return
				}
				for i := range got {
					if got[i].ID != baseline[i].ID || got[i].Score != baseline[i].Score {
						failed.Store(true)
						return
					}
				}
				if ix.mustCount(q) != baseCount {
					failed.Store(true)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if err := ix.ReshardContext(context.Background(), 1+i%4); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.Fatal("query observed non-baseline results during reshard")
	}
}

// TestReshardTorture races concurrent Add/Delete/Search/Count
// traffic against a sequence of reshards under the race detector,
// then quiesces and pins the surviving state float-equal to a fresh
// build of the same live documents — no write may be lost or
// duplicated across ring swaps.
func TestReshardTorture(t *testing.T) {
	ix := New(WithShards(2))
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	// Seed a base corpus.
	for i := 0; i < 200; i++ {
		mustAdd(t, ix, i, 0)
	}

	const writers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			rev := 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(300)
				switch rng.Intn(4) {
				case 0:
					ix.Delete(tortureID(i))
				default:
					mustAdd(t, ix, i, rev)
					rev++
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := MatchQuery{Text: "torture common"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			ix.mustSearch(q, SearchOptions{Limit: 10})
			ix.mustSearch(q, SearchOptions{Limit: 5})
			ix.mustCount(q)
		}
	}()

	for _, n := range []int{5, 1, 4, 3, 2} {
		if err := ix.ReshardContext(context.Background(), n); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: rebuild from the survivors and require float-equal
	// rankings — no write may be lost or doubled by a ring swap. The
	// index keeps no field text, so each survivor is rebuilt from the
	// revision its Stored map names.
	fresh := New(WithShards(ix.NumShards()))
	fresh.SetFieldOptions("title", FieldOptions{Boost: 2})
	n := 0
	for i := 0; i < 300; i++ {
		if doc, ok := ix.Get(tortureID(i)); ok {
			rev, err := strconv.Atoi(doc.Stored["rev"])
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Add(tortureDoc(i, rev)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if got := ix.Len(); got != n {
		t.Fatalf("Len = %d, but %d docs retrievable", got, n)
	}
	for name, q := range map[string]Query{
		"match":  MatchQuery{Text: "torture common"},
		"term":   TermQuery{Field: "body", Term: "torture"},
		"phrase": PhraseQuery{Field: "body", Text: "torture common"},
		"all":    AllQuery{},
	} {
		mustEqualResults(t, "torture "+name, ix.mustSearch(q, SearchOptions{}), fresh.mustSearch(q, SearchOptions{}))
	}
}

func tortureID(i int) string { return fmt.Sprintf("t%04d", i) }

func mustAdd(t *testing.T, ix *Index, i, rev int) {
	t.Helper()
	if err := ix.Add(tortureDoc(i, rev)); err != nil {
		t.Error(err)
	}
}

// tortureDoc is revision rev of document i.
func tortureDoc(i, rev int) Document {
	return Document{
		ID: tortureID(i),
		Fields: map[string]string{
			"title": fmt.Sprintf("Torture %d rev%d", i%7, rev),
			"body":  fmt.Sprintf("torture common text item%d rev%d", i, rev),
		},
		Stored: map[string]string{"n": fmt.Sprint(i), "rev": fmt.Sprint(rev)},
	}
}

// TestReshardPreservesTombstoneFreeState: a rebuild copies only live
// documents, so a reshard implicitly compacts.
func TestReshardPreservesTombstoneFreeState(t *testing.T) {
	ix := New(WithShards(2))
	fillSequential(t, ix, 20)
	for i := 0; i < 10; i++ {
		ix.Delete(fmt.Sprintf("doc%03d", i))
	}
	if ix.TombstoneRatio() == 0 {
		t.Fatal("expected tombstones before reshard")
	}
	if err := ix.ReshardContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if got := ix.TombstoneRatio(); got != 0 {
		t.Fatalf("tombstone ratio after reshard = %v, want 0", got)
	}
	if got := ix.Len(); got != 10 {
		t.Fatalf("Len after reshard = %d, want 10", got)
	}
}
