package index

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// midwayCtx reports done from the start but only admits being
// cancelled once admit Err() calls have reported nil (zero admits
// one). SearchContext's entry check (the first Err call) therefore
// passes, evaluation begins, and the eval loops observe the closed
// Done channel — a deterministic stand-in for "the context was
// cancelled after evaluation started", with no timing dependence.
// onCancel, when set, runs at the first Err call that reports the
// cancellation.
type midwayCtx struct {
	context.Context
	admit    int
	onCancel func()
	mu       sync.Mutex
	errs     int
}

var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (c *midwayCtx) Done() <-chan struct{} { return closedCh }

func (c *midwayCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs++
	admit := max(c.admit, 1)
	if c.errs <= admit {
		return nil
	}
	if c.errs == admit+1 && c.onCancel != nil {
		c.onCancel()
	}
	return context.Canceled
}

func cancelTestIndex(t *testing.T, n int) *Index {
	t.Helper()
	ix := New(WithShards(1))
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = Document{
			ID:     fmt.Sprintf("d%05d", i),
			Fields: map[string]string{"body": "foo common text"},
			Stored: map[string]string{"kind": "k"},
		}
	}
	if err := ix.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSearchContextPreCancelled(t *testing.T) {
	ix := cancelTestIndex(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := TermQuery{Field: "body", Term: "foo"}

	if res, err := ix.SearchContext(ctx, q, SearchOptions{}); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("SearchContext = %v, %v; want nil, context.Canceled", res, err)
	}
	if n, err := ix.CountContext(ctx, q); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("CountContext = %d, %v; want 0, context.Canceled", n, err)
	}
	if fc, err := ix.FacetsContext(ctx, q, "kind"); !errors.Is(err, context.Canceled) || fc != nil {
		t.Fatalf("FacetsContext = %v, %v; want nil, context.Canceled", fc, err)
	}
}

// TestCancelStopsWithinOneBlock pins the cancellation granularity
// contract: once the context is done, an evaluation loop scores at
// most cancelStride (= one posting block) more postings before
// stopping. The term posting list spans many blocks; with the done
// channel closed from the start, the first stride poll fires before
// posting cancelStride+1 is accumulated.
func TestCancelStopsWithinOneBlock(t *testing.T) {
	const docs = 40 * postingBlockSize
	ix := cancelTestIndex(t, docs)
	r := ix.ring.Load()
	s := r.shards[0]

	q := TermQuery{Field: "body", Term: "foo"}
	st := ix.gatherStats(context.Background(), r, nil, ix.stampFor(r), q)
	st.done = closedCh

	s.mu.RLock()
	acc := getAccum(len(s.docs))
	q.eval(s, st, acc)
	scored := 0
	for _, seen := range acc.seen {
		if seen {
			scored++
		}
	}
	putAccum(acc)
	s.mu.RUnlock()

	if scored > cancelStride {
		t.Fatalf("cancelled eval scored %d postings; want <= %d (one block)", scored, cancelStride)
	}
	if scored == 0 {
		t.Fatal("eval scored nothing; the stride poll should fire mid-list, not before the list")
	}
}

// TestCancelMidEvaluation drives the full SearchContext path with a
// context that reports cancellation only after the entry check, so
// the cancel lands mid-evaluation by construction. Partial results
// must be discarded.
func TestCancelMidEvaluation(t *testing.T) {
	ix := cancelTestIndex(t, 8*postingBlockSize)
	ctx := &midwayCtx{Context: context.Background()}
	res, err := ix.SearchContext(ctx, TermQuery{Field: "body", Term: "foo"}, SearchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got %d partial results; want none", len(res))
	}
}

// TestCancelPromptOverBenchCorpus runs a deliberately heavy query
// over the 12k-doc bench corpus with a context that reports
// cancellation right after the entry check (midwayCtx — racing a real
// timer against the only P is unreliable on single-CPU CI), and pins
// that the cancelled evaluation returns promptly: the stride polls
// must cut evaluation far below the uncancelled baseline, not let it
// run to completion and fail at the final check.
func TestCancelPromptOverBenchCorpus(t *testing.T) {
	ix := New()
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	if err := ix.AddBatch(queryBenchCorpus(queryBenchDocs)); err != nil {
		t.Fatal(err)
	}
	// A wide disjunction over the Zipf head: long posting lists in
	// every branch, so evaluation is orders of magnitude longer than
	// the cancellation stride.
	var q BoolQuery
	for i := 0; i < 64; i++ {
		q.Should = append(q.Should, MatchQuery{Text: fmt.Sprintf("w%04d w%04d", i, i+1)})
	}

	// Warm, then take the best of three as the uncancelled baseline.
	full := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := ix.SearchContext(context.Background(), q, SearchOptions{Limit: 10}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < full {
			full = d
		}
	}

	cancelled := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		ctx := &midwayCtx{Context: context.Background()}
		start := time.Now()
		res, err := ix.SearchContext(ctx, q, SearchOptions{Limit: 10})
		d := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v; want context.Canceled", err)
		}
		if res != nil {
			t.Fatalf("got %d partial results alongside cancellation", len(res))
		}
		if d < cancelled {
			cancelled = d
		}
	}
	if cancelled >= full/2 {
		t.Fatalf("cancelled evaluation took %v; want well under the %v uncancelled baseline", cancelled, full)
	}
}

// TestReshardContextCancelled checks an aborted reshard leaves the
// ring, the configured target, and the data untouched, and that the
// index remains fully writable and reshardable afterwards.
func TestReshardContextCancelled(t *testing.T) {
	ix := cancelTestIndex(t, 500)
	before := ix.NumShards()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ix.ReshardContext(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReshardContext = %v; want context.Canceled", err)
	}
	if got := ix.NumShards(); got != before {
		t.Fatalf("aborted reshard changed shard count: %d -> %d", before, got)
	}
	if err := ix.Add(Document{ID: "after", Fields: map[string]string{"body": "foo"}}); err != nil {
		t.Fatalf("Add after aborted reshard: %v", err)
	}
	if err := ix.ReshardContext(context.Background(), 4); err != nil {
		t.Fatalf("ReshardContext retry: %v", err)
	}
	if got := ix.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d; want 4", got)
	}
	n, err := ix.CountContext(context.Background(), TermQuery{Field: "body", Term: "foo"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 501 {
		t.Fatalf("Count after reshard = %d; want 501", n)
	}
}

// TestReshardCancelledMidRebuild cancels a rebuild at each of the
// points where it checks ctx in turn — between source shards and
// inside each source shard's analysis — and checks that every abort
// leaves the shard count, the fixed count, the ring generation and the
// answers exactly as before. A writer that arrives while a rebuild
// holds the write gate completes once the cancelled rebuild returns,
// and a retry then succeeds.
func TestReshardCancelledMidRebuild(t *testing.T) {
	ix := equivCorpus(t, 2)
	queries := equivQueries()
	want := make(map[string][]Result, len(queries))
	for name, q := range queries {
		want[name] = ix.mustSearch(q, SearchOptions{})
	}
	gen, target := ix.RingGen(), ix.target

	// A rebuild that is never cancelled, on an equal index, counts the
	// Err calls a full rebuild makes; admitting fewer cancels it at
	// every point, the first source shard's end among them.
	counter := &midwayCtx{Context: context.Background(), admit: 1 << 30}
	if err := equivCorpus(t, 2).ReshardContext(counter, 4); err != nil {
		t.Fatal(err)
	}
	calls := counter.errs
	if calls < 6 {
		t.Fatalf("a full rebuild made %d ctx checks; want the entry, one per source shard and analysis", calls)
	}
	for admit := 1; admit < calls; admit++ {
		ctx := &midwayCtx{Context: context.Background(), admit: admit}
		if err := ix.ReshardContext(ctx, 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("admit %d: ReshardContext = %v; want context.Canceled", admit, err)
		}
		if ix.NumShards() != 2 || ix.RingGen() != gen || ix.target != target {
			t.Fatalf("admit %d: aborted rebuild left shards=%d gen=%d target=%d; want 2, %d, %d",
				admit, ix.NumShards(), ix.RingGen(), ix.target, gen, target)
		}
		for name, q := range queries {
			mustEqualResults(t, fmt.Sprintf("admit %d %s", admit, name), ix.mustSearch(q, SearchOptions{}), want[name])
		}
	}

	// The cancelling Err call runs under the exclusive write gate, so
	// the writer it starts waits for the aborted rebuild to return.
	wrote := make(chan error, 1)
	ctx := &midwayCtx{Context: context.Background(), admit: calls / 2, onCancel: func() {
		go func() {
			wrote <- ix.Add(Document{ID: "late", Fields: map[string]string{"body": "zelda latecomer"}})
		}()
	}}
	if err := ix.ReshardContext(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReshardContext = %v; want context.Canceled", err)
	}
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a writer blocked on the write gate never completed after the aborted rebuild")
	}
	if got := ix.mustCount(TermQuery{Field: "body", Term: "latecomer"}); got != 1 {
		t.Fatalf("the late write matched %d documents; want 1", got)
	}

	if err := ix.ReshardContext(context.Background(), 4); err != nil {
		t.Fatalf("ReshardContext retry: %v", err)
	}
	if ix.NumShards() != 4 || ix.RingGen() != gen+1 || ix.target != 4 {
		t.Fatalf("retry left shards=%d gen=%d target=%d; want 4, %d, 4", ix.NumShards(), ix.RingGen(), ix.target, gen+1)
	}
	fresh := equivCorpus(t, 4)
	if err := fresh.Add(Document{ID: "late", Fields: map[string]string{"body": "zelda latecomer"}}); err != nil {
		t.Fatal(err)
	}
	for name, q := range queries {
		mustEqualResults(t, "retry "+name, ix.mustSearch(q, SearchOptions{}), fresh.mustSearch(q, SearchOptions{}))
	}
}
