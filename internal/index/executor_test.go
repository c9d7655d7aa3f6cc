package index

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func executorCorpus(t testing.TB, shards, docs int) *Index {
	t.Helper()
	ix := New(WithShards(shards))
	for i := 0; i < docs; i++ {
		ix.Add(Document{
			ID: fmt.Sprintf("d%05d", i),
			Fields: map[string]string{
				"body": fmt.Sprintf("common words here zelda doc%d extra%d", i, i%17),
			},
			Stored: map[string]string{"parity": fmt.Sprint(i % 2)},
		})
	}
	return ix
}

// settleGoroutines polls until the goroutine count drops back to at
// most base+slack, failing after the deadline. The poll loop absorbs
// the runtime's own lag in reaping exited goroutines.
func settleGoroutines(t *testing.T, base, slack int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers and give exited goroutines a beat
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want <= %d (base %d + slack %d)", what, n, base+slack, base, slack)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecutorNoGoroutineLeak drives the three scenarios that could
// strand goroutines — queries cancelled mid-fan-out, a reshard racing
// live queries, and repeated executor resizes — then requires the
// process goroutine count to settle back to its baseline. The executor
// replaces per-query goroutine spawning, so after the storm the only
// survivors should be the fixed worker pool of the final generation.
func TestExecutorNoGoroutineLeak(t *testing.T) {
	t.Cleanup(func() { configureExecutor(0) })
	ix := executorCorpus(t, 4, 4000)
	q := Query(MatchQuery{Text: "common zelda extra3"})
	currentExecutor() // force the pool up before taking the baseline
	base := runtime.NumGoroutine()

	// Cancel mid-fan-out: contexts cancelled at random points during
	// evaluation. The submitter still joins every shard task, so no
	// task may outlive its query.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
				ix.SearchContext(ctx, q, SearchOptions{Limit: 10})
				ix.CountContext(ctx, q)
				cancel()
			}
		}(g)
	}
	wg.Wait()
	settleGoroutines(t, base, 2, "after cancel storm")

	// Reshard during execution: queries keep running against the old
	// ring while the rebuild fills the new one.
	done := make(chan struct{})
	var qwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-done:
					return
				default:
					ix.mustSearch(q, SearchOptions{Limit: 5})
				}
			}
		}()
	}
	for _, n := range []int{2, 6, 4} {
		if err := ix.ReshardContext(context.Background(), n); err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
	}
	close(done)
	qwg.Wait()
	settleGoroutines(t, base, 2, "after reshard under load")

	// Resize cycles: every configureExecutor swaps in a fresh worker
	// pool; the old generation's workers must all exit.
	for i := 0; i < 5; i++ {
		configureExecutor(1 + i%3)
		ix.mustSearch(q, SearchOptions{Limit: 5})
	}
	configureExecutor(0)
	// The final pool replaces the baseline pool worker for worker, so
	// the count must return to the original baseline.
	settleGoroutines(t, base, 2, "after resize cycles")
}

// TestExecutorStatsProgress: the operator counters must move when
// queries run.
func TestExecutorStatsProgress(t *testing.T) {
	ix := executorCorpus(t, 4, 2000)
	q := Query(MatchQuery{Text: "common zelda"})
	before := GetExecutorStats()
	if before.Workers < 1 {
		t.Fatalf("executor reports %d workers", before.Workers)
	}
	for i := 0; i < 20; i++ {
		ix.mustSearch(q, SearchOptions{Limit: 10})
	}
	after := GetExecutorStats()
	if after.Tasks <= before.Tasks {
		t.Fatalf("task counter did not move: before %d after %d", before.Tasks, after.Tasks)
	}
}

// TestScratchGenerationAdvances pins the use-after-release guard:
// recycling search scratch must bump its generation stamp, so a shard
// task still holding the old generation observes the mismatch and
// drops its write instead of corrupting the next query's scratch.
func TestScratchGenerationAdvances(t *testing.T) {
	st := getSearchStats()
	gen := st.gen.Load()
	putSearchStats(st)
	st2 := getSearchStats()
	defer putSearchStats(st2)
	if st2 == st && st2.gen.Load() == gen {
		t.Fatalf("recycled scratch kept generation %d", gen)
	}
}

// TestRunShardsCancelledGenCheck exercises the late-task path end to
// end: a query whose context is cancelled before evaluation must
// return an error and must not leave results behind — its shard tasks
// see the stale generation or the cancelled context and bail.
func TestRunShardsCancelledGenCheck(t *testing.T) {
	ix := executorCorpus(t, 4, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.SearchContext(ctx, MatchQuery{Text: "common zelda"}, SearchOptions{Limit: 10}); err == nil {
		t.Fatal("cancelled search returned nil error")
	}
	if _, err := ix.CountContext(ctx, MatchQuery{Text: "common"}); err == nil {
		t.Fatal("cancelled count returned nil error")
	}
	if _, err := ix.FacetsContext(ctx, MatchQuery{Text: "common"}, "parity"); err == nil {
		t.Fatal("cancelled facets returned nil error")
	}
	// And a healthy query right after is unaffected by the cancelled
	// one's recycled scratch.
	if got := len(ix.mustSearch(MatchQuery{Text: "common zelda"}, SearchOptions{Limit: 10})); got == 0 {
		t.Fatal("follow-up query found nothing")
	}
}
