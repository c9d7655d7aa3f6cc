package index

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"
)

// BenchmarkReshard measures the two costs of a reshard, a rebuild of
// every live document through the batch write path, over the 12k-doc
// Zipf corpus shared with BenchmarkQuery: rebuild throughput (docs
// moved per second, the operator-facing cost model; writers wait for
// the whole rebuild) and query latency while a rebuild runs (the
// reader-side guarantee: readers never wait, so p50 should stay close
// to the steady-state numbers). CI uploads each run as the
// bench-reshard artifact, next to the BenchmarkQuery family.
func BenchmarkReshard(b *testing.B) {
	b.Run("migrate-2to4", func(b *testing.B) {
		ix := New(WithShards(2))
		ix.SetFieldOptions("title", FieldOptions{Boost: 2})
		if err := ix.AddBatch(queryBenchCorpus(queryBenchDocs)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		targets := [2]int{4, 2}
		for i := 0; i < b.N; i++ {
			if err := ix.ReshardContext(context.Background(), targets[i%2]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(queryBenchDocs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
	})

	// query-during-reshard: search latency while a reshard loop runs
	// in the background. ns/op is the mean; the p50-ns metric is the
	// median of per-op wall times, the number an operator would watch
	// on a latency dashboard during a reshard.
	//
	// B/op and allocs/op are the query's own. -benchmem counts every
	// goroutine's allocations, and nearly all of this sub-benchmark's
	// are the reshard loop's, so both columns are overridden: a query
	// allocates according to the ring it reads, not to whether a
	// rebuild runs beside it, so they are measured after the loop
	// stops, averaged over the two rings the loop alternates between.
	b.Run("query-during-reshard", func(b *testing.B) {
		ix := New(WithShards(2))
		ix.SetFieldOptions("title", FieldOptions{Boost: 2})
		if err := ix.AddBatch(queryBenchCorpus(queryBenchDocs)); err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan int)
		go func() {
			cycles := 0
			targets := [2]int{4, 2}
			for {
				select {
				case <-stop:
					done <- cycles
					return
				default:
				}
				if err := ix.ReshardContext(context.Background(), targets[cycles%2]); err != nil {
					panic(err)
				}
				cycles++
			}
		}()
		q := MatchQuery{Text: "w0001 w0007 saga"}
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if rs := ix.mustSearch(q, SearchOptions{Limit: 10}); len(rs) == 0 {
				b.Fatal("no hits")
			}
			lat = append(lat, time.Since(t0))
		}
		b.StopTimer()
		close(stop)
		cycles := <-done
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(cycles), "reshards")
		const runs = 200
		var before, after runtime.MemStats
		var allocs, bytes uint64
		for _, n := range [2]int{4, 2} {
			if err := ix.ReshardContext(context.Background(), n); err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			for range runs {
				ix.mustSearch(q, SearchOptions{Limit: 10})
			}
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		b.ReportMetric(float64(allocs)/(2*runs), "allocs/op")
		b.ReportMetric(float64(bytes)/(2*runs), "B/op")
	})

	// query-steady: the same query with no reshard running, built at
	// the same shard count, as the in-flight comparison baseline.
	b.Run("query-steady", func(b *testing.B) {
		ix := New(WithShards(2))
		ix.SetFieldOptions("title", FieldOptions{Boost: 2})
		if err := ix.AddBatch(queryBenchCorpus(queryBenchDocs)); err != nil {
			b.Fatal(err)
		}
		q := MatchQuery{Text: "w0001 w0007 saga"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rs := ix.mustSearch(q, SearchOptions{Limit: 10}); len(rs) == 0 {
				b.Fatal("no hits")
			}
		}
	})
}
