package index

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
)

// The BenchmarkQuery family measures the shard-local query hot path
// over a corpus big enough (≥10k docs) that posting-list iteration,
// accumulator management and top-k selection dominate, not fixture
// noise. CI runs the family every build and uploads the output as the
// bench-query artifact.

const queryBenchDocs = 12000

var (
	queryBenchOnce sync.Once
	queryBenchIx   *Index
)

// queryBenchCorpus generates a deterministic skewed corpus: a Zipf
// vocabulary so common terms have long posting lists (worst case for
// scoring), a fixed phrase planted in every 13th doc, and a low-card
// stored facet field.
func queryBenchCorpus(n int) []Document {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1.0, 999)
	producers := []string{"Nintendo", "Ensemble", "Epic", "Valve", "Sega", "Capcom", "Rare"}
	docs := make([]Document, n)
	for i := range docs {
		var b strings.Builder
		for w := 0; w < 40; w++ {
			fmt.Fprintf(&b, "w%04d ", zipf.Uint64())
			if w == 19 && i%13 == 0 {
				b.WriteString("grand quest chronicle ")
			}
		}
		title := fmt.Sprintf("w%04d w%04d saga", zipf.Uint64(), zipf.Uint64())
		docs[i] = Document{
			ID:     fmt.Sprintf("doc%06d", i),
			Fields: map[string]string{"title": title, "body": b.String()},
			Stored: map[string]string{"producer": producers[i%len(producers)], "title": title},
		}
	}
	return docs
}

func queryBenchIndex(b *testing.B) *Index {
	b.Helper()
	queryBenchOnce.Do(func() {
		ix := New()
		ix.SetFieldOptions("title", FieldOptions{Boost: 2})
		if err := ix.AddBatch(queryBenchCorpus(queryBenchDocs)); err != nil {
			panic(err)
		}
		queryBenchIx = ix
	})
	return queryBenchIx
}

func BenchmarkQuery(b *testing.B) {
	ix := queryBenchIndex(b)
	queries := map[string]struct {
		q    Query
		opts SearchOptions
	}{
		"match":     {MatchQuery{Text: "w0001 w0007 saga"}, SearchOptions{Limit: 10}},
		"match-and": {MatchQuery{Text: "w0001 w0007", Operator: "and"}, SearchOptions{Limit: 10}},
		"bool": {BoolQuery{
			Must:    []Query{MatchQuery{Text: "w0001"}},
			Should:  []Query{TermQuery{Field: "body", Term: "w0042"}},
			MustNot: []Query{TermQuery{Field: "title", Term: "w0003"}},
		}, SearchOptions{Limit: 10}},
		"phrase": {PhraseQuery{Field: "body", Text: "grand quest chronicle"}, SearchOptions{Limit: 10}},
		"prefix": {PrefixQuery{Field: "body", Prefix: "w00"}, SearchOptions{Limit: 10}},
	}
	for name, tc := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rs := ix.mustSearch(tc.q, tc.opts); len(rs) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
	b.Run("facets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fc := ix.mustFacets(MatchQuery{Text: "w0001"}, "producer"); len(fc) == 0 {
				b.Fatal("no facets")
			}
		}
	})
	// serp is one end-user results page: ranked hits + total count +
	// facet sidebar for the same query, the exact shape the engine's
	// fan-out issues per request.
	b.Run("serp", func(b *testing.B) {
		b.ReportAllocs()
		q := MatchQuery{Text: "w0001 w0007 saga"}
		for i := 0; i < b.N; i++ {
			ix.mustSearch(q, SearchOptions{Limit: 10})
			ix.mustCount(q)
			ix.mustFacets(q, "producer")
		}
	})
}

var (
	scaleBenchMu  sync.Mutex
	scaleBenchIxs = map[int]*Index{}
)

// scaleBenchIndex builds (once per size) an index over n docs from the
// same deterministic generator as queryBenchIndex.
func scaleBenchIndex(b *testing.B, n int) *Index {
	b.Helper()
	scaleBenchMu.Lock()
	defer scaleBenchMu.Unlock()
	if ix := scaleBenchIxs[n]; ix != nil {
		return ix
	}
	ix := New()
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	if err := ix.AddBatch(queryBenchCorpus(n)); err != nil {
		b.Fatal(err)
	}
	scaleBenchIxs[n] = ix
	return ix
}

// BenchmarkQueryScale pins the sublinear-scoring claim: the same
// top-10 query over 12k and 120k documents (a 10x corpus). The
// headline case is the classic block-max one — a single common term
// whose long posting list the evaluator prunes block-by-block once
// the top-10 threshold rises above most per-block maxTF bounds, so
// latency must grow far slower than the corpus does.
// postings-skipped/op counts postings jumped without decoding, and CI
// fails the smoke run when it reads zero.
func BenchmarkQueryScale(b *testing.B) {
	q := TermQuery{Field: "body", Term: "w0001"}
	for _, n := range []int{queryBenchDocs, 10 * queryBenchDocs} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			ix := scaleBenchIndex(b, n)
			s0 := ix.ScanStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rs := ix.mustSearch(q, SearchOptions{Limit: 10}); len(rs) == 0 {
					b.Fatal("no hits")
				}
			}
			b.StopTimer()
			s1 := ix.ScanStats()
			b.ReportMetric(float64(s1.Scored-s0.Scored)/float64(b.N), "postings-scored/op")
			b.ReportMetric(float64(s1.Skipped-s0.Skipped)/float64(b.N), "postings-skipped/op")
		})
	}
}

// BenchmarkQueryCache measures one SERP (search + count + facets)
// cold — every request fully evaluated — versus warm, answered out of
// the generation-stamped cross-request cache.
func BenchmarkQueryCache(b *testing.B) {
	ix := queryBenchIndex(b)
	q := MatchQuery{Text: "w0001 w0007 saga"}
	serp := func() {
		ix.mustSearch(q, SearchOptions{Limit: 10})
		ix.mustCount(q)
		ix.mustFacets(q, "producer")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serp()
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := NewCache(64 << 20)
		ix.AttachCache(c)
		defer ix.AttachCache(nil)
		serp() // fill
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serp()
		}
		b.StopTimer()
		st := c.Stats()
		if total := st.Hits + st.Misses; total > 0 {
			b.ReportMetric(float64(st.Hits)/float64(total)*100, "hit-%")
		}
	})
}

// BenchmarkQueryBuild tracks indexing cost: ns/op and allocation
// churn of building a fixed corpus.
func BenchmarkQueryBuild(b *testing.B) {
	docs := queryBenchCorpus(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New(WithShards(4))
		ix.SetFieldOptions("title", FieldOptions{Boost: 2})
		if err := ix.AddBatch(docs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryResident reports the live heap an index retains after
// building and a GC — the resident cost of the posting lists and doc
// tables, which allocation churn (B/op) cannot show.
func BenchmarkQueryResident(b *testing.B) {
	docs := queryBenchCorpus(2000)
	var m0, m1 goruntime.MemStats
	for i := 0; i < b.N; i++ {
		goruntime.GC()
		goruntime.ReadMemStats(&m0)
		ix := New(WithShards(4))
		ix.SetFieldOptions("title", FieldOptions{Boost: 2})
		if err := ix.AddBatch(docs); err != nil {
			b.Fatal(err)
		}
		goruntime.GC()
		goruntime.ReadMemStats(&m1)
		b.ReportMetric(float64(m1.HeapAlloc)-float64(m0.HeapAlloc), "resident-B")
		goruntime.KeepAlive(ix)
	}
}
