package engine

import (
	"context"
	"testing"

	"repro/internal/webcorpus"
)

// benchEngine returns an engine with every vertical already indexed,
// so the benchmarks time the warm query, not the one-time build.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e := New(func() *webcorpus.Corpus { return testCorpus })
	for _, v := range webcorpus.Verticals {
		e.DocCount(v)
	}
	return e
}

func BenchmarkEngineWebSearch(b *testing.B) {
	e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(context.Background(), Request{Query: "review guide", Limit: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSiteRestricted(b *testing.B) {
	e := benchEngine(b)
	sites := []string{"ign.com", "gamespot.com", "teamxbox.com"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(context.Background(), Request{Query: "review", Sites: sites, Limit: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineNewsFreshness(b *testing.B) {
	e := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(context.Background(), Request{Query: "announcement news", Vertical: webcorpus.VerticalNews, Limit: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDidYouMean(b *testing.B) {
	e := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DidYouMean("reviw guide")
	}
}
