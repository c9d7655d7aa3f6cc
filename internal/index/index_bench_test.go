package index

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func benchDocs(n int) []Document {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa", "search", "review", "platform"}
	docs := make([]Document, n)
	for i := range docs {
		var b strings.Builder
		for w := 0; w < 20; w++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteByte(' ')
		}
		docs[i] = Document{
			ID:     fmt.Sprintf("d%d", i),
			Fields: map[string]string{"body": b.String(), "title": vocab[i%len(vocab)]},
		}
	}
	return docs
}

func BenchmarkAddSingle(b *testing.B) {
	docs := benchDocs(b.N + 1)
	ix := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Add(docs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchMatch(b *testing.B) {
	ix := New()
	ix.AddBatch(benchDocs(5000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.mustSearch(MatchQuery{Text: "alpha review"}, SearchOptions{Limit: 10})
	}
}

func BenchmarkSearchBool(b *testing.B) {
	ix := New()
	ix.AddBatch(benchDocs(5000))
	q := BoolQuery{
		Must:    []Query{MatchQuery{Text: "alpha"}},
		MustNot: []Query{TermQuery{Field: "title", Term: "beta"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.mustSearch(q, SearchOptions{Limit: 10})
	}
}

// BenchmarkSearchMatchParallel drives concurrent searches against a
// single-shard index and the default sharded fan-out.
func BenchmarkSearchMatchParallel(b *testing.B) {
	docs := benchDocs(5000)
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"shards=1", []Option{WithShards(1)}},
		{"shards=default", nil},
	} {
		ix := New(cfg.opts...)
		if err := ix.AddBatch(docs); err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					ix.mustSearch(MatchQuery{Text: "alpha review"}, SearchOptions{Limit: 10})
				}
			})
		})
	}
}

func BenchmarkDeleteAndCompact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := New()
		ix.AddBatch(benchDocs(2000))
		b.StartTimer()
		for d := 0; d < 1000; d++ {
			ix.Delete(fmt.Sprintf("d%d", d))
		}
		if err := ix.CompactContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuggestTerms(b *testing.B) {
	ix := New()
	ix.AddBatch(benchDocs(5000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SuggestTerms("body", "alpka", 3)
	}
}
