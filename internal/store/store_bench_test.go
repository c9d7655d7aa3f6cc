package store

import (
	"context"
	"fmt"
	"testing"
)

func benchDataset(b *testing.B, n int) *Dataset {
	b.Helper()
	s := New()
	s.CreateTenant("t", "o")
	ds, err := s.CreateDataset("t", "o", Schema{
		Name: "d", Key: "id",
		Fields: []Field{
			{Name: "id", Required: true},
			{Name: "title", Searchable: true},
			{Name: "price", Type: TypeNumber},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ds.Put(Record{
			"id":    fmt.Sprintf("r%d", i),
			"title": fmt.Sprintf("product number %d deluxe edition", i),
			"price": fmt.Sprintf("%d", 10+i%90),
		})
	}
	return ds
}

func BenchmarkPut(b *testing.B) {
	ds := benchDataset(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Put(Record{
			"id":    fmt.Sprintf("r%d", i),
			"title": "a searchable product title",
			"price": "42",
		})
	}
}

func BenchmarkSearchText(b *testing.B) {
	ds := benchDataset(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.SearchContext(context.Background(), SearchRequest{Query: "deluxe", Limit: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchFiltered(b *testing.B) {
	ds := benchDataset(b, 5000)
	req := SearchRequest{
		Filters: []Filter{{Field: "price", Op: "<", Value: "30"}},
		OrderBy: "-price",
		Limit:   10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.SearchContext(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// Snapshot/restore benchmarks live in persist_bench_test.go.

func BenchmarkStats(b *testing.B) {
	ds := benchDataset(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ds.Stats(); len(got) != 3 {
			b.Fatal("stats lost fields")
		}
	}
}
