package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
)

// persistBenchStore builds a store shaped like a small hosted
// platform: many tenants, a couple of datasets each, free-text
// records — enough encode work per dataset that the worker pool has
// something to parallelize.
func persistBenchStore(b *testing.B, tenants, datasetsPer, recordsPer int) *Store {
	b.Helper()
	s := New()
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant%02d", ti)
		owner := fmt.Sprintf("owner%02d", ti)
		if err := s.CreateTenant(tenant, owner); err != nil {
			b.Fatal(err)
		}
		for di := 0; di < datasetsPer; di++ {
			ds, err := s.CreateDataset(tenant, owner, Schema{
				Name: fmt.Sprintf("data%d", di), Key: "id",
				Fields: []Field{
					{Name: "id", Required: true},
					{Name: "title", Searchable: true},
					{Name: "body", Searchable: true},
					{Name: "price", Type: TypeNumber},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			for ri := 0; ri < recordsPer; ri++ {
				_, err := ds.Put(Record{
					"id":    fmt.Sprintf("r%04d", ri),
					"title": fmt.Sprintf("catalog item %d in collection %d", ri, di),
					"body":  fmt.Sprintf("a fairly descriptive body with shared vocabulary and unique token%d for item number %d", ri, ri),
					"price": fmt.Sprintf("%d.99", 5+ri%200),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return s
}

// BenchmarkSnapshotRestore measures a full checkpoint cycle: snapshot
// a heap-built store, then restore the bytes into a fresh store.
func BenchmarkSnapshotRestore(b *testing.B) {
	s := persistBenchStore(b, 8, 2, 400)
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.SnapshotContext(context.Background(), &buf); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if err := New().RestoreContext(context.Background(), buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(size))
}

// BenchmarkSnapshotOnly isolates the checkpoint write path — what a
// running symphonyd pays in the background — from a store built by
// writes (every frame encoded) and from one just restored from its
// snapshot (every frame copied verbatim from the attached bytes).
func BenchmarkSnapshotOnly(b *testing.B) {
	heap := persistBenchStore(b, 8, 2, 400)
	var snap bytes.Buffer
	if err := heap.SnapshotContext(context.Background(), &snap); err != nil {
		b.Fatal(err)
	}
	restored := New()
	if err := restored.RestoreContext(context.Background(), snap.Bytes()); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		s    *Store
	}{{"heap", heap}, {"restored", restored}} {
		s := mode.s
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.SnapshotContext(context.Background(), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreOnly isolates boot-time restore: it walks frame
// CRCs and directory offsets only — records and postings stay views
// into the snapshot bytes.
func BenchmarkRestoreOnly(b *testing.B) {
	s := persistBenchStore(b, 8, 2, 400)
	var snap bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(snap.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New().RestoreContext(context.Background(), snap.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}
