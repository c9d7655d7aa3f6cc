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

// restoreModes names the two ways a v3 snapshot comes back: decoded
// onto the heap, or attached as views over the snapshot bytes.
var restoreModes = []struct {
	name    string
	restore func(*Store, []byte) error
}{
	{"v3-heap", func(s *Store, data []byte) error { return s.RestoreContext(context.Background(), data) }},
	{"v3-mapped", func(s *Store, data []byte) error { return s.RestoreMappedContext(context.Background(), data) }},
}

// BenchmarkSnapshotRestore measures a full checkpoint cycle: snapshot
// a heap store, then restore the bytes into a fresh store, heap or
// mapped.
func BenchmarkSnapshotRestore(b *testing.B) {
	s := persistBenchStore(b, 8, 2, 400)
	for _, mode := range restoreModes {
		b.Run(mode.name, func(b *testing.B) {
			var size int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := s.SnapshotContext(context.Background(), &buf); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
				if err := mode.restore(New(), buf.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkSnapshotOnly isolates the checkpoint write path — what a
// running symphonyd pays in the background — from a store whose
// datasets live on the heap (every frame encoded) and from one just
// restored mapped (every frame copied verbatim from the mapping).
func BenchmarkSnapshotOnly(b *testing.B) {
	heap := persistBenchStore(b, 8, 2, 400)
	var snap bytes.Buffer
	if err := heap.SnapshotContext(context.Background(), &snap); err != nil {
		b.Fatal(err)
	}
	for _, mode := range restoreModes {
		s := New()
		if err := mode.restore(s, snap.Bytes()); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkRestoreOnly isolates boot-time restore: the heap path
// decodes every record and reattaches serialized shards, the mapped
// path only walks frame CRCs and directory offsets — records and
// postings stay views into the snapshot bytes.
func BenchmarkRestoreOnly(b *testing.B) {
	s := persistBenchStore(b, 8, 2, 400)
	var snap bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &snap); err != nil {
		b.Fatal(err)
	}
	for _, mode := range restoreModes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(snap.Len()))
			for i := 0; i < b.N; i++ {
				if err := mode.restore(New(), snap.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
