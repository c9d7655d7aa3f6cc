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

// BenchmarkSnapshotRestore compares the serial legacy v1 path against
// the parallel framed path (now v3) at several worker counts,
// measuring a full checkpoint cycle (snapshot + restore into a fresh
// store). Results are recorded in BENCH_persist.json.
func BenchmarkSnapshotRestore(b *testing.B) {
	s := persistBenchStore(b, 8, 2, 400)

	roundTrip := func(b *testing.B, snap func(io.Writer) error, opts ...PersistOption) {
		b.Helper()
		var size int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := snap(&buf); err != nil {
				b.Fatal(err)
			}
			size = buf.Len()
			fresh := New()
			if err := fresh.RestoreContext(context.Background(), bytes.NewReader(buf.Bytes()), opts...); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(size))
	}

	b.Run("v1-serial", func(b *testing.B) {
		roundTrip(b, s.SnapshotV1)
	})
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("v3-workers-%d", workers), func(b *testing.B) {
			roundTrip(b, func(w io.Writer) error {
				return s.SnapshotContext(context.Background(), w, WithWorkers(workers))
			}, WithWorkers(workers))
		})
	}
}

// benchWorkerCounts is fixed rather than derived from the host, so
// sub-benchmark names mean the same thing on every machine.
func benchWorkerCounts() []int { return []int{1, 2, 4} }

// BenchmarkSnapshotOnly isolates the checkpoint write path — what a
// running symphonyd pays in the background.
func BenchmarkSnapshotOnly(b *testing.B) {
	s := persistBenchStore(b, 8, 2, 400)
	b.Run("v1-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.SnapshotV1(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("v3-workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.SnapshotContext(context.Background(), io.Discard, WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreOnly isolates boot-time restore: v1 reindexes every
// record, the framed heap path reattaches serialized shards, and the
// mapped path only walks frame CRCs and directory offsets — records
// and postings stay views into the snapshot bytes.
func BenchmarkRestoreOnly(b *testing.B) {
	s := persistBenchStore(b, 8, 2, 400)
	var v1, v3 bytes.Buffer
	if err := s.SnapshotV1(&v1); err != nil {
		b.Fatal(err)
	}
	if err := s.SnapshotContext(context.Background(), &v3); err != nil {
		b.Fatal(err)
	}
	b.Run("v1-serial", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v1.Len()))
		for i := 0; i < b.N; i++ {
			if err := New().RestoreContext(context.Background(), bytes.NewReader(v1.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("v3-workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(v3.Len()))
			for i := 0; i < b.N; i++ {
				if err := New().RestoreContext(context.Background(), bytes.NewReader(v3.Bytes()), WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("v3-mapped", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v3.Len()))
		for i := 0; i < b.N; i++ {
			if err := New().RestoreMappedContext(context.Background(), v3.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
