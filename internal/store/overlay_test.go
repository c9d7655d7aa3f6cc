package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
)

var overlaySchema = Schema{Name: "catalog", Key: "sku", Fields: []Field{
	{Name: "sku", Required: true},
	{Name: "title", Searchable: true},
	{Name: "body", Searchable: true},
	{Name: "maker"},
	{Name: "price", Type: TypeNumber},
}}

var overlayWords = []string{"red", "blue", "widget", "gadget", "common", "rare", "alpha", "omega"}

func overlayRecord(rng *rand.Rand, sku string) Record {
	words := func(n int) string {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(overlayWords[rng.Intn(len(overlayWords))])
		}
		return b.String()
	}
	return Record{
		"sku":   sku,
		"title": words(2),
		"body":  words(1 + rng.Intn(6)),
		"maker": fmt.Sprintf("maker%d", rng.Intn(4)),
		"price": fmt.Sprint(rng.Intn(100)),
	}
}

// overlayStore builds a 3-shard store holding one 120-row dataset
// with ten tombstones: the heap twin, and the source of the snapshot
// the mapped twin attaches.
func overlayStore(t *testing.T) *Store {
	t.Helper()
	ctx := context.Background()
	src := New(WithShardTarget(3))
	if err := src.CreateTenant("shop", "dana"); err != nil {
		t.Fatal(err)
	}
	ds, err := src.CreateDataset("shop", "dana", overlaySchema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([]Record, 120)
	for i := range rows {
		rows[i] = overlayRecord(rng, fmt.Sprintf("S%03d", i))
	}
	if _, err := ds.AddBatchContext(ctx, rows); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 120; i += 12 {
		ds.Delete(fmt.Sprintf("S%03d", i))
	}
	return src
}

// overlayDataset returns the catalog dataset of an overlay twin.
func overlayDataset(t *testing.T, s *Store) *Dataset {
	t.Helper()
	ds, err := s.DatasetContext(context.Background(), "shop", "dana", "catalog", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestOverlayMatchesHeapTwin is the differential test of the mapped
// base plus heap overlay: a mapped-restored dataset and its heap-built
// twin take the same seeded random sequence of appends, replacements
// and deletes of base rows, re-adds, batches, queries, counts, facets,
// List, Stats and checkpoints, and must answer identically at every
// step and checkpoint to identical bytes. No write decodes a whole doc
// table or record section.
func TestOverlayMatchesHeapTwin(t *testing.T) {
	ctx := context.Background()
	data := snapshotBytes(t, overlayStore(t))
	for seed := int64(1); seed <= 8; seed++ {
		ms, hs := restoreMapped(t, data), overlayStore(t)
		mds, hds := overlayDataset(t, ms), overlayDataset(t, hs)
		rng := rand.New(rand.NewSource(seed))
		sku := func() string {
			if rng.Intn(5) == 0 {
				return fmt.Sprintf("N%03d", rng.Intn(30))
			}
			return fmt.Sprintf("S%03d", rng.Intn(130))
		}
		// Both twins answer every read through describe; a difference
		// in any answer fails the step.
		describe := func(ds *Dataset, read int, arg string, n1, n2 int) string {
			switch read {
			case 0:
				return fmt.Sprint(ds.Len(), ds.List(0, 0))
			case 1:
				return fmt.Sprint(ds.List(n1, n2))
			case 2:
				return fmt.Sprint(ds.Stats())
			case 3:
				rec, ok := ds.Get(arg)
				return fmt.Sprint(rec, ok)
			case 4:
				hits, err := ds.SearchContext(ctx, SearchRequest{Query: arg, Limit: n2, Offset: n1})
				return fmt.Sprint(hits, err)
			case 5:
				hits, err := ds.SearchContext(ctx, SearchRequest{Query: arg,
					Filters: []Filter{{Field: "price", Op: "<", Value: fmt.Sprint(n1 * 10)}}, OrderBy: "-price", Limit: n2})
				return fmt.Sprint(hits, err)
			case 6:
				fc, err := ds.FacetsContext(ctx, SearchRequest{Query: arg}, "maker")
				return fmt.Sprint(fc, err)
			default:
				n, err := ds.ix.CountContext(ctx, index.MatchQuery{Text: arg})
				return fmt.Sprint(n, err)
			}
		}
		for step := 0; step < 80; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				id := sku()
				rec := overlayRecord(rng, id)
				for _, ds := range []*Dataset{mds, hds} {
					if _, err := ds.Put(rec); err != nil {
						t.Fatalf("%s put %s: %v", label, id, err)
					}
				}
			case op < 6:
				id := sku()
				if got, want := mds.Delete(id), hds.Delete(id); got != want {
					t.Fatalf("%s delete %s: mapped %v, heap %v", label, id, got, want)
				}
			case op < 7:
				rows := make([]Record, 4)
				for i := range rows {
					rows[i] = overlayRecord(rng, sku())
				}
				for _, ds := range []*Dataset{mds, hds} {
					if _, err := ds.AddBatchContext(ctx, rows); err != nil {
						t.Fatalf("%s batch: %v", label, err)
					}
				}
			case op < 9:
				read, arg := rng.Intn(8), overlayWords[rng.Intn(len(overlayWords))]
				if read == 3 {
					arg = sku()
				}
				n1, n2 := rng.Intn(10), rng.Intn(12)
				if got, want := describe(mds, read, arg, n1, n2), describe(hds, read, arg, n1, n2); got != want {
					t.Fatalf("%s read %d(%s, %d, %d):\nmapped %s\nheap   %s", label, read, arg, n1, n2, got, want)
				}
			default:
				var a, b bytes.Buffer
				if err := ms.SnapshotContext(ctx, &a); err != nil {
					t.Fatal(err)
				}
				if err := hs.SnapshotContext(ctx, &b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("%s: mapped checkpoint (%d bytes) differs from heap twin's (%d)", label, a.Len(), b.Len())
				}
				if rng.Intn(2) == 0 {
					// Reboot the mapped twin from the checkpoint: its
					// next base is this step's written state.
					ms = restoreMapped(t, a.Bytes())
					mds = overlayDataset(t, ms)
				}
			}
			if got, want := describe(mds, 0, "", 0, 0), describe(hds, 0, "", 0, 0); got != want {
				t.Fatalf("%s listing:\nmapped %s\nheap   %s", label, got, want)
			}
		}
		requireMapped(t, ms)
	}
}

// TestOverlayRecordFindAllocs: resolving an ID against a mapped record
// section compares bytes in place, hit or miss.
func TestOverlayRecordFindAllocs(t *testing.T) {
	ds := overlayDataset(t, restoreMapped(t, snapshotBytes(t, overlayStore(t))))
	mr := ds.mrecs
	for _, tc := range []struct {
		id   string
		want bool
	}{{"S000", true}, {"S005", false}, {"S119", true}, {"nosuch", false}} {
		if _, ok := mr.find(tc.id); ok != tc.want {
			t.Fatalf("find(%q) = %v, want %v", tc.id, ok, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { mr.find(tc.id) }); n != 0 {
			t.Errorf("find(%q) made %v allocations, want 0", tc.id, n)
		}
	}
}
