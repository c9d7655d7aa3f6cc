package store

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/index"
)

// blockStore builds a 3-shard store holding one catalog dataset of n
// records whose entries fill several record blocks.
func blockStore(t testing.TB, n int) *Store {
	t.Helper()
	s := New(WithShardTarget(3))
	if err := s.CreateTenant("shop", "dana"); err != nil {
		t.Fatal(err)
	}
	ds, err := s.CreateDataset("shop", "dana", Schema{Name: "catalog", Key: "sku", Fields: []Field{
		{Name: "sku", Required: true},
		{Name: "title", Searchable: true},
		{Name: "producer"},
		{Name: "description", Searchable: true},
		{Name: "price", Type: TypeNumber},
	}})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			"sku":         fmt.Sprintf("S%04d", i),
			"title":       fmt.Sprintf("catalog item %d", i),
			"producer":    fmt.Sprintf("producer%d", i%7),
			"description": fmt.Sprintf("a hand finished piece, lot %d, with the maker's notes on item %d", i*31%1000, i),
			"price":       fmt.Sprintf("%d.50", 5+i%90),
		}
	}
	if _, err := ds.AddBatchContext(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	return s
}

func catalogOf(t testing.TB, s *Store) *Dataset {
	t.Helper()
	ds, err := s.DatasetContext(context.Background(), "shop", "dana", "catalog", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRecordBlockInflates: a mapped restore inflates a record block
// only to read a record, and a request inflates each block it reads
// from once, as DatasetStatus's recordBlockInflates counts them: an
// attach, an ID probe and a Get of a missing ID inflate none, a Get
// one, a top-10 search at most ten, and a filtered search, a facet
// count, a listing and the field statistics each block they touch
// exactly once.
func TestRecordBlockInflates(t *testing.T) {
	ctx := context.Background()
	s := restoreMapped(t, snapshotBytes(t, blockStore(t, 600)))
	ds := catalogOf(t, s)
	mr := ds.mrecs
	if mr.nblocks < 4 {
		t.Fatalf("%d record blocks, want several", mr.nblocks)
	}
	inflates := func() uint64 {
		t.Helper()
		st := s.Status()
		if len(st) != 1 {
			t.Fatalf("status has %d datasets", len(st))
		}
		return st[0].RecordBlockInflates
	}
	step := func(what string, want func(n uint64) bool, f func()) {
		t.Helper()
		before := inflates()
		f()
		if n := inflates() - before; !want(n) {
			t.Fatalf("%s inflated %d blocks", what, n)
		}
	}
	exactly := func(want int) func(uint64) bool { return func(n uint64) bool { return n == uint64(want) } }
	if n := inflates(); n != 0 {
		t.Fatalf("attach inflated %d blocks", n)
	}
	step("find", exactly(0), func() {
		if _, ok := mr.find("S0123"); !ok {
			t.Fatal("find S0123")
		}
	})
	step("a Get of a missing ID", exactly(0), func() {
		if _, ok := ds.Get("nosuch"); ok {
			t.Fatal("Get(nosuch) found a record")
		}
	})
	step("a Get", exactly(1), func() {
		if rec, ok := ds.Get("S0123"); !ok || rec["title"] != "catalog item 123" {
			t.Fatalf("Get(S0123) = %v, %v", rec, ok)
		}
	})
	step("a top-10 search", func(n uint64) bool { return n >= 1 && n <= 10 }, func() {
		hits, err := ds.SearchContext(ctx, SearchRequest{Query: "maker notes", Limit: 10})
		if err != nil || len(hits) != 10 {
			t.Fatalf("search: %d hits, %v", len(hits), err)
		}
	})
	// touched counts the blocks holding the records a query matches:
	// the records a filter or a facet count reads.
	touched := func(query string) int {
		t.Helper()
		q, err := ds.prepare(SearchRequest{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := ds.ix.SearchContext(ctx, q, index.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var blocks []int
		for _, r := range raw {
			i, ok := mr.find(r.ID)
			if !ok {
				t.Fatalf("hit %s not in the base", r.ID)
			}
			if b := mr.blockOf(i); !slices.Contains(blocks, b) {
				blocks = append(blocks, b)
			}
		}
		return len(blocks)
	}
	filtered := SearchRequest{Query: "lot 7", Filters: []Filter{{Field: "producer", Op: "=", Value: "producer3"}}, OrderBy: "-price"}
	if n := touched(filtered.Query); n < 2 {
		t.Fatalf("the filtered query touches %d blocks, want several", n)
	}
	step("a filtered search", exactly(touched(filtered.Query)), func() {
		if _, err := ds.SearchContext(ctx, filtered); err != nil {
			t.Fatal(err)
		}
	})
	step("a facet count", exactly(touched(filtered.Query)), func() {
		if _, err := ds.FacetsContext(ctx, filtered, "producer"); err != nil {
			t.Fatal(err)
		}
	})
	step("a listing", exactly(mr.nblocks), func() {
		if got := ds.List(0, 0); len(got) != 600 {
			t.Fatalf("List: %d records", len(got))
		}
	})
	step("field statistics", exactly(mr.nblocks), func() { ds.Stats() })
}

// TestMappedRecordReadersShareInflaters: concurrent readers of a
// mapped dataset — Gets, searches, facet counts and listings, each
// taking pooled inflate state and giving it back — read exactly what
// the heap-built store answers. Run under -race this pins down that no
// two readers share one inflater's scratch.
func TestMappedRecordReadersShareInflaters(t *testing.T) {
	ctx := context.Background()
	heap := catalogOf(t, blockStore(t, 300))
	mapped := catalogOf(t, restoreMapped(t, snapshotBytes(t, blockStore(t, 300))))
	reqs := []SearchRequest{
		{Query: "maker notes", Limit: 10},
		{Query: "lot 7", Filters: []Filter{{Field: "producer", Op: "=", Value: "producer3"}}},
		{Query: "", OrderBy: "-price", Limit: 20, Offset: 5},
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := fmt.Sprintf("S%04d", (r*71+i*37)%300)
				got, gotOK := mapped.Get(id)
				want, wantOK := heap.Get(id)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Errorf("reader %d: Get(%s) = %v, want %v", r, id, got, want)
					return
				}
				req := reqs[(r+i)%len(reqs)]
				gotH, err1 := mapped.SearchContext(ctx, req)
				wantH, err2 := heap.SearchContext(ctx, req)
				if err1 != nil || err2 != nil || !reflect.DeepEqual(gotH, wantH) {
					t.Errorf("reader %d: search %+v differs from the heap store's (%v, %v)", r, req, err1, err2)
					return
				}
				gotF, _ := mapped.FacetsContext(ctx, req, "producer")
				wantF, _ := heap.FacetsContext(ctx, req, "producer")
				if !reflect.DeepEqual(gotF, wantF) {
					t.Errorf("reader %d: facets %+v = %v, want %v", r, req, gotF, wantF)
					return
				}
				if i%10 == 0 && !reflect.DeepEqual(mapped.List(i, 50), heap.List(i, 50)) {
					t.Errorf("reader %d: List(%d, 50) differs", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestRecordSectionHostileBlocks: a record block that is truncated,
// whose stream ends before or runs past its declared length, or that
// declares a length past frameio.MaxFrame fails closed — attach
// refuses the section, or every entry of that block reads as corrupt
// and is stepped over while the other blocks' entries read as before.
// A 10-byte stream declaring 1 GiB allocates what it yields, not what
// it declares.
func TestRecordSectionHostileBlocks(t *testing.T) {
	ds := catalogOf(t, blockStore(t, 300))
	ds.mu.RLock()
	sec := ds.encodeRecordsLocked(nil)
	ds.mu.RUnlock()
	good, err := attachRecordSection(sec, ds.schema)
	if err != nil {
		t.Fatal(err)
	}
	if good.nblocks < 3 {
		t.Fatalf("%d record blocks, want at least 3", good.nblocks)
	}
	const bad = 1
	first, end := good.blockEntries(bad)
	for name, hostile := range hostileBlocks(t, sec, ds.schema, bad) {
		mr, err := attachRecordSection(hostile, ds.schema)
		if name == "past MaxFrame" {
			if err == nil {
				t.Errorf("%s: the section attached", name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: attach: %v", name, err)
			continue
		}
		for i := 0; i < mr.count; i++ {
			rec, ok := mr.recordAt(i)
			want, _ := good.recordAt(i)
			if inBad := i >= first && i < end; ok == inBad || (ok && !reflect.DeepEqual(rec, want)) {
				t.Fatalf("%s: entry %d (block %d) reads %v %v", name, i, mr.blockOf(i), rec, ok)
			}
		}
		d := &Dataset{schema: ds.schema, mrecs: mr}
		n := 0
		for range d.recordsLocked(0) {
			n++
		}
		if want := mr.count - (end - first); n != want {
			t.Errorf("%s: the walk yields %d records, want %d", name, n, want)
		}
		if name == "1 GiB" {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mr.recordAt(first)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s: reading the block allocated %d bytes", name, got)
			}
		}
	}
}

// TestRecordSectionStoresSmall: a section whose entries total less
// than recordDeflateMin bytes holds them in stored DEFLATE blocks,
// read back as any block is; from recordDeflateMin on, every block is
// compressed. Both round-trip through attach and a re-encode.
func TestRecordSectionStoresSmall(t *testing.T) {
	for _, n := range []int{20, 300} {
		ds := catalogOf(t, blockStore(t, n))
		ds.mu.RLock()
		sec := ds.encodeRecordsLocked(nil)
		ds.mu.RUnlock()
		mr, err := attachRecordSection(sec, ds.schema)
		if err != nil {
			t.Fatal(err)
		}
		total, stored := 0, 0
		var z inflater
		for b := 0; b < mr.nblocks; b++ {
			size, comp := mr.block(b)
			if !z.inflate(comp, size) {
				t.Fatalf("%d records: block %d does not inflate", n, b)
			}
			total += size
			if bytes.Equal(comp, appendStored(nil, z.buf)) {
				stored++
			}
		}
		if want := map[bool]int{true: mr.nblocks, false: 0}[total < recordDeflateMin]; stored != want {
			t.Fatalf("%d records, %d entry bytes: %d of %d blocks stored, want %d", n, total, stored, mr.nblocks, want)
		}
		d := &Dataset{schema: ds.schema, mrecs: mr}
		if again := d.encodeRecordsLocked(nil); !bytes.Equal(again, sec) {
			t.Fatalf("%d records: the re-encode of an attached section differs", n)
		}
		for i := 0; i < mr.count; i++ {
			idb, _ := mr.idBytesAt(i)
			if rec, ok := mr.recordAt(i); !ok || !reflect.DeepEqual(rec, ds.records[string(idb)]) {
				t.Fatalf("%d records: entry %d reads %v %v", n, i, rec, ok)
			}
		}
	}
}
