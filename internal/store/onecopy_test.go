package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/frameio"
)

// TestSnapshotHoldsEachRecordOnce: a dataset's snapshot holds each
// record once, in the store's record section. The count runs over the
// snapshot with its record blocks inflated, so a copy inside a
// compressed block counts as one anywhere else does. The index keeps no copy
// of the record: its doc entries name the fields without their text,
// and the store sends it nothing to store. A mapped restore of the
// snapshot answers searches, facets and Gets exactly as the store it
// was written from.
func TestSnapshotHoldsEachRecordOnce(t *testing.T) {
	s := New(WithShardTarget(3))
	if err := s.CreateTenant("gamerqueen", "ann"); err != nil {
		t.Fatal(err)
	}
	ds, err := s.CreateDataset("gamerqueen", "ann", gameSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Each description is distinctive: the record's number spelled
	// into words no other description shares.
	description := func(i int) string {
		return fmt.Sprintf("handcrafted vintage cartridge lot%04d with manual and box", i)
	}
	producers := []string{"Nintendo", "Ensemble", "Epic"}
	var recs []Record
	for i := range 60 {
		recs = append(recs, Record{
			"sku": fmt.Sprintf("G%03d", i), "title": fmt.Sprintf("Game %d adventure", i),
			"producer": producers[i%3], "description": description(i),
			"price": fmt.Sprintf("%d.99", 10+i), "instock": "true",
		})
	}
	if _, err := ds.AddBatchContext(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	// A replaced record and a deleted one leave tombstones behind.
	recs[7]["title"] = "Game 7 replaced adventure"
	if _, err := ds.Put(recs[7]); err != nil {
		t.Fatal(err)
	}
	if !ds.Delete("G011") {
		t.Fatal("delete G011")
	}
	snap := snapshotBytes(t, s)
	inflated := inflatedSnapshot(t, snap)
	for i := range 60 {
		want := 1
		if i == 11 {
			want = 0
		}
		if got := bytes.Count(inflated, []byte(description(i))); got != want {
			t.Fatalf("record %d: its description occurs %d times in the snapshot, want %d", i, got, want)
		}
	}

	restored := restoreMapped(t, snap)
	rds, err := restored.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", PermRead)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []SearchRequest{
		{Query: "adventure"},
		{Query: "vintage cartridge", Limit: 5, Offset: 3},
		{Query: "lot0042 manual"},
		{Query: "replaced"},
		{Query: "adventure", Filters: []Filter{{Field: "producer", Op: "=", Value: "Epic"}}, OrderBy: "-price"},
	} {
		got, err := rds.SearchContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.SearchContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("search %+v: restored %v, want %v", req, got, want)
		}
		gotF, err := rds.FacetsContext(context.Background(), req, "producer")
		if err != nil {
			t.Fatal(err)
		}
		wantF, err := ds.FacetsContext(context.Background(), req, "producer")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("facets %+v: restored %v, want %v", req, gotF, wantF)
		}
	}
	for i := range 60 {
		id := fmt.Sprintf("G%03d", i)
		got, gotOK := rds.Get(id)
		want, wantOK := ds.Get(id)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%s): restored %v %v, want %v %v", id, got, gotOK, want, wantOK)
		}
	}
}

// TestSnapshotHoldsNoPerRecordNames: a snapshot names a field once
// per place that describes the dataset — the schema, the index header,
// each index shard's field section — never once per record: record
// entries mark their fields in a schema-ordered bitmap, and index doc
// entries name none. The count runs over the snapshot with its record
// blocks inflated. A field present with the empty value and a
// missing one round-trip apart through a mapped restore, and a
// restored dataset written to again encodes the bytes the original
// does after the same write.
func TestSnapshotHoldsNoPerRecordNames(t *testing.T) {
	const shards, n = 3, 200
	s := New(WithShardTarget(shards))
	if err := s.CreateTenant("acme", "ann"); err != nil {
		t.Fatal(err)
	}
	schema := Schema{Name: "catalog", Key: "sku", Fields: []Field{
		{Name: "sku", Required: true},
		{Name: "title", Searchable: true},
		{Name: "zzdescription", Searchable: true},
		{Name: "note"},
	}}
	ds, err := s.CreateDataset("acme", "ann", schema)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := range n {
		rec := Record{"sku": fmt.Sprintf("S%03d", i), "title": fmt.Sprintf("item %d", i)}
		switch i % 4 {
		case 1:
			rec["zzdescription"] = ""
		case 2, 3:
			rec["zzdescription"] = fmt.Sprintf("plain words %d", i)
		}
		if i%5 == 0 {
			rec["note"] = ""
		} else if i%5 == 1 {
			rec["note"] = "kept"
		}
		recs = append(recs, rec)
	}
	if _, err := ds.AddBatchContext(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	snap := snapshotBytes(t, s)
	if got := bytes.Count(inflatedSnapshot(t, snap), []byte("zzdescription")); got > 2+shards {
		t.Fatalf("the field name occurs %d times in a snapshot of %d records, want at most %d", got, n, 2+shards)
	}

	restored := restoreMapped(t, snap)
	rds, err := restored.DatasetContext(context.Background(), "acme", "ann", "catalog", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		got, ok := rds.Get(rec["sku"])
		if !ok {
			t.Fatalf("Get(%s) missing", rec["sku"])
		}
		delete(got, "_id")
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("Get(%s) = %#v, want %#v", rec["sku"], got, rec)
		}
	}
	if got, want := rds.List(0, 0), ds.List(0, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored List differs:\n%v\nwant\n%v", got, want)
	}
	for _, d := range []*Dataset{ds, rds} {
		if _, err := d.Put(Record{"sku": "S007", "title": "item 7 rewritten", "zzdescription": ""}); err != nil {
			t.Fatal(err)
		}
		if !d.Delete("S100") {
			t.Fatal("delete S100")
		}
	}
	if !bytes.Equal(snapshotBytes(t, restored), snapshotBytes(t, s)) {
		t.Fatal("restored-then-written snapshot differs from the original's after the same writes")
	}
}

// inflatedSnapshot returns snap with every record block of every
// dataset frame replaced by the entry bytes it inflates to: what a
// count of a value's occurrences must run over, since inside a DEFLATE
// block a value need not appear as its own bytes.
func inflatedSnapshot(t testing.TB, snap []byte) []byte {
	t.Helper()
	hdrBytes, off, err := frameio.NextFrameInBuf(snap, len(snapshotMagic), true)
	if err != nil {
		t.Fatal(err)
	}
	var hdr framedHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		t.Fatal(err)
	}
	out := bytes.Clone(snap[:off])
	for _, vt := range hdr.Tenants {
		for range vt.Datasets {
			start := off
			var frame []byte
			if frame, off, err = frameio.NextFrameInBuf(snap, off, true); err != nil {
				t.Fatal(err)
			}
			metaBytes, rest, err := cutSection(frame, "metadata")
			if err != nil {
				t.Fatal(err)
			}
			var meta datasetMeta
			if err := json.Unmarshal(metaBytes, &meta); err != nil {
				t.Fatal(err)
			}
			sec, _, err := cutSection(rest, "record section")
			if err != nil {
				t.Fatal(err)
			}
			mr, err := attachRecordSection(sec, meta.Schema)
			if err != nil {
				t.Fatal(err)
			}
			// The section starts after the frame header (12 bytes) and
			// the metadata and section length prefixes.
			secAt := start + 12 + 8 + len(metaBytes) + 8
			blocksAt := secAt + len(mr.ids)
			out = append(out, snap[start:blocksAt]...)
			var z inflater
			for b := 0; b < mr.nblocks; b++ {
				size, comp := mr.block(b)
				if !z.inflate(comp, size) {
					t.Fatalf("%s/%s: block %d does not inflate", vt.ID, meta.Schema.Name, b)
				}
				out = append(out, z.buf...)
			}
			out = append(out, snap[secAt+len(sec):off]...)
		}
	}
	return append(out, snap[off:]...)
}
