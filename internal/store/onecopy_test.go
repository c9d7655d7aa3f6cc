package store

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestSnapshotHoldsEachRecordOnce: a dataset's snapshot holds each
// record once, in the store's record section. The index keeps no copy
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
	for i := range 60 {
		want := 1
		if i == 11 {
			want = 0
		}
		if got := bytes.Count(snap, []byte(description(i))); got != want {
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
