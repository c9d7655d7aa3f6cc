package store

import (
	"errors"
	"fmt"
	"testing"
)

func TestQuotaEnforced(t *testing.T) {
	s, ds := newInventory(t) // 4 records exist
	if err := s.SetQuota("gamerqueen", "ann", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Put(Record{"sku": "G5", "title": "Fifth Game"}); err != nil {
		t.Fatalf("put within quota failed: %v", err)
	}
	_, err := ds.Put(Record{"sku": "G6", "title": "Sixth Game"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota not enforced: %v", err)
	}
	// Replacing an existing record is allowed at the quota ceiling.
	if _, err := ds.Put(Record{"sku": "G1", "title": "Zelda Updated"}); err != nil {
		t.Fatalf("replacement blocked by quota: %v", err)
	}
	// Deleting frees room.
	ds.Delete("G2")
	if _, err := ds.Put(Record{"sku": "G7", "title": "Seventh"}); err != nil {
		t.Fatalf("put after delete failed: %v", err)
	}
}

func TestQuotaSpansDatasets(t *testing.T) {
	s, _ := newInventory(t) // inventory has 4 records
	if err := s.SetQuota("gamerqueen", "ann", 6); err != nil {
		t.Fatal(err)
	}
	other, err := s.CreateDataset("gamerqueen", "ann", Schema{
		Name: "notes", Fields: []Field{{Name: "text", Searchable: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := other.Put(Record{"text": fmt.Sprintf("note %d", i)}); err != nil {
			t.Fatalf("note %d: %v", i, err)
		}
	}
	if _, err := other.Put(Record{"text": "over quota"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("cross-dataset quota not enforced: %v", err)
	}
}

func TestQuotaOnlyOwnerSets(t *testing.T) {
	s, _ := newInventory(t)
	if err := s.SetQuota("gamerqueen", "mallory", 1); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("mallory set quota: %v", err)
	}
	if err := s.SetQuota("ghost", "ann", 1); !errors.Is(err, ErrNoSuchTenant) {
		t.Fatalf("ghost tenant: %v", err)
	}
}

func TestQuotaZeroUnlimited(t *testing.T) {
	s, ds := newInventory(t)
	if err := s.SetQuota("gamerqueen", "ann", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := ds.Put(Record{"sku": fmt.Sprintf("X%d", i), "title": "t"}); err != nil {
			t.Fatalf("unlimited quota blocked put: %v", err)
		}
	}
}

// TestPutErrorsNameNoBatchOrdinal: a put is a batch of one, but its
// quota and missing-key errors read as a single record's, so ingest
// can report each rejected upload row under its own ordinal.
func TestPutErrorsNameNoBatchOrdinal(t *testing.T) {
	s, ds := newInventory(t) // 4 records exist
	if err := s.SetQuota("gamerqueen", "ann", 4); err != nil {
		t.Fatal(err)
	}
	_, err := ds.Put(Record{"sku": "G5", "title": "Fifth Game"})
	if !errors.Is(err, ErrQuotaExceeded) || err.Error() != "store: tenant record quota exceeded" {
		t.Fatalf("over quota: %v", err)
	}
	notes, err := s.CreateDataset("gamerqueen", "ann", Schema{Name: "notes", Key: "ref", Fields: []Field{
		{Name: "ref"}, {Name: "text", Searchable: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = notes.Put(Record{"text": "no key"})
	if err == nil || err.Error() != `store: record missing key field "ref"` {
		t.Fatalf("missing key: %v", err)
	}
}
