package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/frameio"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, ds := newInventory(t)
	if err := s.Grant("gamerqueen", "ann", "bob", PermRead); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}

	restored := New()
	if err := restored.RestoreContext(context.Background(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ds2, err := restored.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Len() != ds.Len() {
		t.Fatalf("record counts differ: %d vs %d", ds2.Len(), ds.Len())
	}
	// Records intact.
	rec, ok := ds2.Get("G1")
	if !ok || rec["title"] != "The Legend of Zelda" {
		t.Fatalf("G1 = %v %v", rec, ok)
	}
	// Indexes rebuilt: search works.
	hits, err := ds2.SearchContext(context.Background(), SearchRequest{Query: "zelda"})
	if err != nil || len(hits) != 2 {
		t.Fatalf("restored search = %v, %v", hits, err)
	}
	// Grants preserved.
	if _, err := restored.DatasetContext(context.Background(), "gamerqueen", "bob", "inventory", PermRead); err != nil {
		t.Fatalf("grant lost: %v", err)
	}
	if _, err := restored.DatasetContext(context.Background(), "gamerqueen", "mallory", "inventory", PermRead); err == nil {
		t.Fatal("access control lost in restore")
	}
	// Insertion order preserved.
	list := ds2.List(0, 0)
	if list[0]["sku"] != "G1" || list[3]["sku"] != "G4" {
		t.Fatalf("order lost: %v", list)
	}
}

func TestRestoreContinuesAutoIDs(t *testing.T) {
	s := New()
	s.CreateTenant("t", "o")
	ds, _ := s.CreateDataset("t", "o", Schema{Name: "notes", Fields: []Field{{Name: "text", Searchable: true}}})
	ds.Put(Record{"text": "first"})
	ds.Put(Record{"text": "second"})
	var buf bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.RestoreContext(context.Background(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ds2, _ := restored.DatasetContext(context.Background(), "t", "o", "notes", PermWrite)
	id, err := ds2.Put(Record{"text": "third"})
	if err != nil {
		t.Fatal(err)
	}
	if id != "3" {
		t.Fatalf("auto ID after restore = %q, want 3", id)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.RestoreContext(context.Background(), []byte("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := s.RestoreContext(context.Background(), []byte(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if err := s.RestoreContext(context.Background(), []byte(`{"version":1,"tenants":[{"id":"","owner":""}]}`)); err == nil {
		t.Fatal("empty tenant accepted")
	}
	bad := `{"version":1,"tenants":[{"id":"t","owner":"o","datasets":[{"schema":{"name":"d","fields":[{"name":"a"}]},"order":["1","2"],"records":[{"a":"x"}]}]}]}`
	if err := s.RestoreContext(context.Background(), []byte(bad)); err == nil {
		t.Fatal("order/record mismatch accepted")
	}
}

func TestRestoreReplacesExistingState(t *testing.T) {
	s, _ := newInventory(t)
	var buf bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	// A store with unrelated content restores to exactly the snapshot.
	other := New()
	other.CreateTenant("junk", "j")
	if err := other.RestoreContext(context.Background(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := other.Tenants(); len(got) != 1 || got[0] != "gamerqueen" {
		t.Fatalf("tenants after restore = %v", got)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	s, _ := newInventory(t)
	var a, b bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &a); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapshotContext(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("snapshots of identical state differ")
	}
	// The encode pool's width must not change the bytes either: frames
	// are written in deterministic order regardless of encode order.
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var c bytes.Buffer
		err := s.SnapshotContext(context.Background(), &c)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != c.String() {
			t.Errorf("GOMAXPROCS(%d) changed snapshot bytes", procs)
		}
	}
}

// multiTenantSchema is the schema of every multiTenantStore dataset.
func multiTenantSchema(name string) Schema {
	return Schema{
		Name: name, Key: "id",
		Fields: []Field{
			{Name: "id", Required: true},
			{Name: "title", Searchable: true},
			{Name: "body", Searchable: true},
			{Name: "price", Type: TypeNumber},
		},
	}
}

// multiTenantStore builds a store with several tenants and datasets,
// quotas and grants, for cross-format and parallelism tests. The shard
// target is fixed so its snapshot bytes do not depend on the host: the
// testdata fixtures were written from exactly this store.
func multiTenantStore(t testing.TB) *Store {
	t.Helper()
	s := New(WithShardTarget(3))
	for ti := 0; ti < 4; ti++ {
		tenant := fmt.Sprintf("tenant%d", ti)
		owner := fmt.Sprintf("owner%d", ti)
		if err := s.CreateTenant(tenant, owner); err != nil {
			t.Fatal(err)
		}
		if err := s.Grant(tenant, owner, "auditor", PermRead); err != nil {
			t.Fatal(err)
		}
		for di := 0; di < 2; di++ {
			name := fmt.Sprintf("data%d", di)
			ds, err := s.CreateDataset(tenant, owner, multiTenantSchema(name))
			if err != nil {
				t.Fatal(err)
			}
			for ri := 0; ri < 25; ri++ {
				_, err := ds.Put(Record{
					"id":    fmt.Sprintf("r%d", ri),
					"title": fmt.Sprintf("item %d of tenant %d", ri, ti),
					"body":  fmt.Sprintf("searchable common text plus unique%d", ri),
					"price": fmt.Sprintf("%d", 5+ri),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			// Deletions leave tombstones in the serialized indexes.
			ds.Delete("r3")
			ds.Delete("r7")
		}
		if err := s.SetQuota(tenant, owner, 1000); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// storeFingerprint summarizes queryable state: per-dataset record
// counts, listing order, and search hits WITH scores, so two stores
// compare deep-equal through the public API.
func storeFingerprint(t testing.TB, s *Store) string {
	t.Helper()
	var b bytes.Buffer
	for _, tenant := range s.Tenants() {
		// The auditor grant gives read access everywhere in
		// multiTenantStore; newInventory stores use the owner.
		for _, actor := range []string{"auditor", "ann"} {
			names, err := s.Datasets(tenant, actor)
			if err != nil {
				continue
			}
			for _, name := range names {
				ds, err := s.DatasetContext(context.Background(), tenant, actor, name, PermRead)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s/%s len=%d\n", tenant, name, ds.Len())
				for _, rec := range ds.List(0, 0) {
					fmt.Fprintf(&b, "  %s=%s\n", rec["_id"], rec["title"])
				}
				hits, err := ds.SearchContext(context.Background(), SearchRequest{Query: "common unique4"})
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range hits {
					fmt.Fprintf(&b, "  hit %s score=%v\n", h.ID, h.Score)
				}
			}
			break
		}
	}
	return b.String()
}

// readFixture loads a snapshot frozen under testdata/ (see
// testdata/README for how each was produced).
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV1V2CompatRoundTrip: v1 and v2 snapshots written by the retired
// writers do not round-trip any more: each is below the format floor
// and refused with frameio.ErrUnsupportedFormat, leaving the target
// store's state unchanged.
func TestV1V2CompatRoundTrip(t *testing.T) {
	for _, name := range []string{"multitenant_v1.json", "multitenant_v2.snap"} {
		target, _ := newInventory(t)
		before := storeFingerprint(t, target)
		err := target.RestoreContext(context.Background(), readFixture(t, name))
		if !errors.Is(err, frameio.ErrUnsupportedFormat) {
			t.Fatalf("%s restore = %v, want ErrUnsupportedFormat", name, err)
		}
		if after := storeFingerprint(t, target); after != before {
			t.Fatalf("%s: refused restore mutated the target store", name)
		}
	}
}

// TestSnapshotMatchesGolden pins the one remaining writer: today's
// SnapshotContext must reproduce the checked-in v5 snapshot of
// multiTenantStore byte for byte.
func TestSnapshotMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := multiTenantStore(t).SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), readFixture(t, "multitenant_v5.snap")) {
		t.Fatal("snapshot differs from testdata/multitenant_v5.snap")
	}
}

// TestRestoreMatchesFreshScores: search scores through a restored
// store (reattached indexes) equal the freshly built store's.
func TestRestoreMatchesFreshScores(t *testing.T) {
	orig := multiTenantStore(t)
	var buf bytes.Buffer
	if err := orig.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.RestoreContext(context.Background(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got, want := storeFingerprint(t, restored), storeFingerprint(t, orig); got != want {
		t.Fatalf("restored store state:\n%s\nwant:\n%s", got, want)
	}
}

// TestQuotaSurvivesRestore: the snapshot carries tenant quotas and
// restore rewires enforcement.
func TestQuotaSurvivesRestore(t *testing.T) {
	s := New()
	s.CreateTenant("t", "o")
	ds, err := s.CreateDataset("t", "o", Schema{Name: "d", Fields: []Field{{Name: "x", Searchable: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Put(Record{"x": "one"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQuota("t", "o", 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.RestoreContext(context.Background(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ds2, err := restored.DatasetContext(context.Background(), "t", "o", "d", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds2.Put(Record{"x": "two"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds2.Put(Record{"x": "three"}); err != ErrQuotaExceeded {
		t.Fatalf("third put after restore = %v, want ErrQuotaExceeded", err)
	}
}

// corruptSnapshots returns a good snapshot of multiTenantStore and,
// by name, every corruption mode of it: truncation at any layer, bit
// flips, trailing junk, frame/header mismatches.
func corruptSnapshots(t testing.TB) ([]byte, map[string][]byte) {
	t.Helper()
	var good bytes.Buffer
	if err := multiTenantStore(t).SnapshotContext(context.Background(), &good); err != nil {
		t.Fatal(err)
	}
	gb := good.Bytes()
	flip := func(pos int) []byte {
		out := append([]byte(nil), gb...)
		out[pos] ^= 0xFF
		return out
	}
	return gb, map[string][]byte{
		"empty":            {},
		"garbage":          []byte("this is not a snapshot"),
		"magic-only":       gb[:8],
		"truncated-header": gb[:12],
		"truncated-10%":    gb[:len(gb)/10],
		"truncated-50%":    gb[:len(gb)/2],
		"truncated-99%":    gb[:len(gb)-len(gb)/100],
		"flip-early":       flip(40),
		"flip-middle":      flip(len(gb) / 2),
		"flip-late":        flip(len(gb) - 10),
		"trailing-junk":    append(append([]byte(nil), gb...), "extra bytes"...),
	}
}

// TestRestoreCorruptV2LeavesStoreUntouched: every corruption mode must
// fail the restore AND leave a store built by writes exactly as it was
// (restore builds aside, then swaps). The name dates from format v2;
// the snapshots are v4, the only format written. The same table run
// over a store that serves from an attached snapshot is
// TestMappedRestoreRejectsCorrupt.
func TestRestoreCorruptV2LeavesStoreUntouched(t *testing.T) {
	_, cases := corruptSnapshots(t)
	for name, data := range cases {
		target, _ := newInventory(t)
		before := storeFingerprint(t, target)
		if err := target.RestoreContext(context.Background(), data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
			continue
		}
		if after := storeFingerprint(t, target); after != before {
			t.Errorf("%s: failed restore mutated target store", name)
		}
	}
}

// TestSnapshotConcurrentWithWrites: a snapshot locks one dataset at a
// time, so a snapshot racing concurrent writers must neither block
// them out nor produce a stream that fails to restore.
func TestSnapshotConcurrentWithWrites(t *testing.T) {
	s := multiTenantStore(t)
	ds, err := s.DatasetContext(context.Background(), "tenant0", "owner0", "data0", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Throttled writer: steady background writes without
		// saturating the lock under the race detector.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if _, err := ds.Put(Record{"id": fmt.Sprintf("w%d", i%50), "title": "written during checkpoint", "body": "concurrent"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := s.SnapshotContext(context.Background(), &buf); err != nil {
			t.Fatal(err)
		}
		restored := New()
		if err := restored.RestoreContext(context.Background(), buf.Bytes()); err != nil {
			t.Fatalf("snapshot %d failed to restore: %v", i, err)
		}
	}
	close(stop)
	<-done
}

// TestSnapshotConcurrentWithGrants: the snapshot header is marshaled
// after the store lock is released, so tenant grant maps must be
// copied, not referenced — otherwise Grant/Revoke racing a background
// checkpoint is a concurrent map read/write crash.
func TestSnapshotConcurrentWithGrants(t *testing.T) {
	s := multiTenantStore(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
			actor := fmt.Sprintf("viewer%d", i%7)
			if err := s.Grant("tenant1", "owner1", actor, PermRead); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				s.Revoke("tenant1", "owner1", actor)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := s.SnapshotContext(context.Background(), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}
