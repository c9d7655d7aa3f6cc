package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wal"
)

func invSchema() Schema {
	return Schema{
		Name: "inventory",
		Key:  "sku",
		Fields: []Field{
			{Name: "sku", Type: TypeString, Required: true},
			{Name: "title", Type: TypeString, Searchable: true},
			{Name: "price", Type: TypeNumber},
		},
	}
}

// openStoreWAL builds a store with an attached log in dir.
func openStoreWAL(t *testing.T, dir string, policy wal.Policy) (*Store, *wal.Log) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithShardTarget(2))
	s.AttachWAL(l)
	return s, l
}

// recoverStore replays dir into a fresh store, as boot would after
// restoring an empty snapshot.
func recoverStore(t *testing.T, dir string) (*Store, wal.ReplayStats) {
	t.Helper()
	s := New(WithShardTarget(2))
	st, err := s.ReplayContext(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// TestWALRoundTrip drives the full mutation surface through the log
// and asserts a replayed store converges to the same state.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, l := openStoreWAL(t, dir, wal.PolicyAlways)
	ctx := context.Background()

	if err := s.CreateTenant("acme", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant("acme", "alice", "bob", PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQuota("acme", "alice", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDataset("acme", "alice", invSchema()); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DatasetContext(ctx, "acme", "bob", "inventory", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec := Record{"sku": fmt.Sprintf("sku-%02d", i), "title": fmt.Sprintf("gadget %d", i), "price": fmt.Sprintf("%d", i*10)}
		if _, err := ds.PutContext(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ds.AddBatchContext(ctx, []Record{
		{"sku": "sku-05", "title": "gadget five revised", "price": "55"},
		{"sku": "bulk-1", "title": "bulk widget", "price": "1"},
		{"sku": "bulk-2", "title": "bulk widget", "price": "2"},
	}); err != nil {
		t.Fatal(err)
	}
	if ok, err := ds.DeleteContext(ctx, "sku-03"); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := s.Revoke("acme", "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, st := recoverStore(t, dir)
	if st.Torn || st.Skipped != 0 {
		t.Fatalf("clean replay reported damage: %+v", st)
	}
	// Access control replayed: bob's write grant was revoked.
	if _, err := r.DatasetContext(ctx, "acme", "bob", "inventory", PermRead); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("revoked grant survived replay: %v", err)
	}
	rds, err := r.DatasetContext(ctx, "acme", "alice", "inventory", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rds.Len(), ds.Len(); got != want {
		t.Fatalf("recovered %d records, want %d", got, want)
	}
	if _, ok := rds.Get("sku-03"); ok {
		t.Fatal("deleted record resurrected by replay")
	}
	rec, ok := rds.Get("sku-05")
	if !ok || rec["title"] != "gadget five revised" {
		t.Fatalf("batch overwrite lost: %v %v", rec, ok)
	}
	// Search equivalence: same query, same hits, same scores.
	req := SearchRequest{Query: "bulk widget"}
	want, err := ds.SearchContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rds.SearchContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("search diverges after replay:\nwant %v\ngot  %v", want, got)
	}
	// Quota replayed too: it still bounds post-recovery writes.
	if err := r.SetQuota("acme", "alice", rds.Len()); err != nil {
		t.Fatal(err)
	}
	if _, err := rds.PutContext(ctx, Record{"sku": "over", "title": "x", "price": "1"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota not enforced after replay: %v", err)
	}
}

// TestPutLogsOneRowBatch: a put is logged as a put-batch record of one
// row, keyed and keyless alike; nothing logs a put record.
func TestPutLogsOneRowBatch(t *testing.T) {
	dir := t.TempDir()
	s, l := openStoreWAL(t, dir, wal.PolicyAlways)
	if err := s.CreateTenant("acme", "alice"); err != nil {
		t.Fatal(err)
	}
	keyed, err := s.CreateDataset("acme", "alice", invSchema())
	if err != nil {
		t.Fatal(err)
	}
	keyless, err := s.CreateDataset("acme", "alice", Schema{Name: "notes", Fields: []Field{{Name: "text", Searchable: true}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{"sku": "sku-1", "title": "gadget", "price": "10"}
	if _, err := keyed.Put(rec); err != nil {
		t.Fatal(err)
	}
	id, err := keyless.Put(Record{"text": "a note"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var puts []*wal.Record
	if _, err := wal.Replay(dir, func(r *wal.Record) error {
		if r.Op == wal.OpPut || r.Op == wal.OpPutBatch {
			puts = append(puts, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []*wal.Record{
		{Op: wal.OpPutBatch, Dataset: "inventory", Puts: []wal.Put{{ID: "sku-1", Rec: rec}}},
		{Op: wal.OpPutBatch, Dataset: "notes", Puts: []wal.Put{{ID: id, Rec: map[string]string{"text": "a note"}}}},
	}
	if len(puts) != len(want) {
		t.Fatalf("two puts logged %d put records, want 2", len(puts))
	}
	for i, r := range puts {
		if r.Op != want[i].Op || r.Tenant != "acme" || r.Dataset != want[i].Dataset || !reflect.DeepEqual(r.Puts, want[i].Puts) {
			t.Fatalf("put %d logged as %+v, want a one-row %s of %+v", i, r, wal.OpPutBatch, want[i].Puts)
		}
	}
}

// TestWALReplayIdempotent re-applies the same log twice over one
// store — the situation after restoring a snapshot that already
// contains a prefix of the log — and expects identical state.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, l := openStoreWAL(t, dir, wal.PolicyGroup)
	ctx := context.Background()
	if err := s.CreateTenant("acme", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDataset("acme", "alice", invSchema()); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.DatasetContext(ctx, "acme", "alice", "inventory", PermWrite)
	if _, err := ds.AddBatchContext(ctx, []Record{
		{"sku": "a", "title": "alpha", "price": "1"},
		{"sku": "b", "title": "beta", "price": "2"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DeleteContext(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r := New(WithShardTarget(2))
	for pass := 0; pass < 2; pass++ {
		if _, err := r.ReplayContext(ctx, dir); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	rds, err := r.DatasetContext(ctx, "acme", "alice", "inventory", PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if rds.Len() != 1 {
		t.Fatalf("double replay left %d records, want 1", rds.Len())
	}
	if _, ok := rds.Get("a"); ok {
		t.Fatal("deleted record present after double replay")
	}
}

// TestWALSkipsOrphanedWrites replays data records whose dataset or
// tenant is absent — their DDL predates the kept history, or a later
// drop won — and expects them skipped, not a failed boot.
func TestWALSkipsOrphanedWrites(t *testing.T) {
	dir := writeReplayLog(t, []*wal.Record{
		{Op: wal.OpCreateTenant, Tenant: "acme", Actor: "alice"},
		{Op: wal.OpPut, Tenant: "acme", Dataset: "inventory", ID: "x", Rec: map[string]string{"sku": "x", "title": "t", "price": "1"}},
		{Op: wal.OpDelete, Tenant: "acme", Dataset: "inventory", ID: "x"},
		{Op: wal.OpPut, Tenant: "ghost", Dataset: "inventory", ID: "y", Rec: map[string]string{"sku": "y", "title": "t", "price": "1"}},
	})
	r := New()
	st, err := r.ReplayContext(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 || st.Skipped != 3 {
		t.Fatalf("orphaned writes were not skipped: %+v", st)
	}
	if _, ok := r.lookupDataset("acme", "inventory"); ok {
		t.Fatal("orphaned put created its dataset")
	}
}

// TestWALSequentialIDsAdvance ensures replayed auto-assigned IDs push
// the sequence forward so new inserts cannot collide.
func TestWALSequentialIDsAdvance(t *testing.T) {
	dir := t.TempDir()
	s, l := openStoreWAL(t, dir, wal.PolicyAlways)
	ctx := context.Background()
	sch := Schema{Name: "log", Fields: []Field{{Name: "msg", Type: TypeString, Searchable: true}}}
	if err := s.CreateTenant("acme", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDataset("acme", "alice", sch); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.DatasetContext(ctx, "acme", "alice", "log", PermWrite)
	var lastID string
	for i := 0; i < 5; i++ {
		id, err := ds.PutContext(ctx, Record{"msg": fmt.Sprintf("m%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
	}
	l.Close()

	r, _ := recoverStore(t, dir)
	rds, err := r.DatasetContext(ctx, "acme", "alice", "log", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rds.PutContext(ctx, Record{"msg": "after recovery"})
	if err != nil {
		t.Fatal(err)
	}
	if id == lastID {
		t.Fatalf("post-recovery insert reused replayed ID %s", id)
	}
	if rds.Len() != 6 {
		t.Fatalf("len = %d, want 6 (no collision overwrote a replayed record)", rds.Len())
	}
}

// TestWALTornBatchRecoversNone: an upload is one log record, so a
// crash that tears it mid-frame recovers none of its rows, while an
// earlier acknowledged upload recovers whole.
func TestWALTornBatchRecoversNone(t *testing.T) {
	dir := t.TempDir()
	s, l := openStoreWAL(t, dir, wal.PolicyAlways)
	ctx := context.Background()
	if err := s.CreateTenant("acme", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDataset("acme", "alice", invSchema()); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.DatasetContext(ctx, "acme", "alice", "inventory", PermWrite)
	batch := func(prefix string, n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{"sku": fmt.Sprintf("%s-%03d", prefix, i), "title": prefix + " widget", "price": "1"}
		}
		return recs
	}
	if _, err := ds.AddBatchContext(ctx, batch("acked", 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddBatchContext(ctx, batch("torn", 40)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, fmt.Sprintf("wal-%08d.log", l.ActiveSegment()))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-64); err != nil { // crash inside the second upload's frame
		t.Fatal(err)
	}

	r, st := recoverStore(t, dir)
	if !st.Torn {
		t.Fatalf("torn upload not reported: %+v", st)
	}
	rds, err := r.DatasetContext(ctx, "acme", "alice", "inventory", PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if rds.Len() != 40 {
		t.Fatalf("recovered %d rows, want the 40 of the acknowledged upload", rds.Len())
	}
	for i := 0; i < 40; i++ {
		if _, ok := rds.Get(fmt.Sprintf("acked-%03d", i)); !ok {
			t.Fatalf("acknowledged row acked-%03d lost", i)
		}
		if _, ok := rds.Get(fmt.Sprintf("torn-%03d", i)); ok {
			t.Fatalf("row torn-%03d of the torn upload recovered", i)
		}
	}
}
