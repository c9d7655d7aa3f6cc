package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/frameio"
)

// restoreMapped restores a snapshot written by a 3-shard store —
// every snapshot these tests attach is — into a fresh 3-shard store
// with opts, so no reshard moves an index onto the heap, and fails
// unless every dataset is still served from the snapshot bytes.
func restoreMapped(t testing.TB, data []byte, opts ...Option) *Store {
	t.Helper()
	s := New(append([]Option{WithShardTarget(3)}, opts...)...)
	if err := s.RestoreContext(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	requireMapped(t, s)
	return s
}

// requireMapped fails unless every dataset of s serves its record
// section and every index shard from an attached snapshot, with no
// shard converted to the heap.
func requireMapped(t testing.TB, s *Store) {
	t.Helper()
	for _, st := range s.Status() {
		if st.MappedShards != st.Shards {
			t.Fatalf("%s/%s: %d of %d shards mapped", st.Tenant, st.Dataset, st.MappedShards, st.Shards)
		}
		s.mu.RLock()
		ds := s.tenants[st.Tenant].datasets[st.Dataset]
		s.mu.RUnlock()
		ds.mu.RLock()
		mapped := ds.mrecs != nil
		ds.mu.RUnlock()
		if !mapped {
			t.Fatalf("%s/%s: record section not mapped", st.Tenant, st.Dataset)
		}
	}
}

// snapshotBytes returns s's snapshot.
func snapshotBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMappedRestoreMatchesHeap: a snapshot restored at its own
// shard count serves from the snapshot bytes and answers exactly like
// the heap-built store it was written from — counts, listing order,
// records, and search hits with scores.
func TestMappedRestoreMatchesHeap(t *testing.T) {
	heap := multiTenantStore(t)
	mapped := restoreMapped(t, snapshotBytes(t, heap))
	if got, want := storeFingerprint(t, mapped), storeFingerprint(t, heap); got != want {
		t.Fatalf("mapped restore state:\n%s\nwant:\n%s", got, want)
	}
	for _, st := range heap.Status() {
		if st.MappedBytes != 0 || st.MappedShards != 0 {
			t.Fatalf("heap-built store reports %d mapped bytes in %d shards for %s/%s", st.MappedBytes, st.MappedShards, st.Tenant, st.Dataset)
		}
	}
}

// TestRestoreAtTargetStaysMapped: a default store restoring a snapshot
// written at its own shard target keeps every dataset mapped — the
// reshard runs only when the counts differ.
func TestRestoreAtTargetStaysMapped(t *testing.T) {
	src, _ := newInventory(t)
	s := New()
	if err := s.RestoreContext(context.Background(), snapshotBytes(t, src)); err != nil {
		t.Fatal(err)
	}
	requireMapped(t, s)
}

// TestMappedCopyOnWrite: mutations against a mapped store apply
// copy-on-write and converge to exactly the state of the same
// mutations against the heap-built store it was restored from;
// untouched datasets stay mapped.
func TestMappedCopyOnWrite(t *testing.T) {
	heap := multiTenantStore(t)
	mapped := restoreMapped(t, snapshotBytes(t, heap))

	mutate := func(s *Store) {
		t.Helper()
		ds, err := s.DatasetContext(context.Background(), "tenant0", "owner0", "data0", PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Put(Record{"id": "new1", "title": "fresh after boot", "body": "post-restore write"}); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Put(Record{"id": "r5", "title": "overwritten", "body": "replaced body"}); err != nil {
			t.Fatal(err)
		}
		if !ds.Delete("r9") {
			t.Fatal("delete of existing record reported false")
		}
		if ds.Delete("absent") {
			t.Fatal("delete of absent record reported true")
		}
	}
	mutate(heap)
	mutate(mapped)

	if got, want := storeFingerprint(t, mapped), storeFingerprint(t, heap); got != want {
		t.Fatalf("mapped CoW state:\n%s\nheap state:\n%s", got, want)
	}

	// Every dataset still serves its record section mapped; only the
	// written one carries an overlay, holding just the two puts and
	// one dead base position — nothing was decoded wholesale.
	for _, st := range mapped.Status() {
		touched := st.Tenant == "tenant0" && st.Dataset == "data0"
		ds, err := mapped.DatasetContext(context.Background(), st.Tenant, "owner"+st.Tenant[len("tenant"):], st.Dataset, PermRead)
		if err != nil {
			t.Fatal(err)
		}
		ds.mu.RLock()
		mr, overlay, order := ds.mrecs, len(ds.records), len(ds.order)
		ds.mu.RUnlock()
		if mr == nil {
			t.Fatalf("%s/%s: record section no longer mapped", st.Tenant, st.Dataset)
		}
		switch {
		case touched && (overlay != 2 || order != 1 || mr.nGone != 1):
			t.Fatalf("%s/%s: overlay holds %d records (%d new), %d dead base rows; want 2, 1, 1", st.Tenant, st.Dataset, overlay, order, mr.nGone)
		case !touched && (overlay != 0 || mr.nGone != 0):
			t.Fatalf("%s/%s: untouched dataset has an overlay", st.Tenant, st.Dataset)
		}
	}
}

// TestMappedSnapshotVerbatim: a checkpoint taken from a freshly
// mapped store re-emits the snapshot byte-for-byte — clean mapped
// record sections and index shards are copied, not re-encoded.
func TestMappedSnapshotVerbatim(t *testing.T) {
	orig := multiTenantStore(t)
	var first bytes.Buffer
	if err := orig.SnapshotContext(context.Background(), &first); err != nil {
		t.Fatal(err)
	}
	mapped := restoreMapped(t, first.Bytes())
	var second bytes.Buffer
	if err := mapped.SnapshotContext(context.Background(), &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot of mapped store differs from its source: %d vs %d bytes", second.Len(), first.Len())
	}
}

// TestMappedSnapshotAfterCoWRoundTrips: a snapshot taken after
// copy-on-write materialization restores to equal state, and
// re-snapshotting that restore reproduces it bit-identically — the
// encoder is a pure function of content on both sides of the
// materialization boundary.
func TestMappedSnapshotAfterCoWRoundTrips(t *testing.T) {
	orig := multiTenantStore(t)
	var buf bytes.Buffer
	if err := orig.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	mapped := restoreMapped(t, buf.Bytes())
	ds, err := mapped.DatasetContext(context.Background(), "tenant1", "owner1", "data1", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Put(Record{"id": "cow", "title": "materializing write", "body": "forces promotion"}); err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := mapped.SnapshotContext(context.Background(), &a); err != nil {
		t.Fatal(err)
	}
	restored := restoreMapped(t, a.Bytes())
	if got, want := storeFingerprint(t, restored), storeFingerprint(t, mapped); got != want {
		t.Fatalf("post-CoW snapshot restore state:\n%s\nwant:\n%s", got, want)
	}
	var b bytes.Buffer
	if err := restored.SnapshotContext(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("post-CoW snapshot does not round-trip bit-identically")
	}
}

// TestSnapshotCompatMatrix covers exactly the formats the store
// claims: the v5 golden restores to the state of a fresh build and
// stays mapped; the frozen v1, v2, v3 and v4 fixtures (v3 both as
// last written and from before the index stopped keeping field text)
// are refused with frameio.ErrUnsupportedFormat and leave the target
// store unchanged.
func TestSnapshotCompatMatrix(t *testing.T) {
	want := storeFingerprint(t, multiTenantStore(t))
	s := New(WithShardTarget(3))
	if err := s.RestoreContext(context.Background(), readFixture(t, "multitenant_v5.snap")); err != nil {
		t.Fatal(err)
	}
	if got := storeFingerprint(t, s); got != want {
		t.Fatalf("v5 state:\n%s\nwant:\n%s", got, want)
	}
	requireMapped(t, s)
	for _, name := range []string{"multitenant_v1.json", "multitenant_v2.snap",
		"multitenant_v3.snap", "multitenant_v3_fieldtext.snap", "multitenant_v4.snap"} {
		err := s.RestoreContext(context.Background(), readFixture(t, name))
		if !errors.Is(err, frameio.ErrUnsupportedFormat) {
			t.Fatalf("%s: restore = %v, want ErrUnsupportedFormat", name, err)
		}
		if got := storeFingerprint(t, s); got != want {
			t.Fatalf("%s: refused restore changed the store", name)
		}
		requireMapped(t, s)
	}
}

// TestMappedRestoreRejectsCorrupt: a corrupt snapshot restored over a
// store that already serves from an attached snapshot fails at attach
// time, before anything can serve from the damaged bytes, and leaves
// the target serving its old attachment: same contents, every shard
// and record section still mapped.
func TestMappedRestoreRejectsCorrupt(t *testing.T) {
	good, cases := corruptSnapshots(t)
	for name, data := range cases {
		target := restoreMapped(t, append([]byte(nil), good...))
		before := storeFingerprint(t, target)
		if err := target.RestoreContext(context.Background(), data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
			continue
		}
		if after := storeFingerprint(t, target); after != before {
			t.Errorf("%s: failed restore mutated target store", name)
		}
		requireMapped(t, target)
	}
}

// TestMappedConcurrentReadsAndMaterialization: concurrent readers on
// a mapped dataset race a writer whose first put materializes the
// record table. Run under -race this pins down the promotion's
// locking.
func TestMappedConcurrentReadsAndMaterialization(t *testing.T) {
	orig := multiTenantStore(t)
	var buf bytes.Buffer
	if err := orig.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	mapped := restoreMapped(t, buf.Bytes())
	ds, err := mapped.DatasetContext(context.Background(), "tenant2", "owner2", "data0", PermWrite)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if _, ok := ds.Get(fmt.Sprintf("r%d", i%25)); !ok && i%25 != 3 && i%25 != 7 {
					t.Errorf("reader %d: r%d missing", r, i%25)
					return
				}
				if _, err := ds.SearchContext(context.Background(), SearchRequest{Query: "common"}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				ds.List(0, 10)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			if _, err := ds.Put(Record{"id": fmt.Sprintf("w%d", i), "title": "concurrent write", "body": "materializes on first put"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
}
