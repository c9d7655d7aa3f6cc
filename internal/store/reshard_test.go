package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestDatasetReshard: an online reshard through the store facade
// keeps search results identical and bumps the observable layout.
func TestDatasetReshard(t *testing.T) {
	s, ds := newInventory(t)
	before, err := ds.SearchContext(context.Background(), SearchRequest{Query: "zelda adventure"})
	if err != nil {
		t.Fatal(err)
	}
	gen := ds.RingGen()
	if err := s.ReshardContext(context.Background(), "gamerqueen", "ann", "inventory", 5); err != nil {
		t.Fatal(err)
	}
	if got := ds.NumShards(); got != 5 {
		t.Fatalf("NumShards = %d, want 5", got)
	}
	if ds.RingGen() <= gen {
		t.Fatalf("ring gen did not advance: %d → %d", gen, ds.RingGen())
	}
	after, err := ds.SearchContext(context.Background(), SearchRequest{Query: "zelda adventure"})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("hits after reshard = %d, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i].ID != after[i].ID || before[i].Score != after[i].Score {
			t.Fatalf("hit %d: %s@%v → %s@%v", i, before[i].ID, before[i].Score, after[i].ID, after[i].Score)
		}
	}
	// A no-op reshard (same count) must not dirty the dataset, or
	// every idle reshard would force a full frame re-encode at the
	// next incremental checkpoint.
	v := ds.Version()
	if err := s.ReshardContext(context.Background(), "gamerqueen", "ann", "inventory", 5); err != nil {
		t.Fatal(err)
	}
	if got := ds.Version(); got != v {
		t.Fatalf("no-op reshard bumped version %d → %d", v, got)
	}
	if err := ds.ReshardContext(context.Background(), 0); err == nil {
		t.Fatal("Reshard(0) accepted")
	}
	if got := ds.Version(); got != v {
		t.Fatalf("invalid reshard bumped version %d → %d", v, got)
	}

	// Access control still applies: a reader cannot reshard.
	if err := s.Grant("gamerqueen", "ann", "bob", PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.ReshardContext(context.Background(), "gamerqueen", "bob", "inventory", 2); err != ErrAccessDenied {
		t.Fatalf("reader reshard = %v, want ErrAccessDenied", err)
	}
	if err := s.ReshardContext(context.Background(), "gamerqueen", "ann", "nope", 2); err != ErrNoSuchDataset {
		t.Fatalf("missing dataset reshard = %v, want ErrNoSuchDataset", err)
	}
}

// TestStoreShardTarget: WithShardTarget fixes the index layout for
// created AND restored datasets, decoupling snapshot layout from the
// restoring machine's parallelism.
func TestStoreShardTarget(t *testing.T) {
	s := New(WithShardTarget(3))
	if err := s.CreateTenant("gamerqueen", "ann"); err != nil {
		t.Fatal(err)
	}
	ds, err := s.CreateDataset("gamerqueen", "ann", gameSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.NumShards(); got != 3 {
		t.Fatalf("created dataset shards = %d, want 3", got)
	}
	if _, err := ds.Put(Record{"sku": "G1", "title": "Zelda", "producer": "Nintendo"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}

	wide := New(WithShardTarget(8))
	if err := wide.RestoreContext(context.Background(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	rds, err := wide.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if got := rds.NumShards(); got != 8 {
		t.Fatalf("restored dataset shards = %d, want configured 8 (snapshot had 3)", got)
	}
	hits, err := rds.SearchContext(context.Background(), SearchRequest{Query: "zelda"})
	if err != nil || len(hits) != 1 {
		t.Fatalf("restored search = %v, %v", hits, err)
	}
}

// TestStoreStatus: the operator view reports every dataset's layout
// in deterministic order.
func TestStoreStatus(t *testing.T) {
	s, _ := newInventory(t)
	if err := s.CreateTenant("acme", "bea"); err != nil {
		t.Fatal(err)
	}
	schema := gameSchema()
	schema.Name = "catalog"
	if _, err := s.CreateDataset("acme", "bea", schema); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if len(st) != 2 {
		t.Fatalf("status entries = %d, want 2", len(st))
	}
	if st[0].Tenant != "acme" || st[0].Dataset != "catalog" || st[1].Tenant != "gamerqueen" || st[1].Dataset != "inventory" {
		t.Fatalf("status order = %+v", st)
	}
	if st[1].Records != 4 || st[1].Shards < 1 || st[1].RingGen < 1 {
		t.Fatalf("inventory status = %+v", st[1])
	}
	if err := s.ReshardContext(context.Background(), "gamerqueen", "ann", "inventory", st[1].Shards+1); err != nil {
		t.Fatal(err)
	}
	st2 := s.Status()
	if st2[1].Shards != st[1].Shards+1 || st2[1].RingGen <= st[1].RingGen {
		t.Fatalf("status after reshard = %+v (was %+v)", st2[1], st[1])
	}
}

// TestSnapshotFrameCache pins the incremental-checkpoint contract:
// with a shared FrameCache, a second snapshot re-encodes only the
// datasets mutated since the first, the cached frames produce a
// byte-identical stream, and restores keep working.
func TestSnapshotFrameCache(t *testing.T) {
	s := multiTenantStore(t)
	cache := NewFrameCache()

	var first bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &first, WithFrameCache(cache)); err != nil {
		t.Fatal(err)
	}
	misses0 := cache.Stats().Misses
	if misses0 == 0 {
		t.Fatal("first snapshot encoded nothing")
	}

	// Nothing changed: the second pass must reuse every frame and
	// produce the identical stream.
	var second bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &second, WithFrameCache(cache)); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := cache.Stats().Hits, cache.Stats().Misses
	if misses1 != misses0 {
		t.Fatalf("clean snapshot re-encoded %d frames", misses1-misses0)
	}
	if hits1 != misses0 {
		t.Fatalf("clean snapshot reused %d frames, want %d", hits1, misses0)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("cached snapshot differs from encoded snapshot")
	}

	// Mutate exactly one dataset: only its frame re-encodes.
	ds, err := s.DatasetContext(context.Background(), "tenant0", "owner0", "data0", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Put(Record{"id": "r99", "title": "New Game", "body": "fresh searchable body"}); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &third, WithFrameCache(cache)); err != nil {
		t.Fatal(err)
	}
	misses2 := cache.Stats().Misses
	if misses2 != misses1+1 {
		t.Fatalf("dirty snapshot re-encoded %d frames, want 1", misses2-misses1)
	}

	// The incremental stream restores like any other snapshot.
	restored := New()
	if err := restored.RestoreContext(context.Background(), third.Bytes()); err != nil {
		t.Fatal(err)
	}
	rds, err := restored.DatasetContext(context.Background(), "tenant0", "owner0", "data0", PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if rds.Len() != ds.Len() {
		t.Fatalf("restored Len = %d, want %d", rds.Len(), ds.Len())
	}
	if hits, err := rds.SearchContext(context.Background(), SearchRequest{Query: "new game"}); err != nil || len(hits) == 0 {
		t.Fatalf("restored search = %v, %v", hits, err)
	}

	// A reshard also dirties the frame (layout changed), and dropping
	// a dataset prunes its cache entry.
	if err := ds.ReshardContext(context.Background(), ds.NumShards()+1); err != nil {
		t.Fatal(err)
	}
	var fourth bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &fourth, WithFrameCache(cache)); err != nil {
		t.Fatal(err)
	}
	misses3 := cache.Stats().Misses
	if misses3 != misses2+1 {
		t.Fatalf("post-reshard snapshot re-encoded %d frames, want 1", misses3-misses2)
	}
	if err := s.DropDataset("tenant0", "owner0", "data0"); err != nil {
		t.Fatal(err)
	}
	var fifth bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &fifth, WithFrameCache(cache)); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	for cached := range cache.frames {
		if cached == ds {
			cache.mu.Unlock()
			t.Fatal("dropped dataset still cached")
		}
	}
	cache.mu.Unlock()
}

// TestFrameCacheConcurrentWriters: checkpoints with a frame cache
// racing live writers must neither corrupt the stream nor deadlock
// (the regression surface of the caching fast path).
func TestFrameCacheConcurrentWriters(t *testing.T) {
	s, ds := newInventory(t)
	cache := NewFrameCache()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := ds.Put(Record{"sku": fmt.Sprintf("W%03d", i), "title": fmt.Sprintf("Writer Game %d", i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := s.SnapshotContext(context.Background(), &buf, WithFrameCache(cache)); err != nil {
			t.Fatal(err)
		}
		restored := New()
		if err := restored.RestoreContext(context.Background(), buf.Bytes()); err != nil {
			t.Fatalf("snapshot %d does not restore: %v", i, err)
		}
	}
	<-done
}
