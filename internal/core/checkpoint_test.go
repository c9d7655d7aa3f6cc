package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/store"
)

func TestCheckpointRestoreCycle(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Seed: 1})
	buildGamerQueen(t, p)

	cp, err := p.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing on disk yet: boot of a fresh data dir restores nothing.
	if restored, err := cp.RestoreLatestContext(context.Background()); err != nil || restored {
		t.Fatalf("RestoreLatestContext on empty dir = %v, %v", restored, err)
	}
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A "restarted" platform with freshly seeded data restores the
	// persisted state over it, exactly like symphonyd boot.
	p2 := New(Config{Seed: 1})
	cp2, err := p2.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := cp2.RestoreLatestContext(context.Background()); err != nil || !restored {
		t.Fatalf("RestoreLatestContext = %v, %v, want restore", restored, err)
	}
	ds, err := p2.Store.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("restored inventory is empty")
	}
	hits, err := ds.SearchContext(context.Background(), store.SearchRequest{Query: "exciting", Limit: 3})
	if err != nil || len(hits) == 0 {
		t.Fatalf("restored search = %v, %v", hits, err)
	}
}

func TestCheckpointAtomicRename(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Seed: 1})
	buildGamerQueen(t, p)
	cp, err := p.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	// Two-snapshot retention: the current checkpoint plus the retained
	// previous one, never more, and no temp leftovers.
	if len(names) != 2 || names[0] != "store.snap" || names[1] != "store.snap.1" {
		t.Fatalf("data dir = %v, want exactly store.snap + store.snap.1 (no temp leftovers)", names)
	}
}

func TestCheckpointPeriodicLoop(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Seed: 1})
	buildGamerQueen(t, p)
	cp, err := p.NewCheckpointer(dir, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cp.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(cp.Path()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cp.CloseContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	// CloseContext wrote a final checkpoint; the file restores cleanly.
	p2 := New(Config{Seed: 1})
	cp2, err := p2.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := cp2.RestoreLatestContext(context.Background()); err != nil || !restored {
		t.Fatalf("RestoreLatestContext after CloseContext = %v, %v", restored, err)
	}
}

func TestRestoreLatestRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Seed: 1})
	buildGamerQueen(t, p)
	cp, err := p.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "store.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.RestoreLatestContext(context.Background()); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	// The seeded store survives the failed restore untouched.
	ds, err := p.Store.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil || ds.Len() == 0 {
		t.Fatalf("store mutated by failed restore: %v, %v", ds, err)
	}
}

// TestRestoreLatestRefusesOldFormatPrimary: a primary snapshot in a
// format below the floor is not corrupt. Boot fails with
// frameio.ErrUnsupportedFormat instead of falling back to the good v5
// previous snapshot, and neither file is renamed or rewritten — no
// .corrupt quarantine that a later checkpoint would build on.
func TestRestoreLatestRefusesOldFormatPrimary(t *testing.T) {
	for name, old := range map[string]string{
		"v1": `{"version":1,"tenants":[]}`,
		"v2": "SYMSNP2\n\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00{}",
		"v3": "SYMSNP3\n\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00{}",
		"v4": "SYMSNP4\n\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00{}",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			p := New(Config{Seed: 1})
			buildGamerQueen(t, p)
			cp, err := p.NewCheckpointer(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := cp.CheckpointContext(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			good, err := os.ReadFile(cp.PrevPath())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cp.Path(), []byte(old), 0o644); err != nil {
				t.Fatal(err)
			}

			p2 := New(Config{Seed: 1})
			cp2, err := p2.NewCheckpointer(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := cp2.RestoreLatestContext(context.Background())
			if restored || !errors.Is(err, frameio.ErrUnsupportedFormat) {
				t.Fatalf("RestoreLatestContext = %v, %v; want ErrUnsupportedFormat", restored, err)
			}
			if got, err := os.ReadFile(cp2.Path()); err != nil || string(got) != old {
				t.Fatalf("old-format primary moved or rewritten (%v)", err)
			}
			if got, err := os.ReadFile(cp2.PrevPath()); err != nil || string(got) != string(good) {
				t.Fatalf("previous snapshot moved or rewritten (%v)", err)
			}
			if _, err := os.Stat(cp2.Path() + ".corrupt"); !os.IsNotExist(err) {
				t.Fatalf("old-format primary quarantined: %v", err)
			}
			if got := p2.Store.Tenants(); len(got) != 0 {
				t.Fatalf("refused boot restored tenants %v", got)
			}
		})
	}
}

// TestCheckpointIncremental pins the dirty-tracking contract at the
// daemon level: a checkpoint after no mutations reuses every dataset
// frame, and a checkpoint after mutating one dataset re-encodes
// exactly that one.
func TestCheckpointIncremental(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Seed: 1})
	buildGamerQueen(t, p)
	cp, err := p.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	cp.Logf = func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	last := func() string { return logs[len(logs)-1] }

	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(last(), "0 reused") {
		t.Fatalf("first checkpoint log = %q, want everything encoded", last())
	}
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(last(), "(0 frames re-encoded") {
		t.Fatalf("clean checkpoint log = %q, want all frames reused", last())
	}
	// The cache holds one frame per dataset, the bytes of the file's
	// dataset frames.
	st := cp.CacheStats()
	snap, err := os.ReadFile(cp.Path())
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || st.Misses != uint64(st.Entries) || st.Hits != uint64(st.Entries) ||
		st.Bytes <= 0 || st.Bytes >= int64(len(snap)) || st.CapBytes < st.Bytes {
		t.Fatalf("cache status after two checkpoints of a %d-byte snapshot: %+v", len(snap), st)
	}

	ds, err := p.Store.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", store.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Put(store.Record{"sku": "G99", "title": "Fresh Game", "producer": "Studio9",
		"description": "a fresh game", "image": "http://img.example/99.png", "detailurl": "http://gamerqueen.example/g/99"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(last(), "(1 frames re-encoded") {
		t.Fatalf("dirty checkpoint log = %q, want exactly one frame re-encoded", last())
	}

	// The incremental file is a complete snapshot: it restores whole.
	p2 := New(Config{Seed: 1})
	cp2, err := p2.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := cp2.RestoreLatestContext(context.Background()); err != nil || !restored {
		t.Fatalf("RestoreLatestContext = %v, %v", restored, err)
	}
	ds2, err := p2.Store.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Len() != ds.Len() {
		t.Fatalf("restored Len = %d, want %d", ds2.Len(), ds.Len())
	}
}

// TestCheckpointRestoreAppliesShardTarget: a checkpoint written by a
// platform with one shard layout restores on a platform configured
// for another, and the datasets come up resharded to the new target.
func TestCheckpointRestoreAppliesShardTarget(t *testing.T) {
	dir := t.TempDir()
	narrow := New(Config{Seed: 1, ShardTarget: 2})
	buildGamerQueen(t, narrow)
	cp, err := narrow.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	wide := New(Config{Seed: 1, ShardTarget: 6})
	buildGamerQueen(t, wide)
	cp2, err := wide.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	cp2.Logf = func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	if restored, err := cp2.RestoreLatestContext(context.Background()); err != nil || !restored {
		t.Fatalf("RestoreLatestContext = %v, %v", restored, err)
	}
	ds, err := wide.Store.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.NumShards(); got != 6 {
		t.Fatalf("restored dataset shards = %d, want configured 6 (snapshot had 2)", got)
	}
	sawTransition := false
	for _, l := range logs {
		if strings.Contains(l, "gamerqueen/inventory") && strings.Contains(l, "6 shards") {
			sawTransition = true
		}
	}
	if !sawTransition {
		t.Fatalf("restore did not log the shard transition: %q", logs)
	}
	hits, err := ds.SearchContext(context.Background(), store.SearchRequest{Query: "exciting", Limit: 3})
	if err != nil || len(hits) == 0 {
		t.Fatalf("post-reshard search = %v, %v", hits, err)
	}
}

// TestCheckpointRestoreKeepsAutoShards pins that the shard count
// belongs to the data: a store with no fixed shard count, written and
// checkpointed at GOMAXPROCS=2, boots at GOMAXPROCS 1, 2, 4 and 8 with
// every dataset still at 2 shards, every shard mapped, no doc table
// materialized, and answers byte-identical to the writer's.
func TestCheckpointRestoreKeepsAutoShards(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()
	queries := []string{"exciting", "game", "studio1", "an exciting game", "nosuchword"}
	answers := func(p *Platform) map[string]string {
		out := make(map[string]string)
		for _, st := range p.Store.Status() {
			ds, err := p.Store.DatasetContext(ctx, st.Tenant, "ann", st.Dataset, store.PermRead)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				hits, err := ds.SearchContext(ctx, store.SearchRequest{Query: q, Limit: 10})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(hits)
				if err != nil {
					t.Fatal(err)
				}
				out[st.Tenant+"/"+st.Dataset+" "+q] = string(b)
			}
		}
		return out
	}

	dir := t.TempDir()
	writer := New(Config{Seed: 1})
	buildGamerQueen(t, writer)
	for _, st := range writer.Store.Status() {
		if st.Shards != 2 {
			t.Fatalf("writer %s/%s has %d shards at GOMAXPROCS=2", st.Tenant, st.Dataset, st.Shards)
		}
	}
	want := answers(writer)
	cp, err := writer.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.CheckpointContext(ctx); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		p := New(Config{Seed: 1})
		cp, err := p.NewCheckpointer(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if restored, err := cp.RestoreLatestContext(ctx); err != nil || !restored {
			t.Fatalf("GOMAXPROCS=%d: RestoreLatestContext = %v, %v", procs, restored, err)
		}
		got := answers(p)
		status := p.Store.Status()
		if len(status) == 0 {
			t.Fatalf("GOMAXPROCS=%d: no datasets restored", procs)
		}
		for _, st := range status {
			if st.Shards != 2 || st.MappedShards != st.Shards {
				t.Fatalf("GOMAXPROCS=%d %s/%s: %d shards, %d mapped; want 2, 2",
					procs, st.Tenant, st.Dataset, st.Shards, st.MappedShards)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d answers, want %d", procs, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("GOMAXPROCS=%d %s:\n got %s\nwant %s", procs, k, got[k], w)
			}
		}
	}
}
