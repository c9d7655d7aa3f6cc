package core

// Guard rails for the zero-copy boot path: a mapped boot holds views
// into the snapshot file's pages, so the checkpoint cycle must NEVER
// rewrite that file in place — it writes a temp file and renames it
// over the old one, leaving the replaced inode's pages valid for every
// live reader. These tests pin that contract three ways:
//
//   - a platform booted mapped keeps serving bit-correct results while
//     its own checkpointer replaces store.snap underneath it, cycle
//     after cycle;
//   - a SIGKILL at a randomized point — including mid-checkpoint, in
//     the window where the primary snapshot is renamed away — never
//     leaves a state a fresh mapped boot cannot recover: the next boot
//     maps the primary or falls back to the retained previous
//     snapshot, replays the WAL tail, and serves every acknowledged
//     write (TestMain re-execs this binary as the child writer);
//   - a truncated primary fails the mapped attach cleanly and boot
//     falls back to the previous checkpoint instead of serving from a
//     short mapping;
//   - a SIGKILL after a restored boot and before its first checkpoint
//     leaves both snapshot files untouched, and the next mapped boot
//     replays every log generation written since and serves every
//     acknowledged write.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

func TestMain(m *testing.M) {
	if os.Getenv("MMAP_TORTURE_CHILD") == "1" {
		mmapTortureChild()
		return
	}
	os.Exit(m.Run())
}

func mmapBootSchema() store.Schema {
	return store.Schema{
		Name: "inv",
		Key:  "sku",
		Fields: []store.Field{
			{Name: "sku", Type: store.TypeString, Required: true},
			{Name: "title", Type: store.TypeString, Searchable: true},
			{Name: "body", Type: store.TypeString, Searchable: true},
		},
	}
}

// mmapTortureChild is the re-exec'd writer: boot mapped from the data
// dir, replay the WAL, then interleave puts (acked on stdout once
// durable — fsync-before-ack policy) with frequent checkpoints, until
// the parent kills the process. Checkpoints every few documents make
// the kill likely to land inside the temp-write/rename/rename window.
// With MMAP_TORTURE_NO_CHECKPOINT=1 the child never checkpoints, so
// the kill always lands before a restored boot's first checkpoint.
func mmapTortureChild() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mmap torture child:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	dir := os.Getenv("MMAP_TORTURE_DIR")
	start := 0
	if v := os.Getenv("MMAP_TORTURE_START"); v != "" {
		var err error
		if start, err = strconv.Atoi(v); err != nil {
			fail(err)
		}
	}
	noCheckpoint := os.Getenv("MMAP_TORTURE_NO_CHECKPOINT") == "1"
	p := New(Config{Seed: 1})
	cp, err := p.NewCheckpointer(dir, 0)
	if err != nil {
		fail(err)
	}
	cp.MMap = true
	if _, err := cp.RestoreLatestContext(ctx); err != nil {
		fail(err)
	}
	if _, err := cp.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyAlways}); err != nil {
		fail(err)
	}
	// First boot creates the tenant and dataset; later boots restore
	// them from the snapshot and the creation calls fail benignly.
	p.Store.CreateTenant("t", "ann")
	p.Store.CreateDataset("t", "ann", mmapBootSchema())
	ds, err := p.Store.DatasetContext(ctx, "t", "ann", "inv", store.PermWrite)
	if err != nil {
		fail(err)
	}
	fmt.Println("READY")
	for i := start; ; i++ {
		id := fmt.Sprintf("doc-%06d", i)
		if _, err := ds.Put(store.Record{
			"sku":   id,
			"title": fmt.Sprintf("torture item %d", i),
			"body":  fmt.Sprintf("mapped boot payload for document %d", i),
		}); err != nil {
			fail(err)
		}
		// The ack may be lost to the kill; that only under-counts acks,
		// which weakens — never breaks — the recovery assertion.
		fmt.Printf("ACK %d\n", i)
		if i%5 == 4 && !noCheckpoint {
			if err := cp.CheckpointContext(ctx); err != nil {
				fail(err)
			}
			fmt.Println("CKPT")
		}
	}
}

// runMmapTortureChild re-execs the writer against dir (documents from
// index start, env added to the child's), SIGKILLs it at a randomized
// point, and returns the highest acknowledged document index (-1:
// none) plus stderr.
func runMmapTortureChild(t *testing.T, rng *rand.Rand, dir string, start int, env ...string) (int64, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"MMAP_TORTURE_CHILD=1",
		"MMAP_TORTURE_DIR="+dir,
		"MMAP_TORTURE_START="+strconv.Itoa(start),
	)
	cmd.Env = append(cmd.Env, env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var lastAck atomic.Int64
	lastAck.Store(-1)
	ready := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stdout)
		readyClosed := false
		for sc.Scan() {
			line := sc.Text()
			if line == "READY" {
				if !readyClosed {
					close(ready)
					readyClosed = true
				}
				continue
			}
			var n int64
			if _, err := fmt.Sscanf(line, "ACK %d", &n); err == nil {
				lastAck.Store(n)
			}
		}
	}()
	// Usually let the boot finish and some writes/checkpoints flow, so
	// the kill has a chance to land mid-checkpoint; sometimes kill
	// during boot itself.
	if rng.Intn(5) > 0 {
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			wg.Wait()
			cmd.Wait()
			t.Fatalf("child never became ready; stderr: %s", stderr.String())
		}
		time.Sleep(time.Duration(rng.Intn(40)+1) * time.Millisecond)
	} else {
		time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	cmd.Wait() // the SIGKILL exit status is the expected outcome
	return lastAck.Load(), stderr.String()
}

// mmapTortureSetup reads the cycle count (TORTURE_CYCLES, default 5)
// and seeds the run's randomness, logging the seed.
func mmapTortureSetup(t *testing.T) (int, *rand.Rand) {
	t.Helper()
	cycles := 5
	if v := os.Getenv("TORTURE_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad TORTURE_CYCLES %q", v)
		}
		cycles = n
	}
	seed := time.Now().UnixNano()
	t.Logf("mmap torture: %d cycles, seed %d (set in code to reproduce)", cycles, seed)
	return cycles, rand.New(rand.NewSource(seed))
}

// checkAcked fails unless ds serves every document up to lastAck,
// whole, and answers a search.
func checkAcked(t *testing.T, cycle int, ds *store.Dataset, lastAck int64) {
	t.Helper()
	for i := 0; int64(i) <= lastAck; i++ {
		id := fmt.Sprintf("doc-%06d", i)
		rec, ok := ds.Get(id)
		if !ok {
			t.Fatalf("cycle %d: acked %s lost after mapped recovery (lastAck %d)", cycle, id, lastAck)
		}
		for _, f := range []string{"sku", "title", "body"} {
			if rec[f] == "" {
				t.Fatalf("cycle %d: %s recovered partially: missing %s", cycle, id, f)
			}
		}
	}
	hits, err := ds.SearchContext(context.Background(), store.SearchRequest{Query: "torture", Limit: 5})
	if err != nil || len(hits) == 0 {
		t.Fatalf("cycle %d: search after mapped recovery = %v, %v", cycle, hits, err)
	}
}

// TestMappedBootTortureKillRecover: kill/recover cycles against one
// data dir, every boot mapped. After each kill a fresh mapped boot
// must succeed — mapping the primary snapshot or falling back to the
// retained previous one — and serve every acknowledged document whole.
func TestMappedBootTortureKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec torture is not -short")
	}
	cycles, rng := mmapTortureSetup(t)

	ctx := context.Background()
	dir := t.TempDir()
	start := 0
	for cycle := 0; cycle < cycles; cycle++ {
		la, childErr := runMmapTortureChild(t, rng, dir, start)
		hadSnap := false
		if _, err := os.Stat(dir + "/store.snap"); err == nil {
			hadSnap = true
		}

		p := New(Config{Seed: 1})
		cp, err := p.NewCheckpointer(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp.MMap = true
		restored, err := cp.RestoreLatestContext(ctx)
		if err != nil {
			t.Fatalf("cycle %d: mapped boot after SIGKILL: %v\nchild stderr: %s", cycle, err, childErr)
		}
		if hadSnap && !restored {
			t.Fatalf("cycle %d: snapshot on disk but nothing restored", cycle)
		}
		if _, err := cp.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyAlways}); err != nil {
			t.Fatalf("cycle %d: wal replay after SIGKILL: %v\nchild stderr: %s", cycle, err, childErr)
		}
		if la >= 0 {
			// A checkpoint-cycle crash must never strand a mapped boot
			// on a short file: every acked write is served, whole.
			ds, err := p.Store.DatasetContext(ctx, "t", "ann", "inv", store.PermRead)
			if err != nil {
				t.Fatalf("cycle %d: dataset after recovery: %v", cycle, err)
			}
			checkAcked(t, cycle, ds, la)
			start = int(la) + 1
		}
		// Leave a clean recovery point for the next cycle's boot.
		if err := cp.CloseContext(ctx); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
	}
}

// TestMappedBootKillBeforeFirstCheckpoint: every child boots mapped
// from a restored snapshot, replays the log and writes until it is
// killed — during boot or after it, but always before a checkpoint.
// The snapshot files never change, so each recovery replays every log
// generation written since the seed checkpoint, and must serve every
// acknowledged write. The recovering boot also skips its checkpoint
// and closes only the log, so the tail keeps growing across cycles.
func TestMappedBootKillBeforeFirstCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec torture is not -short")
	}
	cycles, rng := mmapTortureSetup(t)
	ctx := context.Background()
	dir := t.TempDir()

	// Seed the dir: one checkpoint holding the dataset's creation.
	p0 := New(Config{Seed: 1})
	cp0, err := p0.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p0.Store.CreateTenant("t", "ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := p0.Store.CreateDataset("t", "ann", mmapBootSchema()); err != nil {
		t.Fatal(err)
	}
	if err := cp0.CloseContext(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(cp0.Path())
	if err != nil {
		t.Fatal(err)
	}

	start, lastAck := 0, int64(-1)
	for cycle := 0; cycle < cycles; cycle++ {
		la, childErr := runMmapTortureChild(t, rng, dir, start, "MMAP_TORTURE_NO_CHECKPOINT=1")
		if la > lastAck {
			lastAck = la
		}
		p := New(Config{Seed: 1})
		cp, err := p.NewCheckpointer(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp.MMap = true
		if restored, err := cp.RestoreLatestContext(ctx); err != nil || !restored {
			t.Fatalf("cycle %d: mapped boot after SIGKILL = %v, %v\nchild stderr: %s", cycle, restored, err, childErr)
		}
		st, err := cp.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyAlways})
		if err != nil {
			t.Fatalf("cycle %d: wal replay after SIGKILL: %v\nchild stderr: %s", cycle, err, childErr)
		}
		if got, err := os.ReadFile(cp.Path()); err != nil || !bytes.Equal(got, snap) {
			t.Fatalf("cycle %d: snapshot rewritten without a checkpoint (err %v)", cycle, err)
		}
		if _, err := os.Stat(cp.PrevPath()); !os.IsNotExist(err) {
			t.Fatalf("cycle %d: a checkpoint ran: %s exists (%v)", cycle, cp.PrevPath(), err)
		}
		if lastAck >= 0 {
			ds, err := p.Store.DatasetContext(ctx, "t", "ann", "inv", store.PermRead)
			if err != nil {
				t.Fatalf("cycle %d: dataset after recovery: %v", cycle, err)
			}
			checkAcked(t, cycle, ds, lastAck)
			start = int(lastAck) + 1
		}
		t.Logf("cycle %d: acked through %d, replayed %d records from %d segments", cycle, la, st.Records, st.Segments)
		if err := cp.WAL().Close(); err != nil {
			t.Fatalf("cycle %d: close wal: %v", cycle, err)
		}
	}
}

// TestMappedBootServesAcrossCheckpointReplace: the checkpoint cycle
// replaces store.snap (rename, never in-place rewrite) while the
// platform that mapped the old file keeps serving from its pages.
func TestMappedBootServesAcrossCheckpointReplace(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p1 := New(Config{Seed: 1})
	buildGamerQueen(t, p1)
	cp1, err := p1.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp1.CheckpointContext(ctx); err != nil {
		t.Fatal(err)
	}

	p2 := New(Config{Seed: 1})
	cp2, err := p2.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp2.MMap = true
	if restored, err := cp2.RestoreLatestContext(ctx); err != nil || !restored {
		t.Fatalf("mapped restore = %v, %v", restored, err)
	}
	var mappedBytes int64
	for _, st := range p2.Store.Status() {
		mappedBytes += st.MappedBytes
	}
	if mappedBytes == 0 {
		t.Fatal("mapped boot reports zero mapped bytes")
	}
	ds, err := p2.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ds.SearchContext(ctx, store.SearchRequest{Query: "exciting", Limit: 10})
	if err != nil || len(baseline) == 0 {
		t.Fatalf("mapped search = %v, %v", baseline, err)
	}

	// Replace the snapshot under the live mapping, several times, with
	// writes in between so each checkpoint re-encodes real changes.
	wds, err := p2.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := wds.Put(store.Record{
			"sku":         fmt.Sprintf("NEW%d", round),
			"title":       fmt.Sprintf("Added Round %d", round),
			"description": "an exciting addition",
		}); err != nil {
			t.Fatal(err)
		}
		if err := cp2.CheckpointContext(ctx); err != nil {
			t.Fatalf("round %d: checkpoint over live mapping: %v", round, err)
		}
		// The original mapped documents still serve, scores intact.
		again, err := ds.SearchContext(ctx, store.SearchRequest{Query: "exciting", Limit: 10})
		if err != nil {
			t.Fatalf("round %d: search after replace: %v", round, err)
		}
		found := 0
		for _, want := range baseline {
			for _, got := range again {
				if got.ID == want.ID {
					found++
					break
				}
			}
		}
		if found != len(baseline) {
			t.Fatalf("round %d: only %d of %d original hits survive the snapshot replace", round, found, len(baseline))
		}
	}

	// A third platform boots mapped from the replaced file and sees the
	// full post-write state.
	p3 := New(Config{Seed: 1})
	cp3, err := p3.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp3.MMap = true
	if restored, err := cp3.RestoreLatestContext(ctx); err != nil || !restored {
		t.Fatalf("boot from replaced snapshot = %v, %v", restored, err)
	}
	ds3, err := p3.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, ok := ds3.Get(fmt.Sprintf("NEW%d", round)); !ok {
			t.Fatalf("NEW%d missing after boot from replaced snapshot", round)
		}
	}
}

// TestMappedBootFallsBackOnTruncatedPrimary: a short primary snapshot
// — the file a naive in-place checkpoint could leave — must fail the
// mapped attach at boot (frame CRCs) and fall back to the retained
// previous checkpoint instead of serving from the truncated mapping.
func TestMappedBootFallsBackOnTruncatedPrimary(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p1 := New(Config{Seed: 1})
	buildGamerQueen(t, p1)
	cp1, err := p1.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two checkpoints so PrevPath holds a complete snapshot.
	if err := cp1.CheckpointContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cp1.CheckpointContext(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp1.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp1.Path(), data[:len(data)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}

	p2 := New(Config{Seed: 1})
	cp2, err := p2.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp2.MMap = true
	restored, err := cp2.RestoreLatestContext(ctx)
	if err != nil || !restored {
		t.Fatalf("mapped boot with truncated primary = %v, %v, want fallback restore", restored, err)
	}
	ds, err := p2.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if hits, err := ds.SearchContext(ctx, store.SearchRequest{Query: "exciting", Limit: 3}); err != nil || len(hits) == 0 {
		t.Fatalf("search after fallback = %v, %v", hits, err)
	}
	if _, err := os.Stat(cp1.Path() + ".corrupt"); err != nil {
		t.Fatalf("truncated primary was not quarantined: %v", err)
	}
}

// TestMappedBootWALTailMaterializesOnlyTailedDatasets: replaying the
// log tail over a mapped boot materializes exactly the datasets the
// tail touches; everything else keeps serving from the mapping.
func TestMappedBootWALTailMaterializesOnlyTailedDatasets(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p1 := New(Config{Seed: 1})
	if err := p1.Store.CreateTenant("t", "ann"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hot", "cold"} {
		sc := mmapBootSchema()
		sc.Name = name
		if _, err := p1.Store.CreateDataset("t", "ann", sc); err != nil {
			t.Fatal(err)
		}
		ds, err := p1.Store.DatasetContext(ctx, "t", "ann", name, store.PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := ds.Put(store.Record{
				"sku":   fmt.Sprintf("%s-%03d", name, i),
				"title": fmt.Sprintf("%s item %d", name, i),
				"body":  "seeded before the wal tail",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cp1, err := p1.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp1.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyAlways}); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes to "hot" only: this is the tail the next
	// boot must replay.
	hot, err := p1.Store.DatasetContext(ctx, "t", "ann", "hot", store.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := hot.Put(store.Record{
			"sku":   fmt.Sprintf("tail-%03d", i),
			"title": fmt.Sprintf("tail item %d", i),
			"body":  "written after the last checkpoint",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp1.WAL().Close(); err != nil {
		t.Fatal(err)
	}

	p2 := New(Config{Seed: 1})
	cp2, err := p2.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp2.MMap = true
	if restored, err := cp2.RestoreLatestContext(ctx); err != nil || !restored {
		t.Fatalf("mapped restore = %v, %v", restored, err)
	}
	st, err := cp2.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied == 0 {
		t.Fatalf("wal tail replayed nothing: %+v", st)
	}
	for _, ds := range p2.Store.Status() {
		switch ds.Dataset {
		case "hot":
			if ds.MaterializedBytes == 0 {
				t.Fatalf("tailed dataset %q did not materialize: %+v", ds.Dataset, ds)
			}
		case "cold":
			if ds.MaterializedBytes != 0 || ds.MappedBytes == 0 {
				t.Fatalf("untouched dataset %q lost its mapping: %+v", ds.Dataset, ds)
			}
		}
	}
	hot2, err := p2.Store.DatasetContext(ctx, "t", "ann", "hot", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hot2.Get("tail-004"); !ok {
		t.Fatal("tail write missing after mapped boot + replay")
	}
}
