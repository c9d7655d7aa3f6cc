package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/wal"
)

// bootWAL builds a platform over dir with WAL durability enabled,
// exactly like symphonyd boot: restore, replay, open, attach, and a
// boot checkpoint only when nothing was restored (a fresh dir).
func bootWAL(t *testing.T, dir string, policy wal.Policy) (*Platform, *Checkpointer) {
	t.Helper()
	p := New(Config{Seed: 1, ShardTarget: 2})
	cp, err := p.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.RestoreLatestContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.EnableWALContext(context.Background(), wal.Options{Policy: policy}); err != nil {
		t.Fatal(err)
	}
	return p, cp
}

func inventory(t *testing.T, p *Platform, perm store.Permission) *store.Dataset {
	t.Helper()
	ds, err := p.Store.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", perm)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestWALRecoversUncheckpointedWrites is the core durability claim:
// writes acknowledged after the last checkpoint survive a crash (no
// CloseContext, no final snapshot) via log replay on the next boot.
func TestWALRecoversUncheckpointedWrites(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, _ := bootWAL(t, dir, wal.PolicyAlways)
	buildGamerQueen(t, p)
	ds := inventory(t, p, store.PermWrite)
	if _, err := ds.PutContext(ctx, store.Record{"sku": "G77", "title": "Crash Survivor", "producer": "Studio7",
		"description": "a durable game", "image": "http://img.example/77.png", "detailurl": "http://gamerqueen.example/g/77"}); err != nil {
		t.Fatal(err)
	}
	want := ds.Len()
	// "Crash": abandon the platform without CloseContext. The log is
	// never closed cleanly; its synced frames must carry the state.

	p2, _ := bootWAL(t, dir, wal.PolicyAlways)
	ds2 := inventory(t, p2, store.PermRead)
	if got := ds2.Len(); got != want {
		t.Fatalf("recovered %d records, want %d", got, want)
	}
	rec, ok := ds2.Get("G77")
	if !ok || rec["title"] != "Crash Survivor" {
		t.Fatalf("uncheckpointed write lost: %v %v", rec, ok)
	}
	hits, err := ds2.SearchContext(ctx, store.SearchRequest{Query: "durable"})
	if err != nil || len(hits) != 1 {
		t.Fatalf("recovered record not searchable: %v %v", hits, err)
	}
}

// TestWALCorruptSnapshotFallsBack is the satellite case: the primary
// snapshot is corrupted on disk, and boot must fall back to the
// retained previous checkpoint and replay the (longer) WAL tail —
// not fail, and not lose acknowledged writes.
func TestWALCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, cp := bootWAL(t, dir, wal.PolicyAlways)
	buildGamerQueen(t, p)
	// Checkpoint #2 (after the boot checkpoint): both store.snap and
	// store.snap.1 now exist, and the WAL retains history back to the
	// previous boundary.
	if err := cp.CheckpointContext(ctx); err != nil {
		t.Fatal(err)
	}
	ds := inventory(t, p, store.PermWrite)
	if _, err := ds.PutContext(ctx, store.Record{"sku": "G88", "title": "Fallback Proof", "producer": "Studio8",
		"description": "written after the last checkpoint", "image": "http://img.example/88.png", "detailurl": "http://gamerqueen.example/g/88"}); err != nil {
		t.Fatal(err)
	}
	want := ds.Len()

	// Corrupt the primary snapshot in place; keep the previous one.
	if err := os.WriteFile(cp.Path(), []byte("SYMSNP5\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	p2, _ := bootWAL(t, dir, wal.PolicyAlways)
	ds2 := inventory(t, p2, store.PermRead)
	if got := ds2.Len(); got != want {
		t.Fatalf("fallback recovery has %d records, want %d", got, want)
	}
	if _, ok := ds2.Get("G88"); !ok {
		t.Fatal("write after last checkpoint lost in fallback recovery")
	}
}

// TestWALCorruptPrimaryQuarantinedOnFallback pins the crash-window
// fix around fallback recovery: once boot restores from the previous
// snapshot because the primary is corrupt, the corrupt primary must
// be quarantined before the first checkpoint runs. Otherwise the
// checkpoint's retention rename would move the known-bad file over
// the good previous snapshot, and a crash between the two renames
// would leave the next boot with nothing restorable.
func TestWALCorruptPrimaryQuarantinedOnFallback(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, cp := bootWAL(t, dir, wal.PolicyAlways)
	buildGamerQueen(t, p)
	// Checkpoint #2: primary and retained previous snapshot both exist.
	if err := cp.CheckpointContext(ctx); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(cp.PrevPath())
	if err != nil {
		t.Fatal(err)
	}
	want := inventory(t, p, store.PermRead).Len()

	// Corrupt the primary in place; boot must fall back, quarantine
	// the bad file, and leave the good previous snapshot untouched
	// through the first checkpoint after it (a restored boot writes
	// none itself, so the test takes it).
	bad := []byte("SYMSNP5\ngarbage")
	if err := os.WriteFile(cp.Path(), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, cp2 := bootWAL(t, dir, wal.PolicyAlways)
	if err := cp2.CheckpointContext(ctx); err != nil {
		t.Fatal(err)
	}

	q, err := os.ReadFile(cp2.Path() + ".corrupt")
	if err != nil || string(q) != string(bad) {
		t.Fatalf("corrupt primary not quarantined: %v (%d bytes)", err, len(q))
	}
	prev, err := os.ReadFile(cp2.PrevPath())
	if err != nil {
		t.Fatal(err)
	}
	if string(prev) != string(good) {
		t.Fatal("first checkpoint replaced the good previous snapshot while the primary was known corrupt")
	}
	if got := inventory(t, p2, store.PermRead).Len(); got != want {
		t.Fatalf("fallback recovery has %d records, want %d", got, want)
	}
}

// TestWALTruncationLagsOneCheckpoint pins the retention contract:
// after N checkpoints, segments older than the previous checkpoint's
// rotation boundary are gone, and the ones the retained snapshot
// needs are still there.
func TestWALTruncationLagsOneCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, cp := bootWAL(t, dir, wal.PolicyAlways)
	buildGamerQueen(t, p)
	ds := inventory(t, p, store.PermWrite)
	countSegs := func() int {
		ents, err := os.ReadDir(cp.WALDir())
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	for i := 0; i < 4; i++ {
		if _, err := ds.PutContext(ctx, store.Record{"sku": "G9", "title": "Churn", "producer": "Studio9",
			"description": "rewritten every round", "image": "http://img.example/9.png", "detailurl": "http://gamerqueen.example/g/9"}); err != nil {
			t.Fatal(err)
		}
		if err := cp.CheckpointContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Rotation adds a segment per checkpoint and truncation removes
	// the sealed ones two checkpoints back; the directory must not
	// grow without bound. Fresh-dir boot + 4 checkpoints = 5 rotations;
	// without truncation there would be >6 files.
	if n := countSegs(); n > 4 {
		t.Fatalf("wal dir holds %d segments after 4 checkpoints; truncation is not engaging", n)
	}
	if err := cp.CloseContext(ctx); err != nil {
		t.Fatal(err)
	}
}

// putGame writes one inventory row, acknowledged once durable.
func putGame(t *testing.T, ds *store.Dataset, sku, title string) {
	t.Helper()
	if _, err := ds.PutContext(context.Background(), store.Record{"sku": sku, "title": title, "producer": "Studio" + sku,
		"description": "written to the log", "image": "http://img.example/" + sku + ".png", "detailurl": "http://gamerqueen.example/g/" + sku}); err != nil {
		t.Fatal(err)
	}
}

// crashWithCheckpoints leaves dir as a daemon killed after two
// checkpoints (store.snap and store.snap.1 both on disk) and one
// log-only write, and returns the inventory size it acknowledged.
func crashWithCheckpoints(t *testing.T, dir string) int {
	t.Helper()
	p, cp := bootWAL(t, dir, wal.PolicyAlways)
	buildGamerQueen(t, p)
	if err := cp.CheckpointContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds := inventory(t, p, store.PermWrite)
	putGame(t, ds, "T1", "Log Only")
	return ds.Len()
}

// TestWALFreshBootCheckpoints: a boot that restored nothing writes its
// checkpoint before serving — seeded state exists only in memory.
func TestWALFreshBootCheckpoints(t *testing.T) {
	dir := t.TempDir()
	_, cp := bootWAL(t, dir, wal.PolicyAlways)
	if _, err := os.Stat(cp.Path()); err != nil {
		t.Fatalf("fresh-dir boot wrote no checkpoint: %v", err)
	}
}

// TestWALRestoredBootWritesNoSnapshot: a boot from a restored snapshot
// serves once the tail is replayed; both snapshot files stay
// byte-identical.
func TestWALRestoredBootWritesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	want := crashWithCheckpoints(t, dir)
	paths := []string{filepath.Join(dir, "store.snap"), filepath.Join(dir, "store.snap.1")}
	var before [][]byte
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, b)
	}

	p2, _ := bootWAL(t, dir, wal.PolicyAlways)
	if got := inventory(t, p2, store.PermRead).Len(); got != want {
		t.Fatalf("restored boot holds %d records, want %d", got, want)
	}
	for i, path := range paths {
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before[i]) {
			t.Fatalf("restored boot rewrote %s", path)
		}
	}
}

// TestWALSecondCrashBeforeCheckpoint: crash, reboot from the restored
// snapshot (no boot checkpoint), write to a second log generation —
// including a delete of a row the first generation put — and crash
// again before any checkpoint. The next boot replays both generations
// and holds every acknowledged write.
func TestWALSecondCrashBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n := crashWithCheckpoints(t, dir)

	p2, _ := bootWAL(t, dir, wal.PolicyAlways)
	ds2 := inventory(t, p2, store.PermWrite)
	putGame(t, ds2, "T2", "Second Generation")
	if ok, err := ds2.DeleteContext(context.Background(), "T1"); !ok || err != nil {
		t.Fatalf("delete T1 = %v, %v", ok, err)
	}
	putGame(t, ds2, "G0", "Rewritten In Generation Two")

	p3, _ := bootWAL(t, dir, wal.PolicyAlways)
	ds3 := inventory(t, p3, store.PermRead)
	if got := ds3.Len(); got != n {
		t.Fatalf("second recovery holds %d records, want %d", got, n)
	}
	if _, ok := ds3.Get("T1"); ok {
		t.Fatal("row deleted in the second generation resurrected")
	}
	for sku, title := range map[string]string{"T2": "Second Generation", "G0": "Rewritten In Generation Two"} {
		if rec, ok := ds3.Get(sku); !ok || rec["title"] != title {
			t.Fatalf("%s after second recovery = %v, %v", sku, rec, ok)
		}
	}
}
