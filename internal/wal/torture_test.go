package wal_test

// Crash-injection torture harness for the write-ahead log. Each cycle
// re-execs this test binary as a child writer (TestMain intercepts the
// WAL_TORTURE_CHILD env), lets it append records under one of the
// three fsync policies while acknowledging each durable write on
// stdout, SIGKILLs it at a randomized point, optionally injects a torn
// write into the tail of the log it left behind (truncation, a flipped
// byte, trailing garbage), and then recovers.
//
// The contract asserted after every kill:
//
//   - replay never fails — a torn tail is where the log ends, not an
//     error;
//   - the recovered records are a contiguous prefix of what the child
//     wrote: no gaps, no reordering, and no partially-applied document
//     (every recovered record carries all of its fields);
//   - under the "always" and "group" policies, every acknowledged
//     write is recovered when the tail was not deliberately corrupted
//     — acknowledgement means fsynced. "interval" acknowledges before
//     syncing, so only the prefix contract applies;
//   - the store rebuilt from the log serves exactly the applied
//     records, and serves them whole.
//
// TestTortureCrashLoopSameLog adds the multi-crash dimension: the
// same log directory survives a loop of kill/corrupt/recover cycles,
// with each boot sealing the torn tail before the next child writes —
// so a tear from one crash can never cost a later boot the acked
// writes of the generations in between.
//
// TORTURE_CYCLES=<n> raises the cycle count (CI runs >= 50).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

func TestMain(m *testing.M) {
	if os.Getenv("WAL_TORTURE_CHILD") == "1" {
		tortureChild()
		return
	}
	os.Exit(m.Run())
}

func tortureSchema() store.Schema {
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

// tortureChild is the re-exec'd writer: create the schema, then append
// documents as fast as the policy acknowledges them, reporting each
// durable write, until the parent kills the process.
func tortureChild() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "torture child:", err)
		os.Exit(2)
	}
	pol, err := wal.ParsePolicy(os.Getenv("WAL_TORTURE_POLICY"))
	if err != nil {
		fail(err)
	}
	start := 0
	if v := os.Getenv("WAL_TORTURE_START"); v != "" {
		if start, err = strconv.Atoi(v); err != nil {
			fail(err)
		}
	}
	l, err := wal.Open(os.Getenv("WAL_TORTURE_DIR"), wal.Options{Policy: pol})
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	schemaJSON, err := json.Marshal(tortureSchema())
	if err != nil {
		fail(err)
	}
	ddl := []*wal.Record{
		{Op: wal.OpCreateTenant, Tenant: "t", Actor: "ann"},
		{Op: wal.OpCreateDataset, Tenant: "t", Actor: "ann", Schema: schemaJSON},
	}
	for _, rec := range ddl {
		if err := l.Append(rec).Wait(ctx); err != nil {
			fail(err)
		}
	}
	fmt.Println("READY")
	for i := start; ; i++ {
		id := fmt.Sprintf("doc-%06d", i)
		rec := &wal.Record{Op: wal.OpPut, Tenant: "t", Dataset: "inv", ID: id, Rec: map[string]string{
			"sku":   id,
			"title": fmt.Sprintf("torture item %d", i),
			"body":  fmt.Sprintf("payload for document %d under policy %s", i, pol),
		}}
		if err := l.Append(rec).Wait(ctx); err != nil {
			fail(err)
		}
		// The ack line races the kill by design: an acked-but-unprinted
		// record only under-counts acks, which weakens — never breaks —
		// the acked-writes-recovered assertion.
		fmt.Printf("ACK %d\n", i)
	}
}

func TestTortureKillRecover(t *testing.T) {
	cycles := 9
	if v := os.Getenv("TORTURE_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad TORTURE_CYCLES %q", v)
		}
		cycles = n
	}
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("torture: %d cycles, seed %d (set in code to reproduce)", cycles, seed)
	policies := []wal.Policy{wal.PolicyAlways, wal.PolicyGroup, wal.PolicyInterval}
	// Damage modes follow a fixed schedule (every mode within the default
	// nine cycles) so subtest names are stable from run to run; the kill
	// point and the damaged bytes stay randomized by rng.
	corruptions := []string{"garbage", "truncate", "flip", "flip"}
	for i := 0; i < cycles; i++ {
		pol := policies[i%len(policies)]
		// Odd cycles add a torn write on top of the kill, so both the
		// crash point and the damage mode are exercised across the run.
		corrupt := ""
		if i%2 == 1 {
			corrupt = corruptions[(i/2)%len(corruptions)]
		}
		name := fmt.Sprintf("cycle%02d_%s", i, pol)
		if corrupt != "" {
			name += "_" + corrupt
		}
		t.Run(name, func(t *testing.T) {
			tortureCycle(t, rng, pol, corrupt)
		})
	}
}

// runTortureChild re-execs the writer against dir (appending from doc
// index start), SIGKILLs it at a randomized point, and returns the
// highest document index it acknowledged as durable (-1: none) plus
// its stderr.
func runTortureChild(t *testing.T, rng *rand.Rand, dir string, pol wal.Policy, start int) (int64, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"WAL_TORTURE_CHILD=1",
		"WAL_TORTURE_DIR="+dir,
		"WAL_TORTURE_POLICY="+string(pol),
		"WAL_TORTURE_START="+strconv.Itoa(start),
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// lastAck tracks the highest document index the child reported as
	// durably written (-1: none).
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

	// Randomize the kill point: usually after the schema is durable and
	// some documents are flowing, sometimes in the middle of the DDL
	// itself.
	if rng.Intn(4) > 0 {
		select {
		case <-ready:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			wg.Wait()
			cmd.Wait()
			t.Fatalf("child never became ready; stderr: %s", stderr.String())
		}
		time.Sleep(time.Duration(rng.Intn(20)+1) * time.Millisecond)
	} else {
		time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	cmd.Wait() // the SIGKILL exit status is the expected outcome
	return lastAck.Load(), stderr.String()
}

func tortureCycle(t *testing.T, rng *rand.Rand, pol wal.Policy, corrupt string) {
	dir := t.TempDir()
	la, childErr := runTortureChild(t, rng, dir, pol, 0)

	if corrupt != "" {
		corruptTail(t, rng, dir, corrupt)
	}

	// Recovery: replay into a fresh store, checking the log-level
	// contract record by record.
	s := store.New(store.WithShardTarget(2))
	next := 0        // contiguity: the only acceptable put sequence is doc-0, doc-1, ...
	appliedPuts := 0 // puts the store accepted (all of them unless the DDL was torn away)
	_, err := wal.Replay(dir, func(rec *wal.Record) error {
		if rec.Op == wal.OpPut {
			if want := fmt.Sprintf("doc-%06d", next); rec.ID != want {
				t.Fatalf("recovered %s out of order, want %s", rec.ID, want)
			}
			for _, f := range []string{"sku", "title", "body"} {
				if rec.Rec[f] == "" {
					t.Fatalf("partially written document %s recovered: missing %s", rec.ID, f)
				}
			}
			next++
		}
		aerr := s.ApplyWAL(rec)
		if aerr == nil && rec.Op == wal.OpPut {
			appliedPuts++
		}
		return aerr
	})
	if err != nil {
		t.Fatalf("recovery replay failed (must never happen): %v; child stderr: %s", err, childErr)
	}

	// Durability: an acknowledged write under always/group was fsynced
	// before the ack, so a pure kill (no injected damage) cannot lose it.
	t.Logf("killed after ack %d; recovered %d puts (%d applied)", la, next, appliedPuts)
	if corrupt == "" && pol != wal.PolicyInterval && int64(next) <= la {
		t.Fatalf("policy %s lost acknowledged writes: last ack doc-%06d, recovered only %d records", pol, la, next)
	}

	// Store-level: the rebuilt index serves exactly the applied records,
	// and serves them whole.
	ctx := context.Background()
	ds, derr := s.DatasetContext(ctx, "t", "ann", "inv", store.PermRead)
	if derr != nil {
		if appliedPuts != 0 {
			t.Fatalf("store applied %d puts but the dataset is missing: %v", appliedPuts, derr)
		}
		return // DDL fell in the lost tail; nothing further to check
	}
	if ds.Len() != appliedPuts {
		t.Fatalf("recovered store holds %d records, replay applied %d", ds.Len(), appliedPuts)
	}
	if appliedPuts > 0 {
		id := fmt.Sprintf("doc-%06d", appliedPuts-1)
		rec, ok := ds.Get(id)
		if !ok || rec["title"] == "" || rec["body"] == "" {
			t.Fatalf("recovered store serves a partial document %s: %v %v", id, rec, ok)
		}
		hits, err := ds.SearchContext(ctx, store.SearchRequest{Query: "torture item"})
		if err != nil || len(hits) == 0 {
			t.Fatalf("recovered index not searchable: %v %v", hits, err)
		}
	}
}

// TestTortureCrashLoopSameLog crashes repeatedly against ONE log
// directory: every boot replays, seals the torn tail, and hands the
// same dir to the next child. This is the multi-crash shape the
// fresh-TempDir cycles above cannot see — a tear left by crash k must
// not cost boot k+2 the acknowledged writes boot k+1 appended to
// newer segments.
func TestTortureCrashLoopSameLog(t *testing.T) {
	cycles := 8
	if v := os.Getenv("TORTURE_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad TORTURE_CYCLES %q", v)
		}
		cycles = n
	}
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("crash loop: %d cycles, seed %d (set in code to reproduce)", cycles, seed)
	dir := t.TempDir()
	policies := []wal.Policy{wal.PolicyAlways, wal.PolicyGroup}
	corruptions := []string{"truncate", "flip", "garbage"}
	ackedFloor := int64(-1) // highest doc index known durable on disk
	start := 0
	for cycle := 0; cycle < cycles; cycle++ {
		pol := policies[cycle%len(policies)]
		la, childErr := runTortureChild(t, rng, dir, pol, start)
		if la > ackedFloor {
			ackedFloor = la
		}
		// Every third cycle also tears the newest segment's tail, so
		// sealed tears and injected damage interleave across boots.
		corrupted := cycle%3 == 2
		if corrupted {
			corruptTail(t, rng, dir, corruptions[rng.Intn(len(corruptions))])
		}

		// Boot: replay (contiguous, whole documents, never an error),
		// then seal the tear so the next generation opens clean.
		s := store.New(store.WithShardTarget(2))
		next := 0
		st, err := wal.Replay(dir, func(rec *wal.Record) error {
			if rec.Op == wal.OpPut {
				if want := fmt.Sprintf("doc-%06d", next); rec.ID != want {
					t.Fatalf("cycle %d: recovered %s out of order, want %s", cycle, rec.ID, want)
				}
				for _, f := range []string{"sku", "title", "body"} {
					if rec.Rec[f] == "" {
						t.Fatalf("cycle %d: partially written document %s: missing %s", cycle, rec.ID, f)
					}
				}
				next++
			}
			return s.ApplyWAL(rec)
		})
		if err != nil {
			t.Fatalf("cycle %d: recovery replay failed (must never happen): %v; child stderr: %s", cycle, err, childErr)
		}
		if err := wal.SealTornTail(st); err != nil {
			t.Fatalf("cycle %d: seal torn tail: %v", cycle, err)
		}
		if corrupted {
			// Injected damage may destroy synced frames; the surviving
			// prefix becomes the durable floor later cycles must hold.
			ackedFloor = int64(next) - 1
		} else if int64(next) <= ackedFloor {
			t.Fatalf("cycle %d (%s): acked writes lost across crashes: floor doc-%06d, recovered only %d puts",
				cycle, pol, ackedFloor, next)
		}
		t.Logf("cycle %d (%s): acked through %d, recovered %d puts (torn=%v, corrupted=%v)",
			cycle, pol, la, next, st.Torn, corrupted)
		start = next
	}
}

// corruptTail injects a torn write into the end of the newest segment:
// what an interrupted disk leaves behind.
func corruptTail(t *testing.T, rng *rand.Rand, dir, mode string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	last := filepath.Join(dir, names[len(names)-1])
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size()
	switch mode {
	case "truncate":
		cut := int64(rng.Intn(64) + 1)
		if cut > size {
			cut = size
		}
		if err := os.Truncate(last, size-cut); err != nil {
			t.Fatal(err)
		}
	case "flip":
		if size == 0 {
			return
		}
		span := int64(64)
		if span > size {
			span = size
		}
		off := size - 1 - rng.Int63n(span)
		f, err := os.OpenFile(last, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	case "garbage":
		junk := make([]byte, rng.Intn(128)+1)
		rng.Read(junk)
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(junk); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown corruption mode %q", mode)
	}
}
