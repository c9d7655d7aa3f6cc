package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wal"
)

// Batched replay must be indistinguishable from applying every logged
// record alone. The reference below is per-record replay as it was
// before puts were batched: each put takes the dataset lock, advances
// the keyless high-water mark and goes through Index.Add on its own.

// replaySequential replays dir one record at a time.
func replaySequential(s *Store, dir string) (wal.ReplayStats, error) {
	return wal.Replay(dir, func(rec *wal.Record) error {
		if rec.Op != wal.OpPut {
			return s.applyRecord(rec)
		}
		ds, ok := s.lookupDataset(rec.Tenant, rec.Dataset)
		if !ok {
			return wal.ErrSkipRecord
		}
		return ds.applyPutSequential(rec.ID, Record(rec.Rec))
	})
}

func (d *Dataset) applyPutSequential(id string, rec Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.materializeRecordsLocked()
	if d.schema.Key == "" {
		if n, err := strconv.Atoi(id); err == nil && n > d.nextID {
			d.nextID = n
		}
	}
	if _, exists := d.records[id]; !exists {
		d.order = append(d.order, id)
	}
	cp := make(Record, len(rec))
	for k, v := range rec {
		cp[k] = v
	}
	d.records[id] = cp
	d.ver++
	return d.reindexLocked(id, cp)
}

var replayWords = []string{"red", "blue", "green", "widget", "gadget", "alpha", "beta", "common", "unique4", "zeta"}

func replayText(rng *rand.Rand, n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = replayWords[rng.Intn(len(replayWords))]
	}
	return strings.Join(w, " ")
}

func replayKeyedSchema(name string) Schema {
	return Schema{Name: name, Key: "sku", Fields: []Field{
		{Name: "sku", Required: true},
		{Name: "title", Searchable: true},
		{Name: "body", Searchable: true},
		{Name: "price", Type: TypeNumber},
	}}
}

func replayKeylessSchema(name string) Schema {
	return Schema{Name: name, Fields: []Field{
		{Name: "title", Searchable: true},
		{Name: "body", Searchable: true},
	}}
}

// replayBase is the snapshot every log replays over: one tenant with
// a keyed, a keyless and a droppable dataset, with tombstones.
func replayBase(t *testing.T) []byte {
	t.Helper()
	s := New(WithShardTarget(3))
	if err := s.CreateTenant("acme", "ann"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, sch := range []Schema{replayKeyedSchema("inv"), replayKeylessSchema("log"), replayKeyedSchema("tmp")} {
		ds, err := s.CreateDataset("acme", "ann", sch)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			rec := Record{"title": replayText(rng, 2), "body": replayText(rng, 4)}
			if sch.Key != "" {
				rec["sku"] = fmt.Sprintf("sku-%02d", i)
				rec["price"] = strconv.Itoa(rng.Intn(100))
			}
			if _, err := ds.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		ds.Delete("sku-03")
		ds.Delete("7")
	}
	var buf bytes.Buffer
	if err := s.SnapshotContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayLog synthesizes a random log: runs of puts interleaved across
// datasets (duplicate IDs inside a run, keyless IDs that jump the
// high-water mark), deletes of just-put IDs, drops and re-creates,
// puts into dropped or never-created datasets, grants and quotas.
// long adds one run past the batch cap.
func replayLog(rng *rand.Rand, long bool) []*wal.Record {
	var out []*wal.Record
	keylessNext := 21
	recent := map[string][]string{}
	put := func(dataset string) {
		id := fmt.Sprintf("sku-%02d", rng.Intn(40))
		rec := map[string]string{"title": replayText(rng, 2), "body": replayText(rng, 1+rng.Intn(5))}
		if dataset == "log" {
			switch rng.Intn(6) {
			case 0:
				id = strconv.Itoa(1 + rng.Intn(keylessNext)) // rewrite of an older row
			case 1:
				keylessNext += 1 + rng.Intn(4) // a gap, as a racing crash leaves
				id = strconv.Itoa(keylessNext)
			default:
				id = strconv.Itoa(keylessNext)
				keylessNext++
			}
		} else {
			rec["sku"] = id
			rec["price"] = strconv.Itoa(rng.Intn(100))
		}
		recent[dataset] = append(recent[dataset], id)
		out = append(out, &wal.Record{Op: wal.OpPut, Tenant: "acme", Dataset: dataset, ID: id, Rec: rec})
	}
	datasets := []string{"inv", "inv", "log", "log", "tmp", "ghost"}
	tmpSchema, _ := json.Marshal(replayKeyedSchema("tmp"))
	ops := 20 + rng.Intn(40)
	longAt := -1
	if long {
		longAt = rng.Intn(ops)
	}
	for i := 0; i < ops; i++ {
		if i == longAt {
			dataset := datasets[rng.Intn(4)]
			for n := replayBatchMax + 1 + rng.Intn(300); n > 0; n-- {
				put(dataset)
			}
			continue
		}
		switch r := rng.Intn(20); {
		case r < 11:
			dataset := datasets[rng.Intn(len(datasets))]
			for n := 1 + rng.Intn(12); n > 0; n-- {
				put(dataset)
			}
		case r < 14:
			dataset := datasets[rng.Intn(len(datasets))]
			id := fmt.Sprintf("sku-%02d", rng.Intn(40))
			if ids := recent[dataset]; len(ids) > 0 && rng.Intn(3) > 0 {
				id = ids[rng.Intn(len(ids))]
			}
			out = append(out, &wal.Record{Op: wal.OpDelete, Tenant: "acme", Dataset: dataset, ID: id})
		case r == 14:
			out = append(out, &wal.Record{Op: wal.OpDropDataset, Tenant: "acme", Actor: "ann", Dataset: "tmp"})
		case r == 15:
			out = append(out, &wal.Record{Op: wal.OpCreateDataset, Tenant: "acme", Actor: "ann", Dataset: "tmp", Schema: tmpSchema})
		case r == 16:
			out = append(out, &wal.Record{Op: wal.OpGrant, Tenant: "acme", Actor: "ann", ID: "bob", Perm: string(PermRead)})
		case r == 17:
			out = append(out, &wal.Record{Op: wal.OpRevoke, Tenant: "acme", Actor: "ann", ID: "bob"})
		case r == 18:
			out = append(out, &wal.Record{Op: wal.OpSetQuota, Tenant: "acme", Actor: "ann", N: 500 + rng.Intn(1000)})
		default:
			// A write for a tenant the store never had.
			out = append(out, &wal.Record{Op: wal.OpPut, Tenant: "nobody", Dataset: "inv", ID: "x", Rec: map[string]string{"sku": "x"}})
		}
	}
	return out
}

// writeReplayLog writes recs as one log generation in a fresh dir.
func writeReplayLog(t *testing.T, recs []*wal.Record) string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.PolicyInterval})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		l.Append(rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// replayState is everything a replay must agree on: stats, the
// fingerprint, every record, the next keyless ID, grants, quota, and
// search results down to the score bits.
func replayState(t *testing.T, s *Store, st wal.ReplayStats) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n%s", st, storeFingerprint(t, s))
	_, bobErr := s.DatasetContext(ctx, "acme", "bob", "inv", PermRead)
	s.mu.RLock()
	fmt.Fprintf(&b, "quota %d bob %v\n", s.tenants["acme"].quota, bobErr == nil)
	s.mu.RUnlock()
	names, err := s.Datasets("acme", "ann")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		ds, err := s.DatasetContext(ctx, "acme", "ann", name, PermRead)
		if err != nil {
			t.Fatal(err)
		}
		ds.mu.RLock()
		fmt.Fprintf(&b, "%s nextID %d\n", name, ds.nextID)
		ds.mu.RUnlock()
		for _, rec := range ds.List(0, 0) {
			fmt.Fprintf(&b, "  %v\n", rec)
		}
		for _, q := range []string{"", "red widget", "common unique4", "zeta", "blue gadget alpha"} {
			hits, err := ds.SearchContext(ctx, SearchRequest{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "  q=%q:", q)
			for _, h := range hits {
				fmt.Fprintf(&b, " %s/%x", h.ID, math.Float64bits(h.Score))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestReplayBatchedMatchesSequential replays random logs over heap and
// mapped restores of one snapshot, record by record and batched, and
// requires all four stores to agree exactly.
func TestReplayBatchedMatchesSequential(t *testing.T) {
	ctx := context.Background()
	snap := replayBase(t)
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	restores := []struct {
		name    string
		restore func(*Store) error
	}{
		{"heap", func(s *Store) error { return s.RestoreContext(ctx, snap) }},
		{"mapped", func(s *Store) error { return s.RestoreMappedContext(ctx, snap) }},
	}
	replays := []struct {
		name   string
		replay func(*Store, string) (wal.ReplayStats, error)
	}{
		{"sequential", replaySequential},
		{"batched", func(s *Store, dir string) (wal.ReplayStats, error) { return s.ReplayContext(ctx, dir) }},
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := writeReplayLog(t, replayLog(rng, seed%50 == 7))
		var want, wantFrom string
		for _, r := range restores {
			for _, p := range replays {
				s := New(WithShardTarget(3))
				if err := r.restore(s); err != nil {
					t.Fatal(err)
				}
				st, err := p.replay(s, dir)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, r.name, p.name, err)
				}
				got := replayState(t, s, st)
				from := r.name + "/" + p.name
				if want == "" {
					want, wantFrom = got, from
					continue
				}
				if got != want {
					t.Fatalf("seed %d: %s diverges from %s\n%s", seed, from, wantFrom, firstDiff(want, got))
				}
			}
		}
	}
}

// firstDiff shows the first differing line of two multi-line states.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
