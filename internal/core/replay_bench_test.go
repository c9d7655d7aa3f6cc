package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wal"
)

// catalogRows returns rows [from, from+n) of a product catalog shaped
// like a designer's upload: a key, a 3-word title, one of 7 producers,
// a 40-word description and a URL, words drawn Zipf-skewed from a
// fixed 5 000-word vocabulary.
func catalogRows(rng *rand.Rand, from, n int) []store.Record {
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	phrase := func(k int) string {
		ws := make([]string, k)
		for i := range ws {
			w := zipf.Uint64()
			ws[i] = fmt.Sprintf("w%c%d", 'a'+rune(w%26), w)
		}
		return strings.Join(ws, " ")
	}
	rows := make([]store.Record, n)
	for i := range rows {
		sku := fmt.Sprintf("S%06d", from+i)
		rows[i] = store.Record{
			"sku":         sku,
			"title":       phrase(3),
			"producer":    fmt.Sprintf("producer%d", rng.Intn(7)),
			"description": phrase(40),
			"url":         "http://shop.example/items/" + sku,
		}
	}
	return rows
}

// BenchmarkReplayTail measures the log-replay half of a restart: each
// iteration restores a mapped checkpoint of 8 000 catalog rows (not
// timed), then replays a 2 000-row log tail written by two 1 000-row
// uploads. Run with -benchmem; ns/op and allocs/op are the replay's.
func BenchmarkReplayTail(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	rng := rand.New(rand.NewSource(1))
	schema := store.Schema{Name: "catalog", Key: "sku", Fields: []store.Field{
		{Name: "sku", Required: true},
		{Name: "title", Searchable: true},
		{Name: "producer", Searchable: true},
		{Name: "description", Searchable: true},
		{Name: "url"},
	}}

	seed := New(Config{Seed: 1})
	if err := seed.Store.CreateTenant("shop", "dana"); err != nil {
		b.Fatal(err)
	}
	ds, err := seed.Store.CreateDataset("shop", "dana", schema)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ds.AddBatchContext(ctx, catalogRows(rng, 0, 8000)); err != nil {
		b.Fatal(err)
	}
	cp, err := seed.NewCheckpointer(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	// A fresh data dir: this checkpoints the 8 000 rows and attaches
	// the log the two uploads below land in.
	if _, err := cp.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyGroup}); err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		if _, err := ds.AddBatchContext(ctx, catalogRows(rng, 8000+1000*u, 1000)); err != nil {
			b.Fatal(err)
		}
	}
	if err := cp.WAL().Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := New(Config{Seed: 1})
		rcp, err := p.NewCheckpointer(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := rcp.RestoreLatestContext(ctx); err != nil || !ok {
			b.Fatalf("mapped restore = %v, %v", ok, err)
		}
		b.StartTimer()
		st, err := p.Store.ReplayContext(ctx, rcp.WALDir())
		if err != nil {
			b.Fatal(err)
		}
		if st.Applied != 2000 || st.Torn {
			b.Fatalf("replay stats %+v, want 2 000 rows applied", st)
		}
	}
}
