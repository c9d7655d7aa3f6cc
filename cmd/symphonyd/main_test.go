package main

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestRestoredBootCheckpointsOnlyWithoutLoop: a boot that restored a
// snapshot serves without a checkpoint when the periodic loop will take
// the next one, and takes it itself under --checkpoint-interval 0, so
// repeated crashes cannot grow the log without bound.
func TestRestoredBootCheckpointsOnlyWithoutLoop(t *testing.T) {
	for _, tc := range []struct {
		name     string
		every    time.Duration
		rewrites bool
	}{
		{"loop", time.Hour, false},
		{"no-loop", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			boot := func() (*core.Platform, *core.Checkpointer) {
				p := core.New(core.Config{Seed: 1})
				gq, err := demo.GamerQueen(p, 1, 10)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(gq.Close)
				cp, err := openDataDir(ctx, p, dir, tc.every, true, true, wal.PolicyAlways)
				if err != nil {
					t.Fatal(err)
				}
				return p, cp
			}

			// Fresh dir: the boot checkpoints. Then one log-only write
			// and a crash (no CloseContext).
			p1, cp1 := boot()
			ds, err := p1.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermWrite)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ds.PutContext(ctx, store.Record{"sku": "L1", "title": "Log Only", "producer": "Studio",
				"description": "in the log only", "image": "http://img.example/l1.png", "detailurl": "http://gamerqueen.example/g/l1"}); err != nil {
				t.Fatal(err)
			}
			cp1.WAL().Close()
			before, err := os.ReadFile(cp1.Path())
			if err != nil {
				t.Fatal(err)
			}

			p2, cp2 := boot()
			defer cp2.CloseContext(ctx)
			ds2, err := p2.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermRead)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ds2.Get("L1"); !ok {
				t.Fatal("log-only write lost across the restart")
			}
			after, err := os.ReadFile(cp2.Path())
			if err != nil {
				t.Fatal(err)
			}
			if rewrote := !bytes.Equal(after, before); rewrote != tc.rewrites {
				t.Fatalf("restored boot rewrote the snapshot = %v, want %v", rewrote, tc.rewrites)
			}
		})
	}
}
