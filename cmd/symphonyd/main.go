// Command symphonyd hosts a demo Symphony platform over HTTP with the
// three paper applications published (GamerQueen, WineFinder,
// VideoStore). Visit:
//
//	/apps                          published applications
//	/query?app=gamerqueen&q=...    execute an application
//	/embed.js?app=gamerqueen       the designer's embed loader
//	/click?app=...&url=...         logged click redirect
//
// With --data-dir the daemon is durable: designers' proprietary data
// is restored from the directory on boot, checkpointed there
// periodically in the background (incrementally: only datasets
// mutated since the previous checkpoint are re-encoded), and written
// one final time on graceful shutdown (SIGINT/SIGTERM), so a
// kill/restart cycle loses nothing that was checkpointed or
// acknowledged at shutdown.
//
// With --wal (default on) the data dir also carries a write-ahead
// log under the checkpoint cycle: every acknowledged write is
// appended to an fsynced segmented log, boot replays the tail the
// latest snapshot missed, and a completed checkpoint truncates the
// replayed history — so recovery converges to the last acknowledged
// write, not the last checkpoint. A boot that restored a snapshot
// serves as soon as the tail is replayed; the next periodic checkpoint
// covers the tail (with --checkpoint-interval 0, a checkpoint at boot
// does). --fsync picks the ack policy:
// "always" (fsync before every ack), "group" (group commit: batch
// many acks per fsync, default) or "interval" (ack immediately,
// fsync periodically — bounded loss window).
//
// --mmap (default on) boots v3 snapshots as mmap'd read-only views:
// records and postings stay in the snapshot file's pages and
// materialize copy-on-write as writes touch them, so boot time and
// resident set stop scaling with corpus size.
// /statusz reports the mapped-vs-materialized byte split.
// --pprof-addr serves net/http/pprof on its own listener (off by
// default, never the tenant port) for heap and CPU profiles.
//
// --shards controls dataset index parallelism: "auto" (default, one
// shard per CPU) or a fixed count. Snapshots written under another
// layout reshard to the target on restore, so a checkpoint from a
// small box serves at full fan-out here. /statusz reports each
// dataset's shard count, ring generation and tombstone ratio as
// JSON, so operators can watch reshard progress.
//
// --cache-mb sizes the shared cross-request result cache (default
// 64 MB, 0 disables). Repeated queries against unchanged data — the
// common case for a published app's landing page — are answered from
// the cache; any write to an index invalidates its entries by
// generation stamp. /statusz reports hit/miss/eviction counters.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on --pprof-addr's listener
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/host"
	"repro/internal/index"
	"repro/internal/wal"
)

// parseShards turns --shards auto|N into a core.Config.ShardTarget
// (0 = auto).
func parseShards(v string) (int, error) {
	if v == "" || v == "auto" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("symphonyd: --shards must be \"auto\" or a positive integer, got %q", v)
	}
	return n, nil
}

// openDataDir makes p durable over dir: restore the latest snapshot,
// replay and attach the write-ahead log (when walOn), and start the
// checkpoint loop every interval.
func openDataDir(ctx context.Context, p *core.Platform, dir string, every time.Duration, mmapOn, walOn bool, policy wal.Policy) (*core.Checkpointer, error) {
	cp, err := p.NewCheckpointer(dir, every)
	if err != nil {
		return nil, err
	}
	cp.Logf = log.Printf
	cp.MMap = mmapOn
	restored, err := cp.RestoreLatestContext(ctx)
	if err != nil {
		return nil, err
	}
	if !restored {
		log.Printf("symphonyd: no snapshot in %s, starting from seeded data", dir)
	}
	// WAL under the checkpoint cycle: replay the tail the last
	// snapshot missed, then log every acknowledged write, so boot
	// recovers to the last ack — not just the last checkpoint.
	if walOn {
		st, err := cp.EnableWALContext(ctx, wal.Options{Policy: policy})
		if err != nil {
			return nil, err
		}
		log.Printf("symphonyd: wal enabled (fsync=%s): replayed %d records (%d applied, %d skipped) from %d segments",
			policy, st.Records, st.Applied, st.Skipped, st.Segments)
		// A restored boot serves without a checkpoint and leaves the
		// next one to the loop. With no loop, take it now: otherwise
		// the log and its replay grow with every crash until a clean
		// shutdown.
		if restored && every <= 0 {
			if err := cp.CheckpointContext(ctx); err != nil {
				return nil, err
			}
		}
	}
	cp.Start()
	return cp, nil
}

func main() {
	// All real work happens in run so every failure — including the
	// final shutdown checkpoint — propagates as an error and a nonzero
	// exit, instead of being logged and dropped. The crash-test harness
	// keys on the marker line plus exit status to tell a clean shutdown
	// (everything durable) from a dirty one (recovery must replay).
	if err := run(); err != nil {
		log.Fatal(err)
	}
	log.Printf("symphonyd: clean shutdown")
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	seed := flag.Int64("seed", 1, "synthetic web seed")
	dataDir := flag.String("data-dir", "", "directory for store snapshots (empty = not durable)")
	checkpointEvery := flag.Duration("checkpoint-interval", 30*time.Second, "background checkpoint period with --data-dir")
	shards := flag.String("shards", "auto", "dataset index shard count: \"auto\" (one per CPU) or N")
	cacheMB := flag.Int("cache-mb", 64, "shared cross-request result cache size in MB (0 = disabled)")
	queryTimeout := flag.Duration("query-timeout", 2*time.Second, "per-query execution deadline (0 = unbounded)")
	tenantSlots := flag.Int("tenant-slots", 4, "concurrent queries allowed per tenant")
	tenantQueue := flag.Int("tenant-queue", 8, "queued queries allowed per tenant beyond the slots (0 = shed immediately)")
	retryAfter := flag.Int("retry-after", 1, "Retry-After seconds hint on shed (429) responses")
	walEnabled := flag.Bool("wal", true, "with --data-dir, layer a write-ahead log under the checkpoint cycle")
	fsync := flag.String("fsync", "group", "WAL fsync policy: always (fsync before every ack), group (batch commits), interval (periodic)")
	mmapMode := flag.String("mmap", "on", "boot from v3 snapshots as mmap'd views with copy-on-write materialization: on|off")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof on its own listener (empty = disabled)")
	flag.Parse()

	shardTarget, err := parseShards(*shards)
	if err != nil {
		return err
	}
	fsyncPolicy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		return err
	}
	var mmapOn bool
	switch *mmapMode {
	case "on":
		mmapOn = true
	case "off":
	default:
		return fmt.Errorf("symphonyd: --mmap must be \"on\" or \"off\", got %q", *mmapMode)
	}

	// pprof gets its own listener so profiling endpoints never share a
	// port (or an audience) with tenant traffic; off by default.
	if *pprofAddr != "" {
		go func() {
			log.Printf("symphonyd: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("symphonyd: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := "http://" + *addr
	p := core.New(core.Config{Seed: *seed, ClickBase: base + "/click", ShardTarget: shardTarget, CacheMB: *cacheMB})
	gq, err := demo.GamerQueen(p, *seed, 10)
	if err != nil {
		return err
	}
	defer gq.Close()
	if _, err := demo.WineFinder(p, *seed, 10); err != nil {
		return err
	}
	if _, err := demo.VideoStore(p, *seed, 10); err != nil {
		return err
	}

	// Durability: demo seeding above defines the apps; the data dir
	// holds the designers' data. Restoring after seeding replaces the
	// freshly seeded records with the persisted state, so uploads and
	// edits from before the restart survive it.
	var cp *core.Checkpointer
	if *dataDir != "" {
		cp, err = openDataDir(ctx, p, *dataDir, *checkpointEvery, mmapOn, *walEnabled, fsyncPolicy)
		if err != nil {
			return err
		}
	}

	// Admission control: per-tenant concurrency quotas with a bounded
	// deadline-aware wait queue. One hot tenant saturates its own
	// slots and queue; everyone else's latency is unaffected.
	admission := host.NewAdmissionController(host.AdmissionConfig{
		Slots:             *tenantSlots,
		Queue:             *tenantQueue,
		RetryAfterSeconds: *retryAfter,
	})

	// /statusz: operator view of every dataset's index layout (shard
	// count, ring generation, tombstone ratio, in-flight reshards)
	// plus the admission counters, refreshed per request so reshard
	// progress and load shedding are visible live.
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		target := "auto"
		if shardTarget > 0 {
			target = strconv.Itoa(shardTarget)
		}
		var cacheStats any
		if p.Cache != nil {
			cacheStats = p.Cache.Stats()
		}
		var walStats any
		if cp != nil && cp.WAL() != nil {
			walStats = cp.WAL().Stats()
		}
		// Aggregate mapped-vs-heap residency across datasets so the
		// zero-copy boot is observable: mappedBytes drains toward
		// materializedBytes as copy-on-write promotes what the
		// workload writes.
		datasets := p.Store.Status()
		var mappedBytes, materializedBytes int64
		for _, st := range datasets {
			mappedBytes += st.MappedBytes
			materializedBytes += st.MaterializedBytes
		}
		if err := enc.Encode(map[string]any{
			"mmap": map[string]any{
				"mode":              *mmapMode,
				"mappedBytes":       mappedBytes,
				"materializedBytes": materializedBytes,
			},
			"shardTarget":  target,
			"executor":     index.GetExecutorStats(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"datasets":     datasets,
			"admission":    admission.Stats(),
			"queryTimeout": queryTimeout.String(),
			"cache":        cacheStats,
			"wal":          walStats,
		}); err != nil {
			log.Printf("symphonyd: statusz: %v", err)
		}
	})
	mux.Handle("/", p.ServeWith(base, core.ServeOptions{
		QueryTimeout: *queryTimeout,
		Admission:    admission,
	}))
	srv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("symphonyd: hosting %v\n", p.Registry.List())
		fmt.Printf("symphonyd: try %s/query?app=gamerqueen&q=%s\n", base, "game")
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("symphonyd: shutting down")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("symphonyd: shutdown: %v", err)
	}
	if cp != nil {
		// The final checkpoint shares the shutdown grace period: if it
		// cannot finish in time it aborts and the previous checkpoint
		// (plus the WAL, which CloseContext syncs and closes) stays a
		// complete recovery point — but the failure must surface, not
		// be logged and dropped: the exit status is the crash tests'
		// contract for "everything on disk, no replay needed".
		if err := cp.CloseContext(shutdownCtx); err != nil {
			return fmt.Errorf("symphonyd: final checkpoint: %w", err)
		}
		log.Printf("symphonyd: final checkpoint written to %s", cp.Path())
	}
	return nil
}
