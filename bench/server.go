package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/host"
	"repro/internal/wal"
)

// The daemon's defaults (cmd/symphonyd flags), which the benchmark
// serves under.
const (
	// daemonSeed is the seed of the synthetic web and the demo
	// catalogs: the daemon's own state. The benchmark's seed drives only
	// what its clients send.
	daemonSeed    = 1
	daemonCacheMB = 64
	tenantSlots   = 4
	tenantQueue   = 8
	retryAfter    = 1
	queryTimeout  = 2 * time.Second
)

// server is a platform built, booted from a data dir and served the
// way cmd/symphonyd does it, on a loopback listener of this process.
type server struct {
	p         *core.Platform
	cp        *core.Checkpointer
	admission *host.AdmissionController
	handler   http.Handler
	base      string
	srv       *http.Server
	served    chan error
	pricing   *demo.Scenario

	// Boot stage timings, for a server started over an existing dir.
	restoreDur, replayDur time.Duration
	replayed              wal.ReplayStats

	mu          sync.Mutex
	checkpoints []time.Duration // completed, boot checkpoint excluded
}

// startServer follows symphonyd's run(): build the platform, seed the
// demo apps, restore the data dir, replay and attach the write-ahead
// log, then serve with admission control and the query deadline.
// cacheMB 0 builds the uncached twin the layer probes use.
func startServer(ctx context.Context, sp spec, dir string, cacheMB int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.p = core.New(core.Config{Seed: daemonSeed, ClickBase: s.base + "/click", CacheMB: cacheMB})
	fail := func(err error) (*server, error) {
		ln.Close()
		s.release()
		return nil, err
	}
	if sp.apps {
		if s.pricing, err = demo.GamerQueen(s.p, daemonSeed, demoCatalogRows); err != nil {
			return fail(err)
		}
		if _, err := demo.WineFinder(s.p, daemonSeed, demoCatalogRows); err != nil {
			return fail(err)
		}
		if _, err := demo.VideoStore(s.p, daemonSeed, demoCatalogRows); err != nil {
			return fail(err)
		}
	}
	// The bench starts checkpoints itself (checkpoint below) where the
	// daemon runs a ticker, so that it can time them and give each
	// round of the run the same ones.
	if s.cp, err = s.p.NewCheckpointer(dir, 0); err != nil {
		return fail(err)
	}
	s.cp.MMap = true
	t0 := time.Now()
	if _, err := s.cp.RestoreLatestContext(ctx); err != nil {
		return fail(err)
	}
	s.restoreDur = time.Since(t0)
	t0 = time.Now()
	if s.replayed, err = s.cp.EnableWALContext(ctx, wal.Options{Policy: wal.PolicyGroup}); err != nil {
		return fail(err)
	}
	s.replayDur = time.Since(t0)

	s.admission = host.NewAdmissionController(host.AdmissionConfig{
		Slots: tenantSlots, Queue: tenantQueue, RetryAfterSeconds: retryAfter,
	})
	s.handler = s.p.ServeWith(s.base, core.ServeOptions{QueryTimeout: queryTimeout, Admission: s.admission})
	s.srv = &http.Server{Handler: s.handler}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// checkpoint writes one snapshot and records how long it took.
func (s *server) checkpoint(ctx context.Context) error {
	t0 := time.Now()
	if err := s.cp.CheckpointContext(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	s.checkpoints = append(s.checkpoints, time.Since(t0))
	s.mu.Unlock()
	return nil
}

// stop ends serving the way a killed daemon does: no final
// checkpoint, so whatever was acknowledged after the last one is in
// the write-ahead log only.
func (s *server) stop() error {
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return errors.Join(err, s.release())
}

func (s *server) release() error {
	if s.pricing != nil {
		s.pricing.Close()
		s.pricing = nil
	}
	if s.cp != nil && s.cp.WAL() != nil {
		return s.cp.WAL().Close()
	}
	return nil
}

// catalogApps are the applications the designer publishes over the
// shop tenant: the visitors' catalog search, and one single-result
// lookup by SKU per dataset that the benchmark reads acknowledged rows
// back through. Search fields are explicit so that their order, and
// with it the score, does not depend on the inferred schema.
func catalogApps(sp spec) ([]*app.Application, error) {
	type def struct {
		id, dataset string
		max         int
		fields      []string
	}
	var defs []def
	if sp.itemRows > 0 {
		defs = append(defs, def{"catalog", "items", 10, []string{"title", "description"}})
	}
	for _, dataset := range datasets(sp) {
		defs = append(defs, def{"lookup-" + dataset, dataset, 1, []string{"sku"}})
	}
	var out []*app.Application
	for _, d := range defs {
		a, err := app.NewDesigner(d.id, d.id, catalogOwner, catalogTenant).
			DropPrimary(app.SourceConfig{ID: d.dataset, Kind: app.KindProprietary, Dataset: d.dataset, MaxResults: d.max}).
			SetSearchFields(d.dataset, d.fields...).
			UseTemplate(d.dataset, "title-link", map[string]string{"title": "title", "url": "url"}).
			Build()
		if err != nil {
			return nil, fmt.Errorf("app %s: %w", d.id, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// datasets are the shop tenant's: the catalog, where the workload has
// one; bulk, which takes the log-only rows where it has none; and one
// dataset per round for the designer's uploads, so that every round
// loads into the same, empty, state.
func datasets(sp spec) []string {
	out := []string{"bulk"}
	if sp.itemRows > 0 {
		out = append(out, "items")
	}
	for r := 0; r < rounds; r++ {
		out = append(out, roundDataset(r))
	}
	return out
}

func roundDataset(r int) string { return fmt.Sprintf("bulk%d", r+1) }
