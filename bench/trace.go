package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/render"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

// span is one timed call into a layer. Spans of one replayed request
// share req; parent is the span that caused this one (0 for a
// request's root). Counts are read at the span's boundaries.
type span struct {
	Req     int                `json:"req"`
	Span    int                `json:"span"`
	Parent  int                `json:"parent"`
	Layer   string             `json:"layer"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// call times f as a span and returns its id and duration in µs.
func (r *recorder) call(req, parent int, layer string, f func()) (int, float64) {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Req: req, Span: id, Parent: parent, Layer: layer, StartNs: r.now()})
	f()
	s := &r.spans[id-1]
	s.EndNs = r.now()
	return id, float64(s.EndNs-s.StartNs) / 1e3
}

// add records a span whose time was taken elsewhere (a runtime.Trace
// stage, a child's boot stage), starting at start.
func (r *recorder) add(req, parent int, layer string, start int64, d time.Duration, counts map[string]float64) int64 {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Req: req, Span: id, Parent: parent, Layer: layer, StartNs: start, EndNs: start + int64(d), Counts: counts})
	return start + int64(d)
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series collects one value per replayed request under metric names.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// processCounters are read before and after the loaded phases.
type processCounters struct {
	mem    goruntime.MemStats
	cpu    time.Duration
	exec   index.ExecutorStats
	cache  index.CacheStats
	queued int64
	shed   int64
}

func readCounters(pl *platform) processCounters {
	var c processCounters
	goruntime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.exec = index.GetExecutorStats()
	c.cache = pl.p.Cache.Stats()
	adm := pl.admission.Stats()
	c.queued, c.shed = adm.Queued, adm.Shed
	return c
}

// probe holds what the layer calls of the traced replay run against:
// the served platform, its uncached twin with the same data, and one
// bare index per dataset built from the twin's rows.
type probe struct {
	ctx     context.Context
	served  *platform
	twin    *platform
	mirrors map[string]*index.Index
	pricing *httptest.Server
	titles  []string // game entities, for the engine and pricing probes
	rec     *recorder
	vals    series
}

// mirror returns a bare index over the twin dataset's rows, with the
// field options the store gives its own.
func (pr *probe) mirror(ds *store.Dataset, key string) (*index.Index, error) {
	if ix, ok := pr.mirrors[key]; ok {
		return ix, nil
	}
	ix := newMirror(ds.Schema())
	recs := ds.List(0, ds.Len())
	if err := ix.AddBatchContext(pr.ctx, mirrorDocs(ds.Schema(), recs)); err != nil {
		return nil, err
	}
	pr.mirrors[key] = ix
	return ix, nil
}

func newMirror(sch store.Schema) *index.Index {
	ix := index.New()
	for _, f := range sch.Fields {
		if f.Searchable {
			boost := 1.0
			if f.Name == "title" || f.Name == sch.Key {
				boost = 2
			}
			ix.SetFieldOptions(f.Name, index.FieldOptions{Boost: boost})
		}
	}
	return ix
}

// mirrorDocs projects records the way the store's docFor does.
func mirrorDocs(sch store.Schema, recs []store.Record) []index.Document {
	docs := make([]index.Document, len(recs))
	for i, rec := range recs {
		fields := make(map[string]string)
		stored := make(map[string]string, len(rec))
		for _, f := range sch.Fields {
			v := rec[f.Name]
			stored[f.Name] = v
			if f.Searchable && v != "" {
				fields[f.Name] = v
			}
		}
		id := rec["_id"]
		if sch.Key != "" {
			id = rec[sch.Key]
		}
		docs[i] = index.Document{ID: id, Fields: fields, Stored: stored}
	}
	return docs
}

// request replays one visitor request: over the socket first, then
// into each layer's entry point from the outermost in, on the state
// the socket call left warm. Each call is a span under the request's
// root.
func (pr *probe) request(req int, path string, v *visitor) error {
	u, err := urlQuery(path)
	if err != nil {
		return err
	}
	a, ok := pr.served.p.Registry.Get(u.Get("app"))
	if !ok {
		return fmt.Errorf("replay: %s is not published", u.Get("app"))
	}
	q := runtime.Query{Text: u.Get("q")}
	sc := &a.Primary[0]
	rec, vals := pr.rec, pr.vals
	root, _ := rec.call(req, 0, "request", func() {})
	defer func() { rec.spans[root-1].EndNs = rec.now() }()

	var callErr error
	_, socket := rec.call(req, root, "host.socket", func() { _, callErr = v.get(path) })
	if callErr != nil {
		return callErr
	}
	vals.add("socket_us", socket)

	w := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodGet, path, nil)
	_, handler := rec.call(req, root, "host.handler", func() { pr.served.handler.ServeHTTP(w, hreq) })
	if w.Code != http.StatusOK {
		return fmt.Errorf("replay: handler answered %s with %d", path, w.Code)
	}
	vals.add("host.handler_us", handler)
	vals.add("host.net_overhead_us", socket-handler)

	tenant := a.Tenant
	if tenant == "" {
		tenant = a.ID
	}
	_, admit := rec.call(req, root, "host.admit", func() {
		var release func()
		if release, callErr = pr.served.admission.Acquire(pr.ctx, tenant); callErr == nil {
			release()
		}
	})
	if callErr != nil {
		return callErr
	}
	vals.add("host.admit_us", admit)

	var resp *runtime.Response
	execID, execute := rec.call(req, root, "runtime.execute", func() {
		resp, callErr = pr.served.p.Executor.Execute(pr.ctx, a, q)
	})
	if callErr != nil {
		return callErr
	}
	vals.add("runtime.execute_us", execute)
	vals.add("host.self_us", handler-execute)
	// The executor's own stage clock: stages are laid end to end from
	// the start of the execute span.
	var stage = map[string]float64{}
	var suppQueries float64
	at := rec.spans[execID-1].StartNs
	for _, st := range resp.Trace.Stages {
		kind, _, _ := strings.Cut(st.Name, ":")
		stage[kind] += float64(st.Duration) / 1e3
		var counts map[string]float64
		if kind == "supplemental" {
			suppQueries += float64(st.Items)
			counts = map[string]float64{"queries": float64(st.Items)}
		}
		at = rec.add(req, execID, "runtime."+kind, at, st.Duration, counts)
	}
	vals.add("runtime.primary_us", stage["primary"])
	vals.add("runtime.render_us", stage["render"])
	vals.add("runtime.format_us", stage["format"])
	vals.add("runtime.supplemental_pct", 100*stage["supplemental"]/execute)
	vals.add("runtime.self_us", execute-stage["primary"]-stage["supplemental"]-stage["render"]-stage["format"])
	vals.add("runtime.supplemental_queries_per_req", suppQueries)

	items := resp.Blocks[0].Items
	renderer := &render.Renderer{Stylesheet: a.Stylesheet, ClickBase: pr.served.base + "/click", AppID: a.ID}
	_, list := rec.call(req, root, "render.list", func() {
		render.Page(a.ID, []string{renderer.List(sc.Layout, items, nil)})
	})
	vals.add("render.list_us", list)

	// The supplemental the demo apps lean on hardest: a site-restricted
	// "{title} review" web search, cached and not, and a pricing call.
	title := pr.titles[req%len(pr.titles)]
	ereq := engine.Request{Query: title + " review", Sites: []string{"gamespot.com", "ign.com", "teamxbox.com"}, Limit: 3}
	for _, e := range []struct {
		name string
		eng  *engine.Engine
	}{{"engine.query", pr.served.p.Engine}, {"engine.query_nocache", pr.twin.p.Engine}} {
		_, d := rec.call(req, root, e.name, func() { _, callErr = e.eng.Query(pr.ctx, ereq) })
		if callErr != nil {
			return callErr
		}
		vals.add(e.name+"_us", d)
	}
	def := webservice.Definition{Name: "pricing", Endpoint: pr.pricing.URL + "/price", Params: map[string]string{"title": "{title}"}}
	_, call := rec.call(req, root, "webservice.call", func() {
		_, callErr = pr.served.p.Services.Call(pr.ctx, def, map[string]string{"title": title})
	})
	if callErr != nil {
		return callErr
	}
	vals.add("webservice.call_us", call)

	// The proprietary source's path, on the uncached twin so that the
	// store's time and the index's are of the same evaluation.
	ds, err := pr.twin.p.Store.DatasetContext(pr.ctx, a.Tenant, a.Owner, sc.Dataset, store.PermRead)
	if err != nil {
		return err
	}
	sreq := store.SearchRequest{Query: q.Text, Fields: sc.SearchFields, Filters: sc.Filters, OrderBy: sc.OrderBy, Limit: sc.MaxResults}
	var hits []store.Hit
	storeID, search := rec.call(req, root, "store.search", func() { hits, callErr = ds.SearchContext(pr.ctx, sreq) })
	if callErr != nil {
		return callErr
	}
	vals.add("store.search_us", search)
	all := sreq
	all.Limit = 0
	examined, err := ds.SearchContext(pr.ctx, all)
	if err != nil {
		return err
	}
	if len(hits) > 0 {
		vals.add("store.hits_examined_per_result", float64(len(examined))/float64(len(hits)))
	}

	ix, err := pr.mirror(ds, a.Tenant+"/"+sc.Dataset)
	if err != nil {
		return err
	}
	mq := index.MatchQuery{Fields: sc.SearchFields, Text: q.Text}
	_, nolimit := rec.call(req, storeID, "index.search_nolimit", func() {
		_, callErr = ix.SearchContext(pr.ctx, mq, index.SearchOptions{})
	})
	if callErr != nil {
		return callErr
	}
	vals.add("index.search_nolimit_us", nolimit)
	vals.add("store.self_us", search-nolimit)

	var m0, m1 goruntime.MemStats
	scan0 := ix.ScanStats()
	goruntime.ReadMemStats(&m0)
	topID, top := rec.call(req, root, "index.search_top10", func() {
		_, callErr = ix.SearchContext(pr.ctx, mq, index.SearchOptions{Limit: sc.MaxResults})
	})
	goruntime.ReadMemStats(&m1)
	scan1 := ix.ScanStats()
	if callErr != nil {
		return callErr
	}
	scored, skipped := float64(scan1.Scored-scan0.Scored), float64(scan1.Skipped-scan0.Skipped)
	allocs := float64(m1.Mallocs - m0.Mallocs)
	rec.spans[topID-1].Counts = map[string]float64{"postings_scored": scored, "postings_skipped": skipped, "allocs": allocs}
	vals.add("index.search_top10_us", top)
	vals.add("index.postings_scored_per_query", scored)
	vals.add("index.postings_skipped_per_query", skipped)
	vals.add("index.allocs_per_search", allocs)
	return nil
}

// ingestProbes times the write path layer by layer: five new batches
// through the served platform's uploader, the twin's dataset and a
// bare index, and single appends to a scratch log under group commit.
func (pr *probe) ingestProbes(b *bench) error {
	const batches, appends = 5, 200
	w := b.in.words(streamReplay)
	opts := ingest.Options{Tenant: catalogTenant, Actor: catalogOwner, Dataset: "bulk", Format: ingest.FormatCSV, KeyField: "sku"}
	// The twin has no bulk dataset yet; its first batch creates it.
	body, _ := w.batch("Q", 0, batchRows)
	if _, err := pr.twin.p.Uploader.Upload(opts, strings.NewReader(body)); err != nil {
		return err
	}
	ds, err := pr.twin.p.Store.DatasetContext(pr.ctx, catalogTenant, catalogOwner, "bulk", store.PermWrite)
	if err != nil {
		return err
	}
	ix := newMirror(ds.Schema())
	for i := 1; i <= batches; i++ {
		body, rows := w.batch("Q", i*batchRows, batchRows)
		req := -i
		root, _ := pr.rec.call(req, 0, "upload", func() {})
		var callErr error
		upID, upload := pr.rec.call(req, root, "ingest.upload", func() {
			_, callErr = pr.served.p.Uploader.Upload(opts, strings.NewReader(body))
		})
		if !b.total.note(callErr) {
			return callErr
		}
		// Parsing is what the uploader does itself before it hands the
		// records to the store.
		var recs []store.Record
		_, parse := pr.rec.call(req, upID, "ingest.parse", func() {
			recs, callErr = ingest.Parse(ingest.FormatCSV, strings.NewReader(body))
		})
		if callErr != nil {
			return callErr
		}
		docs := mirrorDocs(ds.Schema(), recs)
		addID, addbatch := pr.rec.call(req, upID, "store.addbatch", func() { _, callErr = ds.AddBatchContext(pr.ctx, recs) })
		if callErr != nil {
			return callErr
		}
		_, ixadd := pr.rec.call(req, addID, "index.addbatch", func() { callErr = ix.AddBatchContext(pr.ctx, docs) })
		if callErr != nil {
			return callErr
		}
		pr.rec.spans[root-1].EndNs = pr.rec.now()
		pr.vals.add("ingest.upload_ms", upload/1e3)
		pr.vals.add("ingest.self_ms", parse/1e3)
		pr.vals.add("store.addbatch_ms", addbatch/1e3)
		pr.vals.add("index.addbatch_ms", ixadd/1e3)
		for _, r := range rows {
			pr.served.d.acked["bulk/"+r.sku] = r.title
		}
	}

	log, err := wal.Open(filepath.Join(b.workDir, "scratch-wal"), wal.Options{Policy: wal.PolicyGroup})
	if err != nil {
		return err
	}
	defer log.Close()
	for i := 0; i < appends; i++ {
		r := &wal.Record{Op: wal.OpPut, Tenant: catalogTenant, Dataset: "bulk", ID: fmt.Sprint(i), Rec: map[string]string{"title": w.phrase(titleTokens)}}
		var callErr error
		_, d := pr.rec.call(0, 0, "wal.append_wait", func() { callErr = log.Append(r).Wait(pr.ctx) })
		if callErr != nil {
			return callErr
		}
		pr.vals.add("wal.append_wait_us", d)
	}
	return nil
}

// perLayer is the traced run. A shortened load gives the counters
// that only mean something under load; the replay then calls every
// layer for each of a fixed sequence of requests with one client.
func (b *bench) perLayer(ctx context.Context, tracePath string) (map[string]float64, map[string]int, error) {
	served, err := b.setUp(ctx, "served", daemonCacheMB)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer served.discard()
	twin, err := b.setUp(ctx, "twin", 0)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up of the uncached twin: %w", err)
	}
	defer twin.discard()
	b.checkDigest("replay", b.replayDigest(ctx, served))

	// The operator's phase first, as in the untraced run.
	b.warmUp(ctx, served)
	if err := b.crash(ctx, served); err != nil {
		return nil, nil, err
	}
	snap, err := os.Stat(served.cp.Path())
	if err != nil {
		return nil, nil, err
	}
	boots, err := b.restarts(ctx, served, 0)
	if err != nil {
		return nil, nil, err
	}

	// Half of the run under load, for the counters that mean something
	// only there; the replay has the rest.
	b.seconds /= 2
	before := readCounters(served)
	// An overlap workload keeps its designer beside the visitors here
	// too; elsewhere the write path is left to the probes below.
	rs, err := b.measure(ctx, served, b.sp.overlap)
	after := readCounters(served)
	if err != nil {
		return nil, nil, err
	}
	var ld round // the rounds pooled
	for i := range rs {
		ld.paced.merge(rs[i].paced.latencies)
		ld.paced.lateMs = append(ld.paced.lateMs, rs[i].paced.lateMs...)
		ld.paced.backlogMax = max(ld.paced.backlogMax, rs[i].paced.backlogMax)
		ld.paced.backlogEnd += rs[i].paced.backlogEnd
		ld.sat.merge(rs[i].sat)
	}
	requests := float64(ld.paced.attempted + ld.sat.attempted)
	sort.Float64s(ld.paced.lateMs)
	values := map[string]float64{
		"host.admission_queued":       float64(after.queued - before.queued),
		"host.admission_shed":         float64(after.shed - before.shed),
		"index.exec_parallel_share":   share(after.exec.Parallel-before.exec.Parallel, after.exec.Inline-before.exec.Inline),
		"index.exec_stolen_per_query": float64(after.exec.Stolen-before.exec.Stolen) / requests,
		"index.cache_hit_ratio":       share(after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses) / 100,
		"index.cache_evictions":       float64(after.cache.Evicted - before.cache.Evicted),
		"process.cpu_ms_per_req":      ms(after.cpu-before.cpu) / requests,
		"process.allocs_per_req":      float64(after.mem.Mallocs-before.mem.Mallocs) / requests,
		"process.alloc_kb_per_req":    float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / requests,
		"process.gc_cycles":           float64(after.mem.NumGC - before.mem.NumGC),
		"process.gc_pause_ms_total":   float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		"process.goroutines_end":      float64(goruntime.NumGoroutine()),
		"analytics.events_end":        float64(served.p.Log.Len()),
		"loadgen.sent":                requests,
		"loadgen.paced_p99_ms":        percentile(ld.paced.sorted(), 99),
		"loadgen.sat_p99_ms":          percentile(ld.sat.sorted(), 99),
		"loadgen.late_p99_ms":         percentile(ld.paced.lateMs, 99),
		"loadgen.backlog_max":         float64(ld.paced.backlogMax),
		"loadgen.backlog_end":         float64(ld.paced.backlogEnd),
	}
	samples := map[string]int{
		"loadgen.late_p99_ms":  len(ld.paced.lateMs),
		"loadgen.paced_p99_ms": len(ld.paced.ms),
		"loadgen.sat_p99_ms":   len(ld.sat.ms),
	}

	titles := webcorpus.Entities(webcorpus.Config{Seed: daemonSeed}, webcorpus.TopicGames)
	pricing := httptest.NewServer(webservice.NewPricingService(daemonSeed, titles))
	defer pricing.Close()
	pr := &probe{
		ctx: ctx, served: served, twin: twin, mirrors: make(map[string]*index.Index),
		pricing: pricing, titles: titles,
		rec: &recorder{t0: time.Now()}, vals: make(series),
	}

	// The same sequence three times with one client: once to leave the
	// state as warm as the platform keeps it, then over the socket
	// only, then traced. The difference between the last two is what
	// tracing costs a request.
	paths := b.in.paths(streamReplay, b.sp.replay)
	v := visitor{hc: newHTTPClient(1), base: served.base}
	defer v.hc.CloseIdleConnections()
	var untraced []float64
	for pass := 0; pass < 2; pass++ {
		untraced = untraced[:0]
		for _, path := range paths {
			t0 := time.Now()
			_, err := v.get(path)
			if b.total.note(err) {
				untraced = append(untraced, float64(time.Since(t0))/1e3)
			}
		}
	}
	for i, path := range paths {
		if !b.total.note(pr.request(i+1, path, &v)) {
			return nil, nil, fmt.Errorf("traced replay: %s", b.total.errs[len(b.total.errs)-1])
		}
	}

	if err := pr.ingestProbes(b); err != nil {
		return nil, nil, err
	}
	b.readBack(served)
	b.total.add(served.d.tally)
	at := pr.rec.now()
	for i, r := range boots {
		req := -100 - i
		root := len(pr.rec.spans) + 1
		start := at
		pr.rec.add(req, 0, "boot", start, 0, nil)
		at = pr.rec.add(req, root, "core.restore", at, time.Duration(r.RestoreMs*1e6), nil)
		at = pr.rec.add(req, root, "core.wal_replay", at, time.Duration(r.ReplayMs*1e6), map[string]float64{"records": float64(r.ReplayRecords)})
		at = pr.rec.add(req, root, "core.first_query", at, time.Duration(r.FirstQueryMs*1e6), nil)
		pr.rec.spans[root-1].EndNs = at
		pr.vals.add("core.restore_ms", r.RestoreMs)
		pr.vals.add("core.wal_replay_ms", r.ReplayMs)
		pr.vals.add("core.wal_replay_records", float64(r.ReplayRecords))
		pr.vals.add("core.first_query_ms", r.FirstQueryMs)
		pr.vals.add("store.mapped_bytes", float64(r.MappedBytes))
		pr.vals.add("store.materialized_bytes", float64(r.MaterializedBytes))
	}
	for _, d := range served.checkpoints {
		pr.vals.add("core.checkpoint_ms", ms(d))
	}

	socket := median(pr.vals["socket_us"])
	delete(pr.vals, "socket_us")
	for name, vs := range pr.vals {
		values[name] = median(vs)
		samples[name] = len(vs)
	}
	values["loadgen.trace_overhead_pct"] = 100 * (socket - median(untraced)) / median(untraced)
	ws := served.cp.WAL().Stats()
	values["wal.appends"] = float64(ws.Appends)
	values["wal.fsyncs"] = float64(ws.Fsyncs)
	values["wal.records_per_fsync"] = float64(ws.Appends) / float64(ws.Fsyncs)
	values["wal.bytes_appended"] = float64(ws.BytesAppended)
	values["process.rss_peak_mb"] = float64(procStatusKB("VmHWM")) / 1024
	values["core.checkpoint_bytes"] = float64(snap.Size())
	values["core.checkpoints_completed"] = float64(len(served.checkpoints))
	values["index.tombstone_ratio_end"], err = b.tombstones(ctx, served)
	if err != nil {
		return nil, nil, err
	}
	return values, samples, pr.rec.write(tracePath)
}

// tombstones is the tombstone ratio of the dataset the visitors
// search, at the end of the run.
func (b *bench) tombstones(ctx context.Context, pl *platform) (float64, error) {
	tenant, owner, dataset := catalogTenant, catalogOwner, "items"
	if b.sp.apps {
		tenant, owner, dataset = "gamerqueen", "ann", "inventory"
	}
	ds, err := pl.p.Store.DatasetContext(ctx, tenant, owner, dataset, store.PermRead)
	if err != nil {
		return 0, err
	}
	return ds.TombstoneRatio(), nil
}

// share is a's percentage of a+b.
func share(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(a+b)
}
