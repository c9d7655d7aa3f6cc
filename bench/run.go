package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/runtime"
)

// The platform is set up from nothing at least minSetups times in one
// run, and up to maxSetups while that takes less than setupBudget in
// all; setup_s is the median, and the last one is served.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 1500 * time.Millisecond
)

// inputs generates a run's traffic from its seed.
type inputs struct {
	sp    spec
	seed  int64
	vocab []string
	pools *[3][]string // demo app query texts, apps workloads only
}

func newInputs(sp spec, seed int64) *inputs {
	in := &inputs{sp: sp, seed: seed, vocab: vocabulary(seed)}
	if sp.apps {
		in.pools = appPools()
	}
	return in
}

func (in *inputs) words(stream int) *words { return newWords(in.vocab, in.seed, stream) }

// queries returns the visitor traffic of one client of one phase.
func (in *inputs) queries(stream, client int) queries {
	id := stream + 64*client
	if in.sp.apps {
		return &appQueries{rng: streamRNG(in.seed, id), pools: in.pools}
	}
	return catalogQueries{in.words(id)}
}

func (in *inputs) sources(stream, n int) []queries {
	out := make([]queries, n)
	for i := range out {
		out[i] = in.queries(stream, i)
	}
	return out
}

func (in *inputs) paths(stream, n int) []string {
	q := in.queries(stream, 0)
	out := make([]string, n)
	for i := range out {
		out[i] = q.next()
	}
	return out
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    int64
	seconds float64
	smoke   bool
	workDir string
	self    string // this executable, for child boots
	in      *inputs
	golden  goldenFile

	total  tally
	checks map[string]string // named output checks and what they found
}

// platform is a served platform with its designer and data dir.
type platform struct {
	*server
	d   *designer
	dir string
}

// setUp builds and serves a platform over an empty data dir, then
// does the designer's part over the admin API: load the catalog and
// publish the applications.
func (b *bench) setUp(ctx context.Context, name string, cacheMB int) (*platform, error) {
	dir := filepath.Join(b.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, err := startServer(ctx, b.sp, dir, cacheMB)
	if err != nil {
		return nil, err
	}
	pl := &platform{server: s, d: newDesigner(s.base), dir: dir}
	if err := b.design(pl); err != nil {
		pl.discard()
		return nil, err
	}
	return pl, nil
}

func (b *bench) design(pl *platform) error {
	// Accounts are created by the operator, in process, as symphonyd
	// creates the demo designers; after the log is attached, so that a
	// restart finds the tenant.
	if err := pl.p.RegisterDesigner(catalogOwner, catalogTenant); err != nil {
		return err
	}
	w := b.in.words(streamItems)
	for from := 0; from < b.sp.itemRows; from += batchRows {
		body, rows := w.batch("S", from, min(batchRows, b.sp.itemRows-from))
		if err := pl.d.upload("items", body, rows); err != nil {
			return err
		}
	}
	apps, err := catalogApps(b.sp)
	if err != nil {
		return err
	}
	for _, a := range apps {
		body, err := json.Marshal(a)
		if err != nil {
			return err
		}
		_, err = pl.d.post("/admin/publish", "application/json", string(body))
		if !pl.d.note(err) {
			return err
		}
	}
	return nil
}

func (pl *platform) discard() {
	pl.stop()
	os.RemoveAll(pl.dir)
}

// visitors is the number of visitor clients: every CPU, less one for
// the designer where she works beside them.
func (b *bench) visitors() int {
	if b.sp.overlap && clients() > 1 {
		return clients() - 1
	}
	return clients()
}

// rounds is how many rounds the measured phases are cut into. Each
// metric is the median over the rounds, so a disturbance shorter than
// two rounds — a neighbour on the host, a long collection — does not
// move it.
const rounds = 5

// round is one round's slice of each measured phase.
type round struct {
	paced  paced
	sat    latencies
	upload uploads
}

// timed runs f under a context that ends after a share of the run.
func (b *bench) timed(ctx context.Context, share float64, f func(context.Context)) {
	pctx, cancel := context.WithTimeout(ctx, phase(b.seconds, share))
	defer cancel()
	f(pctx)
}

// warmUp sends closed-loop traffic for the warm-up share of the run,
// unmeasured: caches fill and lazy set-up finishes.
func (b *bench) warmUp(ctx context.Context, pl *platform) {
	n := b.visitors()
	hc := newHTTPClient(n)
	defer hc.CloseIdleConnections()
	b.timed(ctx, b.sp.warm, func(ctx context.Context) {
		warm := runClosed(ctx, hc, pl.base, b.in.sources(streamWarm, n))
		b.total.add(warm.tally)
	})
}

// measure runs the visitors' and the designer's phases in rounds. A
// round is a slice of each: paced (open loop at the frozen rate), sat
// (closed loop, no think time) and, if withUploads, new 1 000-row
// batches back to back into a dataset of the round's own. On an overlap workload
// the designer also rewrites rows beside the paced and sat slices, one
// visitor keeps querying beside the upload slice, and a checkpoint
// starts with every upload slice: where the daemon has a ticker the
// rounds have a fixed place, so that every round carries the same
// background work, and a checkpoint, which takes a good part of a
// slice, never lands on the edge of the visitors' median.
func (b *bench) measure(ctx context.Context, pl *platform, withUploads bool) ([]round, error) {
	n := b.visitors()
	hc := newHTTPClient(n)
	defer hc.CloseIdleConnections()
	var (
		pacedPaths = b.in.queries(streamPaced, 0)
		pacedDue   = streamRNG(b.seed, streamSchedule)
		satSources = b.in.sources(streamSat, n)
		reader     = b.in.sources(streamReader, 1)
		writer     = b.in.words(streamWriter)
		bulk       = b.in.words(streamBulk)
		requests   = int(b.sp.pacedRPS * b.seconds * b.sp.paced / rounds)
		ckErr      error
	)
	// beside runs f with, on an overlap workload, g beside it; g's
	// context ends when f is done.
	beside := func(g func(context.Context), f func()) {
		if !b.sp.overlap {
			f()
			return
		}
		gctx, stop := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			g(gctx)
		}()
		f()
		stop()
		<-done
	}
	rewrite := func(ctx context.Context) { pl.d.rewritePaced(ctx, writer, b.sp.itemRows) }
	// A checkpoint is not cut short when its slice ends before it.
	checkpoint := func(context.Context) {
		if err := pl.checkpoint(ctx); err != nil {
			ckErr = err
		}
	}

	out := make([]round, rounds)
	for i := range out {
		r := &out[i]
		paths := make([]string, requests)
		for j := range paths {
			paths[j] = pacedPaths.next()
		}
		beside(rewrite, func() {
			r.paced = runPaced(hc, pl.base, paths, schedule(pacedDue, b.sp.pacedRPS, requests), n)
		})
		b.total.add(r.paced.tally)
		beside(rewrite, func() {
			b.timed(ctx, b.sp.sat/rounds, func(ctx context.Context) {
				r.sat = runClosed(ctx, hc, pl.base, satSources)
			})
		})
		b.total.add(r.sat.tally)
		if !withUploads {
			continue
		}
		beside(checkpoint, func() {
			b.timed(ctx, b.sp.upload/rounds, func(ctx context.Context) {
				var read latencies
				beside(func(ctx context.Context) { read = runClosed(ctx, hc, pl.base, reader) }, func() {
					r.upload = pl.d.uploadClosed(ctx, bulk, roundDataset(i))
				})
				b.total.add(read.tally)
			})
		})
	}
	return out, ckErr
}

// overRounds is the median over the rounds of f's value for each.
func overRounds(rs []round, f func(*round) float64) float64 {
	vs := make([]float64, len(rs))
	for i := range rs {
		vs[i] = f(&rs[i])
	}
	return median(vs)
}

// crash leaves the data dir as a daemon killed after a quiet spell
// would: two checkpoints (log truncation lags one checkpoint behind,
// so the second is what trims the load's history from the log), then
// tailRows more rows that are acknowledged and in the log only.
func (b *bench) crash(ctx context.Context, pl *platform) error {
	for i := 0; i < 2; i++ {
		if err := pl.checkpoint(ctx); err != nil {
			return err
		}
	}
	w := b.in.words(streamTail)
	for from := 0; from < b.sp.tailRows; from += batchRows {
		body, rows := w.batch("T", from, min(batchRows, b.sp.tailRows-from))
		if err := pl.d.upload(b.sp.tailDataset(), body, rows); err != nil {
			return err
		}
	}
	return nil
}

// readBack looks up to 100 acknowledged SKUs up through the lookup
// applications and checks that each answers with the title of its
// last acknowledged upload.
func (b *bench) readBack(pl *platform) {
	keys := make([]string, 0, len(pl.d.acked))
	for k := range pl.d.acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := streamRNG(b.seed, streamGolden)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(100, len(keys))]
	v := visitor{hc: newHTTPClient(1), base: pl.base}
	defer v.hc.CloseIdleConnections()
	missed := 0
	for _, k := range keys {
		dataset, sku, _ := strings.Cut(k, "/")
		err := lookUp(&v, dataset, sku, pl.d.acked[k])
		if !b.total.note(err) {
			missed++
		}
	}
	b.checks["readback"] = fmt.Sprintf("%d of %d acknowledged SKUs returned their last acknowledged title", len(keys)-missed, len(keys))
}

func lookUp(v *visitor, dataset, sku, title string) error {
	body, err := v.get("/query?app=lookup-" + dataset + "&q=" + sku)
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), ">"+title+"<") || !strings.Contains(string(body), "items%2F"+sku) {
		return fmt.Errorf("lookup of %s/%s does not show title %q", dataset, sku, title)
	}
	return nil
}

// replayDigest sends the seed's fixed query sequence with one client
// and returns the SHA-256 of the bodies, with this run's listener
// address taken out. For the demo apps, whose pricing fields are live,
// it compares structure instead: the socket's answer must hold as
// many supplemental blocks as executing the query in process gives.
func (b *bench) replayDigest(ctx context.Context, pl *platform) string {
	v := visitor{hc: newHTTPClient(1), base: pl.base}
	defer v.hc.CloseIdleConnections()
	h := sha256.New()
	for _, path := range b.in.paths(streamGolden, goldenQueries) {
		body, err := v.get(path)
		if err == nil && b.sp.apps {
			err = b.sameShape(ctx, pl, path, string(body))
		}
		if !b.total.note(err) {
			continue
		}
		hashBody(h, path, body, pl.base)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashBody adds one answer to a digest, with the run's listener
// address, which click links carry, taken out.
func hashBody(h hash.Hash, path string, body []byte, base string) {
	fmt.Fprintf(h, "%s %d\n", path, len(body))
	h.Write([]byte(strings.ReplaceAll(string(body), base, "http://symphony.bench")))
}

func (b *bench) sameShape(ctx context.Context, pl *platform, path, body string) error {
	if strings.HasSuffix(path, "&format=json") {
		return nil // checked by get: one escaped source block
	}
	u, err := urlQuery(path)
	if err != nil {
		return err
	}
	resp, err := pl.p.Query(ctx, u.Get("app"), runtime.Query{Text: u.Get("q")})
	if err != nil {
		return err
	}
	const block = `class="sym-supplemental"`
	if got, want := strings.Count(body, block), strings.Count(resp.HTML, block); got != want {
		return fmt.Errorf("GET %s: %d supplemental blocks, %d when executed in process", path, got, want)
	}
	return nil
}

// dirBytes is the size of every file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// endToEnd is the untraced run: what the visitor, the designer and
// the operator see.
func (b *bench) endToEnd(ctx context.Context) (map[string]float64, map[string]int, error) {
	var setups []float64
	var pl *platform
	for start := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(start) < setupBudget); {
		if pl != nil {
			pl.discard()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if pl, err = b.setUp(ctx, "served", daemonCacheMB); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer pl.discard()

	b.checkDigest("replay", b.replayDigest(ctx, pl))
	b.warmUp(ctx, pl)
	// The operator's phase comes before the others so that what is
	// restored, and what the platform holds when its memory is read,
	// does not depend on how much got done in the timed phases.
	if err := b.crash(ctx, pl); err != nil {
		return nil, nil, err
	}
	boots, err := b.restarts(ctx, pl, phase(b.seconds, b.sp.restart))
	if err != nil {
		return nil, nil, err
	}
	debug.FreeOSMemory()
	rssServing := procStatusKB("VmRSS")

	rs, err := b.measure(ctx, pl, true)
	if err != nil {
		return nil, nil, err
	}
	// Two checkpoints, so that both snapshots on disk hold everything
	// and the log is trimmed, whatever the phases' own checkpoints did.
	for i := 0; i < 2; i++ {
		if err := pl.checkpoint(ctx); err != nil {
			return nil, nil, err
		}
	}
	disk, err := dirBytes(pl.dir)
	if err != nil {
		return nil, nil, err
	}
	b.readBack(pl)
	b.total.add(pl.d.tally)

	var first200, rss []float64
	for _, r := range boots {
		first200 = append(first200, r.BootToFirst200Ms)
		rss = append(rss, float64(r.RSSAfterBurstKB)/1024)
	}
	values := map[string]float64{
		"setup_s":      median(setups),
		"paced_p50_ms": overRounds(rs, func(r *round) float64 { return percentile(r.paced.sorted(), 50) }),
		"sat_qps":      overRounds(rs, func(r *round) float64 { return float64(len(r.sat.ms)) / r.sat.elapsed.Seconds() }),
		"sat_p95_ms":   overRounds(rs, func(r *round) float64 { return percentile(r.sat.sorted(), 95) }),
		"upload_docs_per_s": overRounds(rs, func(r *round) float64 {
			return float64(r.upload.rows) / r.upload.elapsed.Seconds()
		}),
		"upload_ack_p50_ms":        overRounds(rs, func(r *round) float64 { return median(r.upload.ackMs) }),
		"disk_bytes_per_user_byte": float64(disk) / float64(pl.d.csvBytes),
		"boot_to_first_200_ms":     median(first200),
		"rss_after_burst_mb":       median(rss),
		"rss_serving_mb":           float64(rssServing) / 1024,
	}
	var nPaced, nSat, nAcks, nRows, backlogEnd int
	for i := range rs {
		nPaced += len(rs[i].paced.ms)
		nSat += len(rs[i].sat.ms)
		nAcks += len(rs[i].upload.ackMs)
		nRows += rs[i].upload.rows
		backlogEnd += rs[i].paced.backlogEnd
	}
	samples := map[string]int{
		"setup_s":              len(setups),
		"paced_p50_ms":         nPaced,
		"sat_qps":              nSat,
		"sat_p95_ms":           nSat,
		"upload_docs_per_s":    nRows,
		"upload_ack_p50_ms":    nAcks,
		"boot_to_first_200_ms": len(boots),
		"rss_after_burst_mb":   len(boots),
	}
	if backlogEnd > 0 {
		b.checks["paced"] = fmt.Sprintf("%d requests had not been sent when their round's last one fell due", backlogEnd)
	}
	return values, samples, nil
}
