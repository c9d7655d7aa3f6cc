package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient keeps one connection per client goroutine alive, so a
// phase with n clients uses n connections and never redials.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// clients is the most client goroutines and connections a phase uses.
func clients() int { return runtime.NumCPU() }

// visitor is one client goroutine's view of the served platform.
type visitor struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// get fetches path and checks the answer: 200, a non-empty body and
// one source block per primary source (every application here has
// one). The body is valid until the next get.
func (v *visitor) get(path string) ([]byte, error) {
	resp, err := v.hc.Get(v.base + path)
	if err != nil {
		return nil, err
	}
	v.buf.Reset()
	_, err = v.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	body := v.buf.Bytes()
	marker := `class="sym-source"`
	if strings.HasSuffix(path, "&format=json") {
		marker = `class=\"sym-source\"`
	}
	if n := bytes.Count(body, []byte(marker)); n != 1 {
		return nil, fmt.Errorf("GET %s: %d source blocks in a %d-byte body, want 1", path, n, len(body))
	}
	return body, nil
}

// tally counts operations and the ones that failed; the first few
// failures are kept for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) note(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// latencies are one phase's successful requests, in milliseconds.
type latencies struct {
	tally
	ms      []float64
	elapsed time.Duration
}

func (l *latencies) merge(o latencies) {
	l.add(o.tally)
	l.ms = append(l.ms, o.ms...)
}

// sorted returns a sorted copy of the latencies.
func (l *latencies) sorted() []float64 {
	out := append([]float64(nil), l.ms...)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// paced is the outcome of an open-loop phase.
type paced struct {
	latencies
	// lateMs is, for each request a client was idle for, how long
	// after its due time the client woke up and sent it.
	lateMs []float64
	// backlogMax is the most requests that were due and still waiting
	// for a free connection when an overdue one was sent; backlogEnd is
	// how many had not been sent when the last one fell due. Their wait
	// is in the latency, which runs from the due time; a backlog at the
	// end that grows with the phase's length means the rate is above
	// what the platform can serve.
	backlogMax, backlogEnd int
}

// runPaced sends paths[i] at start+due[i] over n connections and
// times each from its due time, so that a stall is charged to every
// request it delays and not only to the one it hit.
func runPaced(hc *http.Client, base string, paths []string, due []time.Duration, n int) paced {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		out   paced
		wg    sync.WaitGroup
		start = time.Now()
	)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := visitor{hc: hc, base: base}
			var mine paced
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					break
				}
				dueAt := start.Add(due[i])
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
					mine.lateMs = append(mine.lateMs, ms(time.Since(dueAt)))
				} else {
					// Due already: it waited for this connection, and
					// every later request that is due by now still does.
					elapsed := time.Since(start)
					waiting := sort.Search(len(due)-i-1, func(k int) bool { return due[i+1+k] > elapsed })
					mine.backlogMax = max(mine.backlogMax, waiting)
					if elapsed > due[len(due)-1] {
						mine.backlogEnd++
					}
				}
				_, err := v.get(paths[i])
				if mine.note(err) {
					mine.ms = append(mine.ms, ms(time.Since(dueAt)))
				}
			}
			mu.Lock()
			out.merge(mine.latencies)
			out.lateMs = append(out.lateMs, mine.lateMs...)
			out.backlogMax = max(out.backlogMax, mine.backlogMax)
			out.backlogEnd += mine.backlogEnd
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// runClosed runs one closed-loop client per query source until ctx
// ends: each sends its next request when the previous one is
// answered, with no think time.
func runClosed(ctx context.Context, hc *http.Client, base string, srcs []queries) latencies {
	var (
		mu    sync.Mutex
		out   latencies
		wg    sync.WaitGroup
		start = time.Now()
	)
	for _, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := visitor{hc: hc, base: base}
			var mine latencies
			for ctx.Err() == nil {
				t0 := time.Now()
				_, err := v.get(src.next())
				if mine.note(err) {
					mine.ms = append(mine.ms, ms(time.Since(t0)))
				}
			}
			mu.Lock()
			out.merge(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// designer is the client of the admin API: it uploads CSV and
// remembers, per SKU, the title of the last upload the platform
// acknowledged, which the run reads back at the end.
type designer struct {
	hc   *http.Client
	base string

	mu       sync.Mutex
	csvBytes int64             // acknowledged
	acked    map[string]string // dataset/sku -> title
	tally
}

func newDesigner(base string) *designer {
	return &designer{hc: newHTTPClient(1), base: base, acked: make(map[string]string)}
}

func (d *designer) post(path, contentType, body string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Symphony-Designer", catalogOwner)
	req.Header.Set("Content-Type", contentType)
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// upload posts one CSV body into a dataset of the shop tenant and
// checks that the report acknowledges every row.
func (d *designer) upload(dataset, body string, rows []row) error {
	err := func() error {
		q := url.Values{"tenant": {catalogTenant}, "dataset": {dataset}, "format": {"csv"}, "key": {"sku"}}
		out, err := d.post("/admin/upload?"+q.Encode(), "text/csv", body)
		if err != nil {
			return err
		}
		var rep struct{ Loaded int }
		if err := json.Unmarshal(out, &rep); err != nil {
			return fmt.Errorf("upload report: %w", err)
		}
		if rep.Loaded != len(rows) {
			return fmt.Errorf("upload to %s: %d of %d rows loaded", dataset, rep.Loaded, len(rows))
		}
		return nil
	}()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.note(err) {
		d.csvBytes += int64(len(body))
		for _, r := range rows {
			d.acked[dataset+"/"+r.sku] = r.title
		}
	}
	return err
}

// uploads is the outcome of a run of uploads: the acknowledgement
// latencies of the successful ones, the rows they carried, and the
// time the platform had an upload in hand.
type uploads struct {
	ackMs   []float64
	rows    int
	elapsed time.Duration
}

// uploadClosed uploads new 1 000-row batches into dataset back to
// back until ctx ends (closed loop, one designer). Writing the next
// CSV is the client's time and is left out of elapsed.
func (d *designer) uploadClosed(ctx context.Context, w *words, dataset string) uploads {
	var out uploads
	for from := 0; ctx.Err() == nil; from += batchRows {
		body, rows := w.batch("B", from, batchRows)
		t0 := time.Now()
		err := d.upload(dataset, body, rows)
		took := time.Since(t0)
		out.elapsed += took
		if err == nil {
			out.ackMs = append(out.ackMs, ms(took))
			out.rows += len(rows)
		}
	}
	return out
}

// rewritePaced re-uploads rewriteRows existing items rows with new
// text every rewriteEvery until ctx ends (open loop).
func (d *designer) rewritePaced(ctx context.Context, w *words, items int) {
	start := time.Now()
	for i := 1; ; i++ {
		body, rows := w.rewrite(items, rewriteRows)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(start.Add(time.Duration(i) * rewriteEvery))):
		}
		_ = d.upload("items", body, rows) // a failure is in the designer's tally
	}
}
