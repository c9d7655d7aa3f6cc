package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestPacedChargesAStallToLaterRequests: one connection, a request
// due every 10 ms, and a server that stalls once for 300 ms. Timed
// from the due time, the requests that were due during the stall must
// show it; timed from the send they would all look fast.
func TestPacedChargesAStallToLaterRequests(t *testing.T) {
	const (
		n     = 60
		gap   = 10 * time.Millisecond
		stall = 300 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 10 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `<div class="sym-source"></div>`)
	}))
	defer srv.Close()

	paths := make([]string, n)
	due := make([]time.Duration, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/query?i=%d", i)
		due[i] = time.Duration(i) * gap
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	res := runPaced(hc, srv.URL, paths, due, 1)

	if res.attempted != n || res.failed != 0 || len(res.ms) != n {
		t.Fatalf("attempted %d, failed %d, %d latencies; want %d, 0, %d", res.attempted, res.failed, len(res.ms), n, n)
	}
	// The stalled request and the ~29 that fell due while it hung.
	slow := 0
	for _, l := range res.ms {
		if l > 50 {
			slow++
		}
	}
	if slow < 15 {
		t.Errorf("%d requests show the stall in their latency, want at least 15", slow)
	}
	lat := append([]float64(nil), res.ms...)
	sort.Float64s(lat)
	if p75 := percentile(lat, 75); p75 < 50 {
		t.Errorf("p75 from due time is %.1f ms; a 300 ms stall over a 600 ms schedule must lift it above 50", p75)
	}
	if res.backlogMax < 15 {
		t.Errorf("backlogMax = %d, want at least 15 requests waiting behind the stall", res.backlogMax)
	}
	if res.backlogEnd != 0 {
		t.Errorf("backlogEnd = %d, want 0: the schedule outlasts the stall", res.backlogEnd)
	}
	// Lateness is recorded only for requests the client was idle for,
	// and is the wake-up overshoot, not the stall.
	if len(res.lateMs) == 0 || len(res.lateMs) >= n {
		t.Errorf("%d lateness samples, want some but not all %d", len(res.lateMs), n)
	}
	for _, l := range res.lateMs {
		if l < 0 || l > 50 {
			t.Errorf("lateness %.2f ms: want the wake-up overshoot only", l)
		}
	}
}

// TestPacedBacklogAtTheEnd: a server slower than the schedule leaves
// requests unsent when the last one falls due.
func TestPacedBacklogAtTheEnd(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		fmt.Fprint(w, `<div class="sym-source"></div>`)
	}))
	defer srv.Close()
	const n = 40
	paths := make([]string, n)
	due := make([]time.Duration, n)
	for i := range paths {
		paths[i] = "/query"
		due[i] = time.Duration(i) * time.Millisecond
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	res := runPaced(hc, srv.URL, paths, due, 1)
	if res.backlogEnd < n/2 {
		t.Errorf("backlogEnd = %d of %d, want most of them: the rate is five times capacity", res.backlogEnd, n)
	}
}

func TestVisitorChecksTheBody(t *testing.T) {
	bodies := map[string]string{
		"/ok":                `<div class="symphony-app"><div class="sym-source" data-source="x"></div></div>`,
		"/none":              `<div class="symphony-app"></div>`,
		"/two":               `<div class="sym-source"></div><div class="sym-source"></div>`,
		"/empty":             ``,
		"/j?a&format=json":   `{"html":"<div class=\"sym-source\"></div>","blocks":1}`,
		"/bad?a&format=json": `{"html":"","blocks":0}`,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/500" {
			http.Error(w, `<div class="sym-source"></div>`, http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, bodies[r.URL.RequestURI()])
	}))
	defer srv.Close()
	v := visitor{hc: newHTTPClient(1), base: srv.URL}
	defer v.hc.CloseIdleConnections()
	for path, ok := range map[string]bool{"/ok": true, "/j?a&format=json": true, "/none": false, "/two": false, "/empty": false, "/bad?a&format=json": false, "/500": false} {
		if _, err := v.get(path); (err == nil) != ok {
			t.Errorf("get(%s): err = %v, want ok = %v", path, err, ok)
		}
	}
}
