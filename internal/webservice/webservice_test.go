package webservice

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestExpandTemplate(t *testing.T) {
	args := map[string]string{"title": "Halo Wars", "sku": "G2"}
	cases := map[string]string{
		"{title}":              "Halo Wars",
		"game {title} ({sku})": "game Halo Wars (G2)",
		"no placeholders":      "no placeholders",
		"{missing}":            "",
		"{unclosed":            "{unclosed",
	}
	for in, want := range cases {
		if got := ExpandTemplate(in, args); got != want {
			t.Errorf("ExpandTemplate(%q) = %q, want %q", in, got, want)
		}
	}
}

func newPricing(t *testing.T, titles []string) (*PricingService, *httptest.Server) {
	t.Helper()
	p := NewPricingService(5, titles)
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func TestRESTCall(t *testing.T) {
	_, srv := newPricing(t, []string{"Halo Wars"})
	c := NewClient(srv.Client())
	def := Definition{
		Name:     "pricing",
		Protocol: ProtocolREST,
		Endpoint: srv.URL + "/price",
		Params:   map[string]string{"title": "{title}"},
	}
	resp, err := c.Call(context.Background(), def, map[string]string{"title": "Halo Wars"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 {
		t.Fatalf("items = %v", resp.Items)
	}
	item := resp.Items[0]
	if item["title"] != "Halo Wars" || item["price"] == "" || item["instock"] == "" {
		t.Errorf("item = %v", item)
	}
}

func TestRESTCallUnknownItem(t *testing.T) {
	_, srv := newPricing(t, []string{"Halo Wars"})
	c := NewClient(srv.Client())
	def := Definition{Name: "p", Endpoint: srv.URL + "/price", Params: map[string]string{"title": "{title}"}}
	resp, err := c.Call(context.Background(), def, map[string]string{"title": "Unknown Game"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 0 {
		t.Errorf("unknown item returned %v", resp.Items)
	}
}

func TestSOAPCall(t *testing.T) {
	_, srv := newPricing(t, []string{"Zelda"})
	c := NewClient(srv.Client())
	def := Definition{
		Name:       "pricing",
		Protocol:   ProtocolSOAP,
		Endpoint:   srv.URL + "/soap",
		SOAPAction: "GetPrice",
		Params:     map[string]string{"title": "{title}"},
	}
	resp, err := c.Call(context.Background(), def, map[string]string{"title": "Zelda"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || resp.Items[0]["price"] == "" {
		t.Fatalf("soap items = %v", resp.Items)
	}
}

func TestUnknownProtocol(t *testing.T) {
	c := NewClient(nil)
	_, err := c.Call(context.Background(), Definition{Protocol: "grpc"}, nil)
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestServiceErrorPropagates(t *testing.T) {
	p, srv := newPricing(t, []string{"Zelda"})
	p.FailEvery = 1 // every request fails
	c := NewClient(srv.Client())
	def := Definition{Name: "p", Endpoint: srv.URL + "/price", Params: map[string]string{"title": "{title}"}}
	if _, err := c.Call(context.Background(), def, map[string]string{"title": "Zelda"}); err == nil {
		t.Fatal("500 not reported")
	}
}

func TestTimeout(t *testing.T) {
	p, srv := newPricing(t, []string{"Zelda"})
	p.Latency = 200 * time.Millisecond
	c := NewClient(srv.Client())
	def := Definition{
		Name: "p", Endpoint: srv.URL + "/price",
		Params:    map[string]string{"title": "{title}"},
		TimeoutMS: 20,
	}
	start := time.Now()
	_, err := c.Call(context.Background(), def, map[string]string{"title": "Zelda"})
	if err == nil {
		t.Fatal("slow service did not time out")
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Error("timeout not enforced promptly")
	}
}

func TestCacheHitsAndExpiry(t *testing.T) {
	p, srv := newPricing(t, []string{"Zelda"})
	c := NewClient(srv.Client())
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	def := Definition{
		Name: "p", Endpoint: srv.URL + "/price",
		Params:     map[string]string{"title": "{title}"},
		CacheTTLMS: 1000,
	}
	args := map[string]string{"title": "Zelda"}
	if _, err := c.Call(context.Background(), def, args); err != nil {
		t.Fatal(err)
	}
	first := p.Requests()
	// Second call within TTL: served from cache.
	if _, err := c.Call(context.Background(), def, args); err != nil {
		t.Fatal(err)
	}
	if p.Requests() != first {
		t.Error("cache miss within TTL")
	}
	calls, hits := c.Stats()
	if calls != 1 || hits != 1 {
		t.Errorf("stats = %d calls, %d hits", calls, hits)
	}
	// Advance past TTL: backend hit again.
	now = now.Add(2 * time.Second)
	if _, err := c.Call(context.Background(), def, args); err != nil {
		t.Fatal(err)
	}
	if p.Requests() != first+1 {
		t.Error("cache did not expire")
	}

	// An expired entry is deleted by the lookup that finds it, even
	// when the refetch then fails (here: a cancelled context).
	now = now.Add(2 * time.Second)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(cancelled, def, args); err == nil {
		t.Fatal("call with a cancelled context succeeded")
	}
	if n := cacheLen(c); n != 0 {
		t.Fatalf("expired entry kept after lookup: %d entries", n)
	}

	// Distinct keys that all expire are swept once the map reaches the
	// sweep threshold, so it shrinks instead of growing per key.
	for i := 0; i < minSweep-1; i++ {
		if _, err := c.Call(context.Background(), def, map[string]string{"title": fmt.Sprint("old", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheLen(c); n != minSweep-1 {
		t.Fatalf("cache holds %d entries before the sweep, want %d", n, minSweep-1)
	}
	now = now.Add(2 * time.Second)
	if _, err := c.Call(context.Background(), def, args); err != nil {
		t.Fatal(err)
	}
	if n := cacheLen(c); n != 1 {
		t.Fatalf("cache holds %d entries after the sweep, want 1", n)
	}
	if _, err := c.Call(context.Background(), def, args); err != nil {
		t.Fatal(err)
	}
	if _, hits := c.Stats(); hits != 2 {
		t.Errorf("live entry did not survive the sweep: %d hits", hits)
	}
}

func cacheLen(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

func TestCacheKeyDistinguishesArgs(t *testing.T) {
	p, srv := newPricing(t, []string{"Zelda", "Halo"})
	c := NewClient(srv.Client())
	def := Definition{
		Name: "p", Endpoint: srv.URL + "/price",
		Params:     map[string]string{"title": "{title}"},
		CacheTTLMS: 60000,
	}
	c.Call(context.Background(), def, map[string]string{"title": "Zelda"})
	c.Call(context.Background(), def, map[string]string{"title": "Halo"})
	if p.Requests() != 2 {
		t.Errorf("different args shared a cache entry: %d requests", p.Requests())
	}
}

func TestPricesDrift(t *testing.T) {
	_, srv := newPricing(t, []string{"Zelda"})
	c := NewClient(srv.Client())
	def := Definition{Name: "p", Endpoint: srv.URL + "/price", Params: map[string]string{"title": "{title}"}}
	args := map[string]string{"title": "Zelda"}
	r1, _ := c.Call(context.Background(), def, args)
	r2, _ := c.Call(context.Background(), def, args)
	if len(r1.Items) != 1 || len(r2.Items) != 1 {
		t.Fatal("missing items")
	}
	if r1.Items[0]["price"] == r2.Items[0]["price"] {
		t.Error("real-time prices did not drift between calls")
	}
}

func TestDecodeJSONItems(t *testing.T) {
	resp, err := decodeJSONItems([]byte(`[{"a":"x","n":3,"b":true,"z":null,"arr":[1]}]`))
	if err != nil {
		t.Fatal(err)
	}
	it := resp.Items[0]
	if it["a"] != "x" || it["n"] != "3" || it["b"] != "true" || it["z"] != "" || it["arr"] != "[1]" {
		t.Errorf("decoded = %v", it)
	}
	// single object form
	resp, err = decodeJSONItems([]byte(`{"k":"v"}`))
	if err != nil || len(resp.Items) != 1 || resp.Items[0]["k"] != "v" {
		t.Fatalf("single object: %v %v", resp, err)
	}
	if _, err := decodeJSONItems([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRESTBadEndpoint(t *testing.T) {
	c := NewClient(&http.Client{})
	def := Definition{Name: "p", Endpoint: "://bad"}
	if _, err := c.Call(context.Background(), def, nil); err == nil {
		t.Fatal("bad endpoint accepted")
	}
}

func TestSOAPEnvelopeRoundTrip(t *testing.T) {
	// A SOAP server that echoes params back as one item.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("SOAPAction"); got != "Echo" {
			t.Errorf("SOAPAction = %q", got)
		}
		body := new(strings.Builder)
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			body.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if !strings.Contains(body.String(), "Echo") {
			t.Errorf("request body missing operation: %s", body.String())
		}
		w.Write([]byte(`<Envelope><Body><Item><Field name="echo">yes</Field></Item></Body></Envelope>`))
	}))
	defer srv.Close()
	c := NewClient(srv.Client())
	def := Definition{Name: "e", Protocol: ProtocolSOAP, Endpoint: srv.URL, SOAPAction: "Echo", Params: map[string]string{"q": "{q}"}}
	resp, err := c.Call(context.Background(), def, map[string]string{"q": "hello"})
	if err != nil || resp.Items[0]["echo"] != "yes" {
		t.Fatalf("echo = %v, %v", resp, err)
	}
}
