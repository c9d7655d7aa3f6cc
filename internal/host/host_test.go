package host

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/webcorpus"
)

func webApp(t testing.TB) *app.Application {
	t.Helper()
	d := app.NewDesigner("websearch", "Web Search", "ann", "t")
	d.DropPrimary(app.SourceConfig{ID: "web", Kind: app.KindWebSearch, MaxResults: 5})
	d.UseTemplate("web", "headline-snippet", map[string]string{"title": "title", "url": "url", "snippet": "snippet"})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func newServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	st := store.New()
	st.CreateTenant("t", "ann")
	log := analytics.NewLog()
	s := &Server{
		Registry: NewRegistry(),
		Executor: &runtime.Executor{
			Store:  st,
			Engine: engine.New(func() *webcorpus.Corpus { return webcorpus.Generate(webcorpus.Config{Seed: 17}) }),
			Log:    log,
		},
		Log:     log,
		BaseURL: "http://symphony.example",
	}
	if err := s.Registry.Publish(webApp(t)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func get(t testing.TB, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestRegistryPublishValidates(t *testing.T) {
	r := NewRegistry()
	if err := r.Publish(&app.Application{}); err == nil {
		t.Fatal("invalid app published")
	}
	a := webApp(t)
	if err := r.Publish(a); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get("websearch"); !ok || got.Name != "Web Search" {
		t.Fatal("Get failed")
	}
	if list := r.List(); len(list) != 1 || list[0] != "websearch" {
		t.Fatalf("List = %v", list)
	}
	if !r.Unpublish("websearch") || r.Unpublish("websearch") {
		t.Fatal("unpublish semantics")
	}
}

func TestQueryEndpointHTML(t *testing.T) {
	_, srv := newServer(t)
	code, body := get(t, srv.Client(), srv.URL+"/query?app=websearch&q=review")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "symphony-app") {
		t.Errorf("body = %.200s", body)
	}
}

func TestQueryEndpointJSON(t *testing.T) {
	_, srv := newServer(t)
	code, body := get(t, srv.Client(), srv.URL+"/query?app=websearch&q=review&format=json")
	if code != http.StatusOK || !strings.Contains(body, `"app":"websearch"`) {
		t.Fatalf("json response = %d %.200s", code, body)
	}
}

func TestQueryUnknownApp(t *testing.T) {
	_, srv := newServer(t)
	code, _ := get(t, srv.Client(), srv.URL+"/query?app=nope&q=x")
	if code != http.StatusNotFound {
		t.Fatalf("status = %d", code)
	}
}

func TestQueryBadOffset(t *testing.T) {
	_, srv := newServer(t)
	code, _ := get(t, srv.Client(), srv.URL+"/query?app=websearch&q=x&offset=-1")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d", code)
	}
}

func TestQueryRecordsAnalytics(t *testing.T) {
	s, srv := newServer(t)
	get(t, srv.Client(), srv.URL+"/query?app=websearch&q=zelda&customer=c1")
	events := s.Log.Events("websearch")
	if len(events) != 1 || events[0].Query != "zelda" || events[0].Customer != "c1" {
		t.Fatalf("events = %+v", events)
	}
}

func TestClickRedirectAndLog(t *testing.T) {
	s, srv := newServer(t)
	client := srv.Client()
	client.CheckRedirect = func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	}
	resp, err := client.Get(srv.URL + "/click?app=websearch&url=" + "http%3A%2F%2Fign.com%2Freview%2F1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://ign.com/review/1" {
		t.Fatalf("location = %s", loc)
	}
	events := s.Log.Events("websearch")
	if len(events) != 1 || events[0].Type != analytics.EventClick || events[0].Site != "ign.com" {
		t.Fatalf("click not logged: %+v", events)
	}
}

func TestClickRejectsBadTargets(t *testing.T) {
	_, srv := newServer(t)
	for _, target := range []string{"javascript%3Aalert(1)", "", "%20"} {
		code, _ := get(t, srv.Client(), srv.URL+"/click?app=websearch&url="+target)
		if code != http.StatusBadRequest {
			t.Errorf("target %q: status %d", target, code)
		}
	}
	code, _ := get(t, srv.Client(), srv.URL+"/click?app=nope&url=http%3A%2F%2Fa.example")
	if code != http.StatusNotFound {
		t.Errorf("unknown app click: %d", code)
	}
}

func TestEmbedJS(t *testing.T) {
	_, srv := newServer(t)
	code, body := get(t, srv.Client(), srv.URL+"/embed.js?app=websearch")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"symphonySearch", `"websearch"`, "/query?app="} {
		if !strings.Contains(body, want) {
			t.Errorf("embed.js missing %q", want)
		}
	}
	code, _ = get(t, srv.Client(), srv.URL+"/embed.js?app=nope")
	if code != http.StatusNotFound {
		t.Error("unknown app embed served")
	}
}

func TestAppsListing(t *testing.T) {
	_, srv := newServer(t)
	code, body := get(t, srv.Client(), srv.URL+"/apps")
	if code != http.StatusOK || !strings.Contains(body, "websearch") {
		t.Fatalf("apps = %d %s", code, body)
	}
}

func TestEmbedSnippet(t *testing.T) {
	s := EmbedSnippet("http://base.example", "my app")
	for _, want := range []string{"symphony-my app", "embed.js?app=my+app", "symphonySearch(this.value)"} {
		if !strings.Contains(s, want) {
			t.Errorf("snippet missing %q:\n%s", want, s)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, srv := newServer(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			resp, err := srv.Client().Get(fmt.Sprintf("%s/query?app=websearch&q=review%d", srv.URL, i%4))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryOffsetAtMaxInt: the largest offset the host accepts reaches
// past every hit. The limit it adds to saturates instead of wrapping
// to a non-positive one (which would mean no limit), so the answer is
// a 200 with an empty page.
func TestQueryOffsetAtMaxInt(t *testing.T) {
	_, srv := newServer(t)
	const emptyBlock = `<div class="sym-source" data-source="web"></div>`
	for offset, wantEmpty := range map[string]bool{"0": false, "9223372036854775807": true} {
		code, body := get(t, srv.Client(), srv.URL+"/query?app=websearch&q=review&offset="+offset)
		if code != http.StatusOK {
			t.Fatalf("offset %s: status = %d %.200s", offset, code, body)
		}
		if got := strings.Contains(body, emptyBlock); got != wantEmpty {
			t.Fatalf("offset %s: empty page %v, want %v: %.300s", offset, got, wantEmpty, body)
		}
	}
}

// TestQueryOffsetPastStoreRecords: a store-backed app paged at or past
// its last record answers 200 with an empty page, and the first page
// still lists records. The offset reaches the store, so a page at
// offset math.MaxInt runs no index shard task and scores nothing.
func TestQueryOffsetPastStoreRecords(t *testing.T) {
	s, srv := newServer(t)
	ds, err := s.Executor.Store.CreateDataset("t", "ann", store.Schema{Name: "inventory", Key: "sku", Fields: []store.Field{
		{Name: "sku", Required: true}, {Name: "title", Searchable: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if _, err := ds.Put(store.Record{"sku": fmt.Sprint("S", i), "title": fmt.Sprint("review item ", i)}); err != nil {
			t.Fatal(err)
		}
	}
	d := app.NewDesigner("shop", "Shop", "ann", "t")
	d.DropPrimary(app.SourceConfig{ID: "inventory", Kind: app.KindProprietary, Dataset: "inventory", MaxResults: 3})
	d.UseTemplate("inventory", "headline-snippet", map[string]string{"title": "title", "url": "sku", "snippet": "title"})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry.Publish(a); err != nil {
		t.Fatal(err)
	}
	const emptyBlock = `<div class="sym-source" data-source="inventory"></div>`
	for offset, wantEmpty := range map[string]bool{"0": false, "5": true, "9223372036854775807": true} {
		tasks, scored := index.GetExecutorStats().Tasks, ds.ScanStats().Scored
		code, body := get(t, srv.Client(), srv.URL+"/query?app=shop&q=review&offset="+offset)
		if code != http.StatusOK {
			t.Fatalf("offset %s: status = %d %.200s", offset, code, body)
		}
		if got := strings.Contains(body, emptyBlock); got != wantEmpty {
			t.Fatalf("offset %s: empty page %v, want %v: %.300s", offset, got, wantEmpty, body)
		}
		if offset == "9223372036854775807" && (index.GetExecutorStats().Tasks != tasks || ds.ScanStats().Scored != scored) {
			t.Fatalf("offset %s: the index evaluated a page past the last record", offset)
		}
	}
}
