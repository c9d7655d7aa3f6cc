// Package host implements the hosting side of the paper: "Regardless
// of how an application is distributed, its execution and the
// resources involved are always shouldered by Symphony." It keeps the
// registry of published applications and serves them over HTTP: a
// query endpoint returning the rendered HTML fragment, a click
// redirect that logs interactions for monetization, and the
// auto-generated JavaScript embed loader.
package host

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/jsonw"
	"repro/internal/runtime"
)

// Registry stores published applications.
type Registry struct {
	mu   sync.RWMutex
	apps map[string]*app.Application
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{apps: make(map[string]*app.Application)}
}

// Publish validates and registers an application (replacing any
// previous version, which is how designers iterate).
func (r *Registry) Publish(a *app.Application) error {
	if err := a.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps[a.ID] = a
	return nil
}

// Unpublish removes an application.
func (r *Registry) Unpublish(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.apps[id]; !ok {
		return false
	}
	delete(r.apps, id)
	return true
}

// Get returns a published application.
func (r *Registry) Get(id string) (*app.Application, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.apps[id]
	return a, ok
}

// List returns published app IDs, sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.apps))
	for id := range r.apps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Server hosts published applications.
type Server struct {
	Registry *Registry
	Executor *runtime.Executor
	Log      *analytics.Log
	// BaseURL is the public base of this host, used in generated
	// embed snippets.
	BaseURL string
	// Limiter meters per-app query load when non-nil; over-limit
	// queries get 429.
	Limiter *RateLimiter
	// Admission bounds per-tenant concurrency when non-nil: requests
	// over quota wait in a bounded queue or are shed with 429 +
	// Retry-After.
	Admission *AdmissionController
	// QueryTimeout caps each query's execution when positive; a query
	// that exceeds it is cancelled mid-evaluation and answered 504.
	QueryTimeout time.Duration
}

// queryContext derives the execution context for one request: the
// client's own context (so a dropped connection cancels the query)
// plus the server's per-query deadline.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.QueryTimeout > 0 {
		return context.WithTimeout(ctx, s.QueryTimeout)
	}
	return ctx, func() {}
}

// admit passes the request through admission control. It writes the
// error response and returns a nil release when the request should
// not proceed. Tenancy is the app's data tenant so that all of one
// designer's apps share a quota; apps without proprietary data fall
// back to the app ID.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, a *app.Application) (release func(), ok bool) {
	if s.Admission == nil {
		return func() {}, true
	}
	tenant := a.Tenant
	if tenant == "" {
		tenant = a.ID
	}
	rel, err := s.Admission.Acquire(ctx, tenant)
	switch {
	case err == nil:
		return rel, true
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", strconv.Itoa(s.Admission.RetryAfterSeconds()))
		http.Error(w, "tenant over concurrency quota", http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "timed out waiting for admission", http.StatusGatewayTimeout)
	default:
		// Client went away while queued; any status works, nobody is
		// listening.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
	return nil, false
}

// writeQueryError maps an execution error to a status: deadline and
// cancellation become 504 (the query was cut off, not broken), all
// else 500.
func writeQueryError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// Handler returns the HTTP mux serving:
//
//	GET /query?app=ID&q=TEXT[&customer=C][&offset=N][&format=json]
//	GET /click?app=ID&url=TARGET    (302 redirect + click log)
//	GET /embed.js?app=ID            (the auto-generated loader)
//	GET /apps                        (published app listing, JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/click", s.handleClick)
	mux.HandleFunc("/embed.js", s.handleEmbed)
	mux.HandleFunc("/apps", s.handleApps)
	mux.HandleFunc("/rss", s.handleRSS)
	return mux
}

// handleRSS serves an application's results as an RSS 2.0 feed —
// search-driven applications become data sources themselves, closing
// the loop with the RSS upload path (one app's feed can be another
// designer's proprietary source).
func (s *Server) handleRSS(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	appID := params.Get("app")
	a, ok := s.Registry.Get(appID)
	if !ok {
		http.Error(w, "unknown application", http.StatusNotFound)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	rel, ok := s.admit(ctx, w, a)
	if !ok {
		return
	}
	resp, err := s.Executor.Execute(ctx, a, runtime.Query{Text: params.Get("q")})
	rel()
	if err != nil {
		writeQueryError(w, err)
		return
	}
	type rssItem struct {
		Title       string `xml:"title"`
		Link        string `xml:"link,omitempty"`
		Description string `xml:"description,omitempty"`
	}
	type rssChannel struct {
		Title string    `xml:"title"`
		Items []rssItem `xml:"item"`
	}
	type rssDoc struct {
		XMLName struct{}   `xml:"rss"`
		Version string     `xml:"version,attr"`
		Channel rssChannel `xml:"channel"`
	}
	doc := rssDoc{Version: "2.0"}
	doc.Channel.Title = a.Name
	for _, block := range resp.Blocks {
		for _, item := range block.Items {
			ri := rssItem{Title: item["title"]}
			if ri.Title == "" {
				ri.Title = item["name"]
			}
			for _, f := range []string{"url", "detailurl", "link", "rentalurl"} {
				if v := item[f]; v != "" {
					ri.Link = v
					break
				}
			}
			for _, f := range []string{"description", "snippet", "notes", "synopsis"} {
				if v := item[f]; v != "" {
					ri.Description = v
					break
				}
			}
			doc.Channel.Items = append(doc.Channel.Items, ri)
		}
	}
	w.Header().Set("Content-Type", "application/rss+xml")
	out, err := xml.Marshal(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	appID := params.Get("app")
	a, ok := s.Registry.Get(appID)
	if !ok {
		http.Error(w, "unknown application", http.StatusNotFound)
		return
	}
	if s.Limiter != nil && !s.Limiter.Allow(appID) {
		http.Error(w, "application over query rate limit", http.StatusTooManyRequests)
		return
	}
	q := runtime.Query{
		Text:     params.Get("q"),
		Customer: params.Get("customer"),
	}
	if off := params.Get("offset"); off != "" {
		n, err := strconv.Atoi(off)
		if err != nil || n < 0 {
			http.Error(w, "bad offset", http.StatusBadRequest)
			return
		}
		q.Offset = n
	}
	if prefer := params.Get("prefer"); prefer != "" {
		q.Profile = &runtime.CustomerProfile{PreferTerms: []string{prefer}}
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	rel, ok := s.admit(ctx, w, a)
	if !ok {
		return
	}
	resp, err := s.Executor.Execute(ctx, a, q)
	rel()
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if params.Get("format") == "json" {
		// The one JSON endpoint on the end-user serving path: encoded
		// with the pooled streaming writer, not encoding/json, so a
		// saturated host does not allocate per response. TestQueryJSON
		// pins the body to the encoder output it replaced.
		w.Header().Set("Content-Type", "application/json")
		jw := jsonw.Get()
		jw.BeginObject()
		jw.Name("app")
		jw.String(resp.AppID)
		jw.Name("query")
		jw.String(resp.Query)
		jw.Name("html")
		jw.String(resp.HTML)
		jw.Name("blocks")
		jw.Int(len(resp.Blocks))
		jw.EndObject()
		jw.Newline()
		if _, err := w.Write(jw.Bytes()); err != nil {
			log.Printf("host: writing query response: %v", err)
		}
		jsonw.Put(jw)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if _, err := io.WriteString(w, resp.HTML); err != nil {
		log.Printf("host: writing query response: %v", err)
	}
}

// handleClick logs the interaction and redirects to the target —
// "When a link is clicked in a Symphony-hosted application, it can be
// logged by the system."
func (s *Server) handleClick(w http.ResponseWriter, r *http.Request) {
	appID := r.URL.Query().Get("app")
	target := r.URL.Query().Get("url")
	if _, ok := s.Registry.Get(appID); !ok {
		http.Error(w, "unknown application", http.StatusNotFound)
		return
	}
	parsed, err := url.Parse(target)
	if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https" && parsed.Scheme != "ftp") {
		http.Error(w, "bad target", http.StatusBadRequest)
		return
	}
	if s.Log != nil {
		s.Log.Record(analytics.Event{
			App:      appID,
			Type:     analytics.EventClick,
			URL:      target,
			Customer: r.URL.Query().Get("customer"),
		})
	}
	http.Redirect(w, r, target, http.StatusFound)
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	appID := r.URL.Query().Get("app")
	if _, ok := s.Registry.Get(appID); !ok {
		http.Error(w, "unknown application", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/javascript")
	fmt.Fprint(w, EmbedJS(s.BaseURL, appID))
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	jw := jsonw.Get()
	jw.BeginArray()
	for _, id := range s.Registry.List() {
		jw.String(id)
	}
	jw.EndArray()
	jw.Newline()
	if _, err := w.Write(jw.Bytes()); err != nil {
		log.Printf("host: writing apps response: %v", err)
	}
	jsonw.Put(jw)
}

// EmbedJS is the auto-generated JavaScript loader the designer pastes
// into their page: it forwards the visitor's query to Symphony and
// injects the returned HTML (Fig 2's first and last arrows).
func EmbedJS(baseURL, appID string) string {
	return fmt.Sprintf(`(function(){
  var BASE=%q, APP=%q;
  window.symphonySearch=function(q){
    var xhr=new XMLHttpRequest();
    xhr.open("GET", BASE+"/query?app="+encodeURIComponent(APP)+"&q="+encodeURIComponent(q));
    xhr.onload=function(){
      document.getElementById("symphony-"+APP).innerHTML=xhr.responseText;
    };
    xhr.send();
  };
})();`, baseURL, appID)
}

// EmbedSnippet is the copy-and-paste HTML block for the designer's
// site: a container div, a search box wired to the loader, and the
// script tag.
func EmbedSnippet(baseURL, appID string) string {
	return fmt.Sprintf(`<div id="symphony-%s"></div>
<input type="search" onchange="symphonySearch(this.value)" placeholder="Search"/>
<script src="%s/embed.js?app=%s"></script>`, appID, baseURL, url.QueryEscape(appID))
}
