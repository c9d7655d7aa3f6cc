// Package engine implements the general-purpose search engine
// substrate standing in for Bing in the paper's prototype.
//
// It exposes the four built-in services of §II-A — web, image, video
// and news search — with the customization hooks the paper lists:
// site restriction, automatic query augmentation (added terms), and
// URL-preference reordering. It also keeps a query/click log, which
// feeds both Site Suggest [paper ref 2] and the paper's concluding
// observation that per-application usage data can become
// community-specific relevance signals.
package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/textproc"
	"repro/internal/webcorpus"
)

// Request is one search call against a vertical.
type Request struct {
	Query    string
	Vertical webcorpus.Vertical
	// Sites, when non-empty, restricts results to these domains
	// (Google-Custom-style site restriction).
	Sites []string
	// AddTerms are appended to the user query before retrieval,
	// reproducing "automatically add terms to an input query".
	AddTerms []string
	// PreferURLs get a rank boost, reproducing "reorder search results
	// to give preference to some URLs".
	PreferURLs []string
	Limit      int
	Offset     int
	// ResultsOnly skips the page aggregates (total count, site
	// facets), leaving Response.Total and Response.SiteFacets zero.
	// The Search convenience view sets it so callers that only want
	// ranked hits never pay for counting and faceting.
	ResultsOnly bool
}

// Result is one engine hit.
type Result struct {
	URL      string
	Site     string
	Title    string
	Snippet  string
	Score    float64
	Vertical webcorpus.Vertical
	Entity   string
}

// Engine is the simulated general search engine. Nothing is built at
// construction: the corpus is generated when first needed and each
// vertical is indexed when the first request that reads it arrives,
// so a platform whose apps never query the web never pays for it.
type Engine struct {
	corpus  func() *webcorpus.Corpus
	quality func() map[string]float64
	perVert map[webcorpus.Vertical]*vertical
	// corpusNs is how long the corpus source took: 0 until it has
	// returned, at least 1 after.
	corpusNs atomic.Int64

	mu sync.Mutex
	// seq numbers log entries in arrival order across the two logs.
	seq uint64
	// queries is a ring of the most recent queryLogSize queries; next
	// is where the following one goes once it is full.
	queries []loggedEntry
	next    int
	clicks  []loggedEntry
	sugg    *suggester
}

// vertical is one service's index, filled from the corpus on first
// use.
type vertical struct {
	ix    *index.Index
	once  sync.Once
	built atomic.Bool
	// buildNs is how long the one-time indexing took, not counting
	// the corpus generation it may have waited on; set before built.
	buildNs atomic.Int64
}

// queryLogSize bounds the queries the log keeps: about 400 Fig 2
// pages' worth. Clicks are kept in full; they are what Site Suggest
// reads.
const queryLogSize = 4096

type loggedEntry struct {
	seq uint64
	LogEntry
}

// LogEntry records one query and, when the end user clicked, the
// clicked site. Site Suggest mines these.
type LogEntry struct {
	Query      string
	Vertical   webcorpus.Vertical
	ClickedURL string
	Site       string
}

// New returns an engine over the corpus that corpus yields. corpus is
// called at most once, when a request first needs the pages or the
// site-quality table; each vertical's index is created empty here,
// with its field options, and filled on first use.
func New(corpus func() *webcorpus.Corpus) *Engine {
	e := &Engine{perVert: make(map[webcorpus.Vertical]*vertical, len(webcorpus.Verticals))}
	e.corpus = sync.OnceValue(func() *webcorpus.Corpus {
		start := time.Now()
		c := corpus()
		e.corpusNs.Store(max(int64(time.Since(start)), 1))
		return c
	})
	e.quality = sync.OnceValue(func() map[string]float64 {
		sites := e.corpus().Sites
		q := make(map[string]float64, len(sites))
		for _, s := range sites {
			q[s.Domain] = s.Quality
		}
		return q
	})
	for _, v := range webcorpus.Verticals {
		ix := index.New()
		ix.SetFieldOptions("title", index.FieldOptions{Boost: 2.5})
		ix.SetFieldOptions("body", index.FieldOptions{Boost: 1})
		ix.SetFieldOptions("site", index.FieldOptions{Analyzer: textproc.KeywordAnalyzer})
		e.perVert[v] = &vertical{ix: ix}
	}
	return e
}

// index returns vertical v's index, indexing its pages first if no
// request has read it yet; nil for an unknown vertical. The build is
// shared by every caller and owned by none, so it takes no context: a
// cancelled request cannot leave a vertical half indexed.
func (e *Engine) index(v webcorpus.Vertical) *index.Index {
	vt, ok := e.perVert[v]
	if !ok {
		return nil
	}
	vt.once.Do(func() {
		pages := e.corpus().Pages
		start := time.Now()
		var docs []index.Document
		for i := range pages {
			p := &pages[i]
			if p.Vertical != v {
				continue
			}
			docs = append(docs, index.Document{
				ID: p.URL,
				Fields: map[string]string{
					"title": p.Title,
					"body":  p.Body,
					"site":  p.Site,
				},
				// The index keeps no field text, so snippets are cut
				// from Stored's body: the page's own string, shared,
				// not copied.
				Stored: map[string]string{
					"url":    p.URL,
					"site":   p.Site,
					"title":  p.Title,
					"entity": p.Entity,
					"day":    strconv.Itoa(p.PublishedDay),
					"body":   p.Body,
				},
			})
		}
		// One batch in corpus order lands exactly as one Add per page
		// would. Indexing the generated corpus cannot fail (IDs are
		// URLs and never empty, and the context is never cancelled); a
		// failure here is a programming error.
		if err := vt.ix.AddBatchContext(context.Background(), docs); err != nil {
			panic(err)
		}
		vt.buildNs.Store(int64(time.Since(start)))
		vt.built.Store(true)
	})
	return vt.ix
}

// prepare normalizes the request and builds the index query it
// retrieves with: free-text match over title/body plus the site
// restriction, with the effective result limit resolved.
func (e *Engine) prepare(req *Request) (*index.Index, index.Query, int, error) {
	if req.Vertical == "" {
		req.Vertical = webcorpus.VerticalWeb
	}
	ix := e.index(req.Vertical)
	if ix == nil {
		return nil, nil, 0, fmt.Errorf("engine: unknown vertical %q", req.Vertical)
	}
	queryText := req.Query
	if len(req.AddTerms) > 0 {
		queryText = queryText + " " + strings.Join(req.AddTerms, " ")
	}
	q := index.Query(index.MatchQuery{Fields: []string{"title", "body"}, Text: queryText})
	if len(req.Sites) > 0 {
		var should []index.Query
		for _, s := range req.Sites {
			should = append(should, index.TermQuery{Field: "site", Term: s})
		}
		q = index.BoolQuery{Must: []index.Query{q, orQuery(should)}}
	}
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	return ix, q, limit, nil
}

// rerank applies the engine-level signals — site quality, URL
// preference, news freshness — to raw index hits, then paginates.
func (e *Engine) rerank(req Request, raw []index.Result, limit int) []Result {
	var prefer map[string]bool
	if len(req.PreferURLs) > 0 {
		prefer = make(map[string]bool, len(req.PreferURLs))
		for _, u := range req.PreferURLs {
			prefer[u] = true
		}
	}
	quality := e.quality()
	out := make([]Result, 0, len(raw))
	for _, r := range raw {
		site := r.Stored["site"]
		score := r.Score * (0.5 + quality[site])
		if prefer[r.ID] {
			score *= 4
		}
		if req.Vertical == webcorpus.VerticalNews {
			// News ranks fresher stories higher. The build writes day
			// with strconv.Itoa, so it always parses.
			day, _ := strconv.Atoi(r.Stored["day"])
			score *= 1 + 0.3*float64(day)/365
		}
		out = append(out, Result{
			URL:      r.ID,
			Site:     site,
			Title:    r.Stored["title"],
			Snippet:  r.Snippet,
			Score:    score,
			Vertical: req.Vertical,
			Entity:   r.Stored["entity"],
		})
	}
	// (score desc, URL asc) is a total order — URLs are unique — so the
	// reflection-free sort is bit-identical to the sort.Slice it replaced.
	slices.SortFunc(out, func(a, b Result) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.URL, b.URL)
	})
	if req.Offset > 0 {
		if req.Offset >= len(out) {
			return nil
		}
		out = out[req.Offset:]
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (e *Engine) logQuery(req Request) {
	e.mu.Lock()
	defer e.mu.Unlock()
	entry := loggedEntry{seq: e.seq, LogEntry: LogEntry{Query: req.Query, Vertical: req.Vertical}}
	e.seq++
	if len(e.queries) < queryLogSize {
		e.queries = append(e.queries, entry)
		return
	}
	e.queries[e.next] = entry
	e.next = (e.next + 1) % queryLogSize
}

// Response is the single answer shape of the engine: the ranked hits
// plus, unless the request opted out, the aggregates every results
// page shows around them — the total match count and the per-site
// facet sidebar.
type Response struct {
	Results []Result
	// Total counts every matching document, not just the page. Zero
	// when the request set ResultsOnly.
	Total int
	// SiteFacets counts matches per site, for the restriction sidebar.
	// Nil when the request set ResultsOnly.
	SiteFacets []index.FacetCount
	Stats      Stats
}

// Stats reports how the engine answered a request.
type Stats struct {
	// Candidates is how many raw index hits entered reranking, before
	// quality/preference reordering and pagination.
	Candidates int
}

// Query answers one end-user request in full: ranked results and,
// unless req.ResultsOnly is set, total hit count and site facets.
// A vertical's index never changes after its first-use build, so the
// three index calls read one state; with a cache attached, the count
// and facets take the search's document frequencies and field
// statistics from it instead of aggregating them again. Cancelling
// ctx aborts the index evaluation within one posting block and
// returns ctx.Err().
func (e *Engine) Query(ctx context.Context, req Request) (Response, error) {
	ix, q, limit, err := e.prepare(&req)
	if err != nil {
		return Response{}, err
	}
	// Over-fetch so quality/preference reordering has candidates. The
	// candidate pool depends only on limit+offset so that paginated
	// requests reorder a consistent set. The arithmetic saturates at
	// math.MaxInt: an offset near it must not wrap to a non-positive
	// limit, which means no limit at all.
	fetch := math.MaxInt
	if n := limit + req.Offset; req.Offset <= math.MaxInt-limit && n <= math.MaxInt/3 {
		fetch = n * 3
	}
	raw, err := ix.SearchContext(ctx, q, index.SearchOptions{Limit: fetch, SnippetField: "body"})
	if err != nil {
		return Response{}, err
	}
	resp := Response{
		Results: e.rerank(req, raw, limit),
		Stats:   Stats{Candidates: len(raw)},
	}
	if !req.ResultsOnly {
		if resp.Total, err = ix.CountContext(ctx, q); err != nil {
			return Response{}, err
		}
		if resp.SiteFacets, err = ix.FacetsContext(ctx, q, "site"); err != nil {
			return Response{}, err
		}
	}
	if resp.Results == nil && req.Offset > 0 {
		// Offset past the last hit: the aggregates still answer, but
		// no log entry, matching the pre-redesign behaviour of both
		// Search and SearchPage.
		return resp, nil
	}
	e.logQuery(req)
	return resp, nil
}

// Search runs a request against its vertical and returns only the
// ranked hits. It is a thin view over Query with ResultsOnly set, so
// the aggregate work (count, facets) is skipped.
func (e *Engine) Search(ctx context.Context, req Request) ([]Result, error) {
	req.ResultsOnly = true
	resp, err := e.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

func orQuery(qs []index.Query) index.Query {
	return index.BoolQuery{Should: qs}
}

// RecordClick logs that the end user clicked url for query. The site
// is derived from the URL host.
func (e *Engine) RecordClick(query, url string) {
	site := url
	if i := strings.Index(site, "://"); i >= 0 {
		site = site[i+3:]
	}
	if i := strings.IndexByte(site, '/'); i >= 0 {
		site = site[:i]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clicks = append(e.clicks, loggedEntry{seq: e.seq, LogEntry: LogEntry{Query: query, ClickedURL: url, Site: site}})
	e.seq++
}

// Log returns a copy of the query/click log in arrival order: every
// click, but only the most recent queryLogSize (4 096) queries.
func (e *Engine) Log() []LogEntry {
	e.mu.Lock()
	all := slices.Concat(e.queries, e.clicks)
	e.mu.Unlock()
	slices.SortFunc(all, func(a, b loggedEntry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]LogEntry, len(all))
	for i := range all {
		out[i] = all[i].LogEntry
	}
	return out
}

// AttachCache connects every vertical's index to a shared
// cross-request cache (see index.Cache). Each vertical gets its own
// key namespace; nil is a no-op so callers can pass an unconfigured
// cache straight through.
func (e *Engine) AttachCache(c *index.Cache) {
	if c == nil {
		return
	}
	for _, vt := range e.perVert {
		vt.ix.AttachCache(c)
	}
}

// Corpus exposes the underlying synthetic web (used by the crawler
// substrate and tests), generating it on the first call.
func (e *Engine) Corpus() *webcorpus.Corpus { return e.corpus() }

// DocCount returns the number of documents indexed in a vertical,
// indexing it first if nothing has read it yet.
func (e *Engine) DocCount(v webcorpus.Vertical) int {
	ix := e.index(v)
	if ix == nil {
		return 0
	}
	return ix.Len()
}

// VerticalStatus is the operator view of one vertical's index.
type VerticalStatus struct {
	Vertical webcorpus.Vertical `json:"vertical"`
	// Built reports whether a request has made the vertical index its
	// pages yet.
	Built bool `json:"built"`
	Docs  int  `json:"docs"`
	// BuildMs is how long indexing the pages took; the corpus
	// generation the first build waits on is Status.CorpusMs.
	BuildMs float64 `json:"buildMs"`
}

// Status is the operator view of the engine. A slow first query
// splits into CorpusMs, paid once by whichever request first needs the
// web, and the BuildMs of each vertical it read.
type Status struct {
	// CorpusMs is how long generating the synthetic web took; 0 until
	// a request has needed it.
	CorpusMs float64 `json:"corpusMs"`
	// Verticals is each vertical's build state, in
	// webcorpus.Verticals order.
	Verticals []VerticalStatus `json:"verticals"`
}

// Status reports the corpus generation time and each vertical's build
// state. It never generates the corpus or builds a vertical.
func (e *Engine) Status() Status {
	out := make([]VerticalStatus, 0, len(webcorpus.Verticals))
	for _, v := range webcorpus.Verticals {
		vt := e.perVert[v]
		st := VerticalStatus{Vertical: v}
		if vt.built.Load() {
			st.Built = true
			st.Docs = vt.ix.Len()
			st.BuildMs = float64(vt.buildNs.Load()) / 1e6
		}
		out = append(out, st)
	}
	return Status{CorpusMs: float64(e.corpusNs.Load()) / 1e6, Verticals: out}
}
