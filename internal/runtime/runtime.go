// Package runtime executes applications: it is the component in the
// middle of the paper's Fig 2. A query arrives from the embedded
// JavaScript, is processed by the primary content sources, then the
// supplemental sources are queried with fields drawn from each
// primary result, and everything is merged and formatted into HTML
// that is sent back for injection into the host page.
//
// The executor also implements the paper's customer-data hook ("In a
// more complex scenario, customer data could also be included to
// alter the query") and records every stage in a Trace so the Fig 2
// flow can be printed and benchmarked.
package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ads"
	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/engine"
	"repro/internal/render"
	"repro/internal/source"
	"repro/internal/store"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

// Query is one end-user request against an application.
type Query struct {
	Text string
	// Customer is an opaque visitor ID for analytics and
	// personalization.
	Customer string
	// Profile carries customer data used to alter the query — extra
	// preference terms appended to engine queries (the paper's "prefer
	// some types of games over others").
	Profile *CustomerProfile
	// Offset pages through primary results.
	Offset int
}

// CustomerProfile is the personalization record.
type CustomerProfile struct {
	PreferTerms []string
}

// SourceBlock is the executed output of one primary source.
type SourceBlock struct {
	SourceID string
	Kind     string
	Items    []source.Item
	// SupplementalByItem[i][suppID] holds supplemental items for
	// primary item i.
	SupplementalByItem []map[string][]source.Item
	// HTML is this block's part of Response.HTML.
	HTML string
}

// Response is the executed application output.
type Response struct {
	AppID  string
	Query  string
	HTML   string
	Blocks []SourceBlock
	Trace  *Trace
}

// Trace records per-stage timing, reproducing Fig 2's stages.
type Trace struct {
	Stages []Stage
	Total  time.Duration
}

// Stage is one timed pipeline step.
type Stage struct {
	Name     string
	Detail   string
	Duration time.Duration
	Items    int
	Err      string
}

func (t *Trace) add(name, detail string, d time.Duration, items int, err error) {
	s := Stage{Name: name, Detail: detail, Duration: d, Items: items}
	if err != nil {
		s.Err = err.Error()
	}
	t.Stages = append(t.Stages, s)
}

// Executor wires the platform services the runtime draws on.
type Executor struct {
	Store    *store.Store
	Engine   *engine.Engine
	Services *webservice.Client
	Ads      *ads.Service
	Log      *analytics.Log

	// SupplementalParallelism bounds concurrent supplemental fetches
	// per primary source (the ablation in DESIGN.md §5). 0 means 8;
	// 1 means sequential.
	SupplementalParallelism int

	// ClickBase, when set, routes rendered links through the hosting
	// click endpoint for monetization logging.
	ClickBase string

	// ResolveApp resolves composed applications (KindApp sources).
	// Nil disables composition.
	ResolveApp func(appID string) (*app.Application, error)

	// maxComposeDepth guards composed apps from cycles.
	maxComposeDepth int
}

// DefaultPrimaryLimit is used when a source sets no MaxResults.
const DefaultPrimaryLimit = 10

// DefaultSupplementalLimit bounds supplemental results per primary
// item when unset.
const DefaultSupplementalLimit = 3

// Execute runs the Fig 2 pipeline for one query.
func (x *Executor) Execute(ctx context.Context, a *app.Application, q Query) (*Response, error) {
	start := time.Now()
	if a == nil {
		return nil, fmt.Errorf("runtime: nil application")
	}
	// Cancellation is the caller giving up, not a partial outage: fail
	// the page instead of rendering a degraded one, so the serving
	// layer can map it to a timeout status. Per-source degradation
	// below stays reserved for genuine source failures.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	trace := &Trace{}
	trace.add("receive", fmt.Sprintf("query %q forwarded to Symphony", q.Text), 0, 0, nil)

	resp := &Response{AppID: a.ID, Query: q.Text, Trace: trace}
	click := (&render.Renderer{ClickBase: x.ClickBase, AppID: a.ID}).ClickPrefix()

	if x.Log != nil {
		x.Log.Record(analytics.Event{App: a.ID, Type: analytics.EventQuery, Query: q.Text, Customer: q.Customer})
	}

	// The whole page is written into one pooled buffer; block k's HTML
	// is page[bounds[k]:bounds[k+1]].
	buf := pagePool.Get().(*[]byte)
	page := render.AppendPageStart((*buf)[:0], a.ID)
	defer func() { putPage(buf, page) }()
	bounds := append(make([]int, 0, len(a.Primary)+1), len(page))
	for i := range a.Primary {
		sc := &a.Primary[i]
		block, err := x.executePrimary(ctx, a, sc, q, trace, 0)
		if err != nil {
			// A failing source degrades to an empty block rather than
			// failing the whole page: hosted apps must stay up when a
			// 3rd-party service is down.
			trace.add("primary:"+sc.ID, "failed", 0, 0, err)
			continue
		}
		stageStart := time.Now()
		page = appendBlock(page, a, sc, block, click)
		trace.add("render:"+sc.ID, "layout applied", time.Since(stageStart), len(block.Items), nil)
		resp.Blocks = append(resp.Blocks, *block)
		bounds = append(bounds, len(page))
	}
	if err := ctx.Err(); err != nil {
		// The deadline landed mid-page: every remaining source failed
		// with the same cancellation, so the partial page is garbage.
		return nil, err
	}
	stageStart := time.Now()
	page = append(page, render.PageEnd...)
	resp.HTML = string(page)
	for k := range resp.Blocks {
		resp.Blocks[k].HTML = resp.HTML[bounds[k]:bounds[k+1]]
	}
	trace.add("format", "merged content formatted into HTML", time.Since(stageStart), len(resp.Blocks), nil)
	trace.add("respond", "HTML returned to embedded JavaScript", 0, 0, nil)
	trace.Total = time.Since(start)
	return resp, nil
}

// pagePool recycles page buffers across requests. Nothing outlives
// Execute in one: the response holds a copy.
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledPage keeps a rare outsized page from pinning its buffer in
// the pool.
const maxPooledPage = 64 << 10

func putPage(buf *[]byte, page []byte) {
	if cap(page) > maxPooledPage {
		return
	}
	*buf = page[:0]
	pagePool.Put(buf)
}

func (x *Executor) executePrimary(ctx context.Context, a *app.Application, sc *app.SourceConfig, q Query, trace *Trace, depth int) (*SourceBlock, error) {
	src, err := x.resolve(ctx, a, sc, depth)
	if err != nil {
		return nil, err
	}
	limit := sc.MaxResults
	if limit <= 0 {
		limit = DefaultPrimaryLimit
	}
	// The source applies the offset itself: one paging path, and a
	// page past the last item costs only what the source makes of it.
	req := source.Request{Query: x.alteredQuery(sc, q), Limit: limit, Offset: max(q.Offset, 0)}
	stageStart := time.Now()
	items, err := src.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	// "Did you mean": a primary source with spell correction gets one
	// corrected retry when the query text matched nothing.
	if len(items) == 0 && req.Query != "" {
		if corrector, ok := src.(source.QueryCorrector); ok {
			if corrected, changed := corrector.CorrectQuery(req.Query); changed {
				noMatch, err := matchesNothing(ctx, src, req)
				if err != nil {
					return nil, err
				}
				if noMatch {
					req.Query = corrected
					items, err = src.Search(ctx, req)
					if err != nil {
						return nil, err
					}
					trace.add("didyoumean:"+sc.ID, fmt.Sprintf("query corrected to %q", corrected), 0, len(items), nil)
				}
			}
		}
	}
	trace.add("primary:"+sc.ID, fmt.Sprintf("%s source queried", src.Kind()), time.Since(stageStart), len(items), nil)

	block := &SourceBlock{SourceID: sc.ID, Kind: src.Kind(), Items: items}

	// Supplemental fan-out: which supplemental sources does this
	// primary's layout place?
	var suppConfigs []*app.SourceConfig
	if sc.Layout != nil {
		for _, slot := range sc.Layout.SourceSlots() {
			if ssc, ok := a.Source(slot); ok {
				suppConfigs = append(suppConfigs, ssc)
			}
		}
	}
	block.SupplementalByItem = make([]map[string][]source.Item, len(items))
	if len(suppConfigs) > 0 && len(items) > 0 {
		stageStart = time.Now()
		n, err := x.fanOut(ctx, a, block, suppConfigs, depth)
		detail := fmt.Sprintf("%d supplemental queries driven by primary fields", n)
		trace.add("supplemental:"+sc.ID, detail, time.Since(stageStart), n, err)
	}
	return block, nil
}

// matchesNothing reports whether req's query matches nothing at src,
// given that its page came back empty: at offset 0 that says so, past
// one the ranking may only end before the page, so the first item is
// asked for.
func matchesNothing(ctx context.Context, src source.Source, req source.Request) (bool, error) {
	if req.Offset == 0 {
		return true, nil
	}
	req.Limit, req.Offset = 1, 0
	first, err := src.Search(ctx, req)
	return len(first) == 0, err
}

// appendBlock renders one primary block at the end of page: each item
// through the source's compiled layout, with each supplemental list
// written at its slot.
func appendBlock(page []byte, a *app.Application, sc *app.SourceConfig, block *SourceBlock, click string) []byte {
	primary := render.Compile(sc.Layout, a.Stylesheet)
	supp := make(map[string]*render.Compiled) // supplemental layouts, compiled on first use
	page = append(page, `<div class="sym-source" data-source="`...)
	page = render.AppendEscaped(page, sc.ID)
	page = append(page, `">`...)
	for i, item := range block.Items {
		found := block.SupplementalByItem[i]
		page = primary.AppendItem(page, item, click, func(dst []byte, id string) []byte {
			items, ok := found[id]
			if !ok {
				return dst // failed, or not a source of this app: the slot stays empty
			}
			c := supp[id]
			if c == nil {
				ssc, _ := a.Source(id)
				c = render.Compile(ssc.Layout, a.Stylesheet)
				supp[id] = c
			}
			return c.AppendList(dst, items, click)
		})
	}
	return append(page, "</div>"...)
}

// fanOut queries every supplemental source for every primary item on
// min(SupplementalParallelism, jobs) workers, the calling goroutine
// being one of them. It returns the number of supplemental queries
// issued and the first error in job order (non-fatal).
func (x *Executor) fanOut(ctx context.Context, a *app.Application, block *SourceBlock, suppConfigs []*app.SourceConfig, depth int) (int, error) {
	// Job k queries suppConfigs[k%len] for item k/len.
	n := len(block.Items) * len(suppConfigs)
	type result struct {
		items []source.Item
		err   error
	}
	results := make([]result, n)
	var next atomic.Int64
	work := func() {
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			ssc, item := suppConfigs[k%len(suppConfigs)], block.Items[k/len(suppConfigs)]
			results[k].items, results[k].err = x.querySupplemental(ctx, a, ssc, item, depth)
		}
	}
	par := x.SupplementalParallelism
	if par <= 0 {
		par = 8
	}
	var wg sync.WaitGroup
	for w := 1; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	var firstErr error
	for i := range block.Items {
		block.SupplementalByItem[i] = make(map[string][]source.Item, len(suppConfigs))
	}
	for k, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		block.SupplementalByItem[k/len(suppConfigs)][suppConfigs[k%len(suppConfigs)].ID] = r.items
	}
	return n, firstErr
}

// querySupplemental runs one supplemental source for one primary
// item, passing the configured drive fields as args.
func (x *Executor) querySupplemental(ctx context.Context, a *app.Application, sc *app.SourceConfig, item source.Item, depth int) ([]source.Item, error) {
	src, err := x.resolve(ctx, a, sc, depth)
	if err != nil {
		return nil, err
	}
	args := make(map[string]string, len(sc.DriveFields))
	for _, f := range sc.DriveFields {
		args[f] = item[f]
	}
	limit := sc.MaxResults
	if limit <= 0 {
		limit = DefaultSupplementalLimit
	}
	// The query template is expanded by the source itself (engine/ads
	// sources) or ignored (service sources use args directly).
	return src.Search(ctx, source.Request{Args: args, Limit: limit})
}

// alteredQuery applies customer personalization to engine-backed
// primary sources.
func (x *Executor) alteredQuery(sc *app.SourceConfig, q Query) string {
	text := q.Text
	if q.Profile == nil || len(q.Profile.PreferTerms) == 0 {
		return text
	}
	switch sc.Kind {
	case app.KindWebSearch, app.KindImageSearch, app.KindVideoSearch, app.KindNewsSearch:
		for _, t := range q.Profile.PreferTerms {
			text += " " + t
		}
	}
	return text
}

// resolve turns a SourceConfig into a live Source.
func (x *Executor) resolve(ctx context.Context, a *app.Application, sc *app.SourceConfig, depth int) (source.Source, error) {
	switch sc.Kind {
	case app.KindProprietary:
		if x.Store == nil {
			return nil, fmt.Errorf("runtime: no store configured")
		}
		ds, err := x.Store.DatasetContext(ctx, a.Tenant, a.Owner, sc.Dataset, store.PermRead)
		if err != nil {
			return nil, fmt.Errorf("runtime: source %s: %w", sc.ID, err)
		}
		return &source.StoreSource{
			SourceName:   sc.ID,
			Dataset:      ds,
			SearchFields: sc.SearchFields,
			Filters:      sc.Filters,
			OrderBy:      sc.OrderBy,
		}, nil
	case app.KindWebSearch, app.KindImageSearch, app.KindVideoSearch, app.KindNewsSearch:
		if x.Engine == nil {
			return nil, fmt.Errorf("runtime: no engine configured")
		}
		return &source.EngineSource{
			SourceName:    sc.ID,
			Engine:        x.Engine,
			Vertical:      verticalOf(sc.Kind),
			Sites:         sc.Sites,
			AddTerms:      sc.AddTerms,
			PreferURLs:    sc.PreferURLs,
			QueryTemplate: sc.QueryTemplate,
		}, nil
	case app.KindAds:
		if x.Ads == nil {
			return nil, fmt.Errorf("runtime: no ad service configured")
		}
		return &source.AdSource{SourceName: sc.ID, Service: x.Ads, QueryTemplate: sc.QueryTemplate}, nil
	case app.KindService:
		if x.Services == nil {
			return nil, fmt.Errorf("runtime: no service client configured")
		}
		return &source.ServiceSource{SourceName: sc.ID, Client: x.Services, Definition: sc.Service}, nil
	case app.KindApp:
		return x.resolveApp(sc, depth)
	default:
		return nil, fmt.Errorf("runtime: source %s: unknown kind %q", sc.ID, sc.Kind)
	}
}

func verticalOf(k app.SourceKind) webcorpus.Vertical {
	switch k {
	case app.KindImageSearch:
		return webcorpus.VerticalImage
	case app.KindVideoSearch:
		return webcorpus.VerticalVideo
	case app.KindNewsSearch:
		return webcorpus.VerticalNews
	default:
		return webcorpus.VerticalWeb
	}
}

// resolveApp implements application composition (§IV future work:
// "creating new applications by composing other applications"): the
// composed app's primary results become this source's items.
func (x *Executor) resolveApp(sc *app.SourceConfig, depth int) (source.Source, error) {
	if x.ResolveApp == nil {
		return nil, fmt.Errorf("runtime: source %s: app composition not configured", sc.ID)
	}
	maxDepth := x.maxComposeDepth
	if maxDepth == 0 {
		maxDepth = 3
	}
	if depth >= maxDepth {
		return nil, fmt.Errorf("runtime: source %s: app composition too deep", sc.ID)
	}
	sub, err := x.ResolveApp(sc.AppID)
	if err != nil {
		return nil, fmt.Errorf("runtime: source %s: %w", sc.ID, err)
	}
	return &source.Func{
		SourceName: sc.ID,
		SourceKind: "app",
		Fn: func(ctx context.Context, req source.Request) ([]source.Item, error) {
			query := req.Query
			if sc.QueryTemplate != "" {
				query = webservice.ExpandTemplate(sc.QueryTemplate, req.Args)
			}
			var all []source.Item
			for i := range sub.Primary {
				psc := &sub.Primary[i]
				srcSub, err := x.resolve(ctx, sub, psc, depth+1)
				if err != nil {
					return nil, err
				}
				items, err := srcSub.Search(ctx, source.Request{Query: query, Limit: req.Limit})
				if err != nil {
					return nil, err
				}
				all = append(all, items...)
			}
			if req.Limit > 0 && len(all) > req.Limit {
				all = all[:req.Limit]
			}
			return all, nil
		},
	}, nil
}
