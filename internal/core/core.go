// Package core assembles the Symphony platform: the search engine
// substrate, proprietary data store, ingestion, web services, ads,
// analytics, hosting registry and execution runtime behind one
// facade. Examples, command-line tools and benchmarks construct a
// Platform and work through it, the way a designer works through the
// hosted service in the paper.
package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/ads"
	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/engine"
	"repro/internal/host"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/publish"
	"repro/internal/runtime"
	"repro/internal/sitesuggest"
	"repro/internal/store"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

// Config controls platform construction.
type Config struct {
	// Seed drives the synthetic web corpus (default 1).
	Seed int64
	// CorpusPagesPerSite scales the synthetic web (default 40).
	CorpusPagesPerSite int
	// HTTPClient is used for web-service and upload fetches; nil
	// means http.DefaultClient (tests inject httptest clients).
	HTTPClient *http.Client
	// ClickBase routes rendered links through the hosting click
	// endpoint; empty disables click logging in links.
	ClickBase string
	// SupplementalParallelism is forwarded to the executor.
	SupplementalParallelism int
	// ShardTarget fixes the full-text index shard count for every
	// store dataset. 0 (auto) gives a new dataset one shard per CPU
	// and keeps the count a restored dataset was written with, so a
	// checkpoint boots fully mapped on any host. A fixed target is
	// re-applied when a checkpoint is restored: a snapshot written
	// under another count reshards to it, onto the heap.
	ShardTarget int
	// CacheMB sizes the shared cross-request result cache attached to
	// every engine vertical and store dataset, in megabytes. Zero
	// disables caching (the default — tests and one-shot tools skip
	// the memory). Entries are stamped with each index's mutation era,
	// so a hit can never serve data from before a write.
	CacheMB int
}

// Platform is a fully wired Symphony instance.
type Platform struct {
	// Engine is the web substrate. It generates its corpus and indexes
	// each vertical on first use, so construction builds nothing.
	Engine *engine.Engine
	Store  *store.Store
	// Cache is the shared cross-request result cache (nil when
	// Config.CacheMB was zero). Exposed for operator stats.
	Cache    *index.Cache
	Uploader *ingest.Uploader
	Services *webservice.Client
	Ads      *ads.Service
	Log      *analytics.Log
	Registry *host.Registry
	Executor *runtime.Executor
	Facebook *publish.SocialPlatform
}

// New builds a platform over the synthetic web of cfg's seed. The web
// is generated only when a request first reads it.
func New(cfg Config) *Platform {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	wc := webcorpus.Config{Seed: cfg.Seed, PagesPerSite: cfg.CorpusPagesPerSite}
	return newPlatform(cfg, func() *webcorpus.Corpus { return webcorpus.Generate(wc) })
}

// NewWithCorpus builds a platform over an existing corpus (shared by
// benchmarks to avoid regenerating the web per run).
func NewWithCorpus(cfg Config, corpus *webcorpus.Corpus) *Platform {
	return newPlatform(cfg, func() *webcorpus.Corpus { return corpus })
}

func newPlatform(cfg Config, corpus func() *webcorpus.Corpus) *Platform {
	var cache *index.Cache
	if cfg.CacheMB > 0 {
		cache = index.NewCache(int64(cfg.CacheMB) << 20)
	}
	p := &Platform{
		Cache:    cache,
		Engine:   engine.New(corpus),
		Store:    store.New(store.WithShardTarget(cfg.ShardTarget), store.WithCache(cache)),
		Services: webservice.NewClient(cfg.HTTPClient),
		Ads:      ads.NewService(),
		Log:      analytics.NewLog(),
		Registry: host.NewRegistry(),
		Facebook: publish.NewSocialPlatform("facebook"),
	}
	p.Engine.AttachCache(cache)
	p.Uploader = &ingest.Uploader{Store: p.Store, Client: cfg.HTTPClient}
	p.Executor = &runtime.Executor{
		Store:                   p.Store,
		Engine:                  p.Engine,
		Services:                p.Services,
		Ads:                     p.Ads,
		Log:                     p.Log,
		ClickBase:               cfg.ClickBase,
		SupplementalParallelism: cfg.SupplementalParallelism,
	}
	p.Executor.ResolveApp = func(appID string) (*app.Application, error) {
		a, ok := p.Registry.Get(appID)
		if !ok {
			return nil, fmt.Errorf("core: composed app %q not published", appID)
		}
		return a, nil
	}
	return p
}

// RegisterDesigner creates a designer account with a private data
// space of the same name.
func (p *Platform) RegisterDesigner(designer, tenant string) error {
	return p.Store.CreateTenant(tenant, designer)
}

// Upload loads proprietary data from a reader.
func (p *Platform) Upload(opts ingest.Options, r io.Reader) (*ingest.Report, error) {
	return p.Uploader.Upload(opts, r)
}

// UploadURL loads proprietary data from a URL (HTTP upload, RSS feed
// or crawl export).
func (p *Platform) UploadURL(opts ingest.Options, url string) (*ingest.Report, error) {
	return p.Uploader.UploadURL(opts, url)
}

// NewApp starts a designer session for building an application.
func (p *Platform) NewApp(id, name, owner, tenant string) *app.Designer {
	return app.NewDesigner(id, name, owner, tenant)
}

// Publish validates and hosts an application, returning the web embed
// snippet for the designer's site.
func (p *Platform) Publish(a *app.Application, targets ...publish.Target) (*publish.WebEmbed, error) {
	if err := p.Registry.Publish(a); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		targets = []publish.Target{publish.TargetWeb}
	}
	return publish.Distribute(p.baseURL(), a, p.Facebook, targets...)
}

func (p *Platform) baseURL() string {
	return "http://symphony.example"
}

// Query executes a hosted application for an end user.
func (p *Platform) Query(ctx context.Context, appID string, q runtime.Query) (*runtime.Response, error) {
	a, ok := p.Registry.Get(appID)
	if !ok {
		return nil, fmt.Errorf("core: application %q not published", appID)
	}
	return p.Executor.Execute(ctx, a, q)
}

// RecordClick logs a content click on a hosted application.
func (p *Platform) RecordClick(appID, url, customer string) {
	p.Log.Record(analytics.Event{App: appID, Type: analytics.EventClick, URL: url, Customer: customer})
}

// RecordAdClick bills an ad click and credits the app's designer.
func (p *Platform) RecordAdClick(appID string, sel ads.Selected, customer string) float64 {
	a, ok := p.Registry.Get(appID)
	designer := ""
	if ok {
		designer = a.Owner
	}
	credit := p.Ads.RecordClick(designer, sel)
	p.Log.Record(analytics.Event{
		App:      appID,
		Type:     analytics.EventAdClick,
		URL:      sel.Ad.LandingURL,
		Revenue:  credit,
		Customer: customer,
	})
	return credit
}

// TrafficSummary returns the designer-facing traffic summary.
func (p *Platform) TrafficSummary(appID string) analytics.Summary {
	return p.Log.Summarize(appID, 5)
}

// SiteSuggest mines the engine's click log and suggests sites related
// to the seeds (§II-A Site Suggest). It sees every click the engine
// recorded, because the log's bound drops only old queries.
func (p *Platform) SiteSuggest(seeds []string, limit int) []sitesuggest.Suggestion {
	return sitesuggest.Build(p.Engine.Log()).Suggest(seeds, limit)
}

// ServeOptions configures the serving layer's quality of service.
type ServeOptions struct {
	// QueryTimeout caps each query's execution (0 = unbounded). A
	// query over the deadline is cancelled mid-evaluation and
	// answered 504.
	QueryTimeout time.Duration
	// Admission bounds per-tenant concurrency when non-nil; shed
	// requests get 429 + Retry-After.
	Admission *host.AdmissionController
	// Limiter meters per-app offered load when non-nil.
	Limiter *host.RateLimiter
}

// Serve returns an HTTP handler hosting all published applications,
// with the designer admin API mounted under /admin/.
func (p *Platform) Serve(baseURL string) http.Handler {
	return p.ServeWith(baseURL, ServeOptions{})
}

// ServeWith is Serve with explicit QoS: per-query deadlines,
// per-tenant admission control and per-app rate limiting.
func (p *Platform) ServeWith(baseURL string, opts ServeOptions) http.Handler {
	srv := &host.Server{
		Registry:     p.Registry,
		Executor:     p.Executor,
		Log:          p.Log,
		BaseURL:      baseURL,
		Limiter:      opts.Limiter,
		Admission:    opts.Admission,
		QueryTimeout: opts.QueryTimeout,
	}
	admin := &host.Admin{
		Registry: p.Registry,
		Uploader: p.Uploader,
		Log:      p.Log,
		Suggest: func(seeds []string, limit int) []string {
			sugs := p.SiteSuggest(seeds, limit)
			out := make([]string, len(sugs))
			for i, s := range sugs {
				out[i] = s.Site
			}
			return out
		},
	}
	mux := http.NewServeMux()
	mux.Handle("/admin/", admin.Handler())
	mux.Handle("/", srv.Handler())
	return mux
}
