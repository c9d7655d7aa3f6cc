// Package repro holds the repository-level benchmark harness: one
// benchmark (family) per experiment in DESIGN.md §4 — Table I, Fig 1,
// Fig 2 and the supplementary performance evaluations P1–P6 — plus
// the ablations of §5. Run with:
//
//	go test -bench=. -benchmem .
//
// EXPERIMENTS.md records the measured outputs next to what the paper
// reports.
package repro

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ads"
	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/runtime"
	"repro/internal/sitesuggest"
	"repro/internal/store"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
	"repro/internal/workload"
)

// ---- shared fixtures ----

var (
	onceCorpus sync.Once
	corpus     *webcorpus.Corpus

	oncePlatform sync.Once
	platform     *core.Platform
	gamerqueen   *demo.Scenario
)

func sharedCorpus() *webcorpus.Corpus {
	onceCorpus.Do(func() {
		corpus = webcorpus.Generate(webcorpus.Config{Seed: 1})
	})
	return corpus
}

// warmPlatform indexes every engine vertical now, so a benchmark
// built on p times warm queries, not the first query's one-time build.
func warmPlatform(p *core.Platform) *core.Platform {
	for _, v := range webcorpus.Verticals {
		p.Engine.DocCount(v)
	}
	return p
}

func sharedPlatform(b *testing.B) (*core.Platform, *demo.Scenario) {
	b.Helper()
	oncePlatform.Do(func() {
		platform = warmPlatform(core.NewWithCorpus(core.Config{Seed: 1}, sharedCorpus()))
		var err error
		gamerqueen, err = demo.GamerQueen(platform, 1, 10)
		if err != nil {
			panic(err)
		}
	})
	return platform, gamerqueen
}

// ---- T1: Table I capability probes ----

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := warmPlatform(core.NewWithCorpus(core.Config{Seed: 1}, sharedCorpus()))
		b.StartTimer()
		systems, err := baselines.AllSystems(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := baselines.RenderTableI(context.Background(), systems); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- F1: design-interface session (build the Fig 1 application) ----

func BenchmarkFig1Designer(b *testing.B) {
	p, _ := sharedPlatform(b)
	_ = p
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fresh := core.NewWithCorpus(core.Config{Seed: 1}, sharedCorpus())
		sc, err := demo.GamerQueen(fresh, 1, 8)
		if err != nil {
			b.Fatal(err)
		}
		sc.Close()
	}
}

// ---- F2: query execution pipeline ----

func BenchmarkFig2Pipeline(b *testing.B) {
	p, sc := sharedPlatform(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := runtime.Query{Text: sc.Titles[i%len(sc.Titles)]}
		if _, err := p.Query(ctx, "gamerqueen", q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- P1: ingestion throughput by format ----

func csvPayload(n int) string {
	var sb strings.Builder
	sb.WriteString("sku,title,producer,description,price\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "S%d,Product %d Deluxe,Maker%d,a fine product number %d with features,%d.99\n", i, i, i%7, i, 10+i%90)
	}
	return sb.String()
}

func xmlPayload(n int) string {
	var sb strings.Builder
	sb.WriteString("<items>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<item><sku>S%d</sku><title>Product %d Deluxe</title><price>%d.99</price></item>", i, i, 10+i%90)
	}
	sb.WriteString("</items>")
	return sb.String()
}

func rssPayload(n int) string {
	var sb strings.Builder
	sb.WriteString(`<rss><channel><title>feed</title>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<item><title>Story %d</title><link>http://n.example/%d</link><description>story number %d</description></item>", i, i, i)
	}
	sb.WriteString("</channel></rss>")
	return sb.String()
}

func xlsPayload(n int) string {
	var sb strings.Builder
	sb.WriteString("=XLSGRID\nsku\ttitle\tprice\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "S%d\tProduct %d\t%d.99\n", i, i, 10+i%90)
	}
	return sb.String()
}

func BenchmarkIngest(b *testing.B) {
	cases := []struct {
		format  ingest.Format
		payload func(int) string
	}{
		{ingest.FormatCSV, csvPayload},
		{ingest.FormatXML, xmlPayload},
		{ingest.FormatRSS, rssPayload},
		{ingest.FormatXLS, xlsPayload},
	}
	for _, size := range []int{1000, 10000} {
		for _, c := range cases {
			payload := c.payload(size)
			b.Run(fmt.Sprintf("%s/n=%d", c.format, size), func(b *testing.B) {
				b.SetBytes(int64(len(payload)))
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					st := store.New()
					st.CreateTenant("t", "o")
					up := &ingest.Uploader{Store: st}
					b.StartTimer()
					rep, err := up.Upload(ingest.Options{
						Tenant: "t", Actor: "o", Dataset: "d", Format: c.format,
					}, strings.NewReader(payload))
					if err != nil {
						b.Fatal(err)
					}
					if rep.Loaded != size {
						b.Fatalf("loaded %d", rep.Loaded)
					}
				}
				b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}

// ---- P2: index and query scaling ----

func synthDocs(n int) []index.Document {
	rng := rand.New(rand.NewSource(7))
	words := []string{"search", "platform", "proprietary", "data", "engine", "review", "game", "wine", "movie", "service", "custom", "vertical", "result", "layout", "designer", "symphony"}
	docs := make([]index.Document, n)
	for i := range docs {
		var body strings.Builder
		for w := 0; w < 30; w++ {
			body.WriteString(words[rng.Intn(len(words))])
			body.WriteByte(' ')
		}
		fmt.Fprintf(&body, "unique%d", i)
		docs[i] = index.Document{
			ID:     fmt.Sprintf("d%d", i),
			Fields: map[string]string{"body": body.String()},
			Stored: map[string]string{"ord": fmt.Sprint(i)},
		}
	}
	return docs
}

func BenchmarkIndexAdd(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		docs := synthDocs(size)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := index.New()
				if err := ix.AddBatch(docs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// shardConfigs compares the pre-refactor single-lock layout
// (WithShards(1)) against the default sharded fan-out.
func shardConfigs() []struct {
	name string
	opts []index.Option
} {
	return []struct {
		name string
		opts []index.Option
	}{
		{"shards=1", []index.Option{index.WithShards(1)}},
		{"shards=default", nil},
	}
}

func BenchmarkQueryBM25(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		for _, cfg := range shardConfigs() {
			ix := index.New(cfg.opts...)
			if err := ix.AddBatch(synthDocs(size)); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("n=%d/%s", size, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rs := mustSearch(ix, index.MatchQuery{Text: "search platform review"}, index.SearchOptions{Limit: 10})
					if len(rs) == 0 {
						b.Fatal("no results")
					}
				}
			})
		}
	}
}

// BenchmarkQueryParallel measures query throughput with many
// concurrent clients, the shape of hosted platform traffic. read-only
// stresses lock-word contention on the shared index; read-write mixes
// in document updates, where a single-lock index stalls every reader
// behind each writer but a sharded one blocks only 1/N of the corpus.
func BenchmarkQueryParallel(b *testing.B) {
	docs := synthDocs(20000)
	queries := []string{
		"search platform review",
		"wine vertical result",
		"movie engine custom",
		"designer symphony data",
	}
	for _, cfg := range shardConfigs() {
		build := func(b *testing.B) *index.Index {
			b.Helper()
			ix := index.New(cfg.opts...)
			if err := ix.AddBatch(docs); err != nil {
				b.Fatal(err)
			}
			return ix
		}
		b.Run("read-only/"+cfg.name, func(b *testing.B) {
			ix := build(b)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					rs := mustSearch(ix, index.MatchQuery{Text: queries[i%len(queries)]}, index.SearchOptions{Limit: 10})
					if len(rs) == 0 {
						b.Error("no results")
						return
					}
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
		b.Run("read-write/"+cfg.name, func(b *testing.B) {
			ix := build(b)
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				i := 0
				for pb.Next() {
					if i%8 == 7 {
						ix.Add(index.Document{
							ID:     fmt.Sprintf("hot-w%d-%d", w, i%64),
							Fields: map[string]string{"body": "fresh review search platform update"},
						})
					} else {
						mustSearch(ix, index.MatchQuery{Text: queries[i%len(queries)]}, index.SearchOptions{Limit: 10})
					}
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
}

func BenchmarkQueryPhrase(b *testing.B) {
	ix := index.New()
	if err := ix.AddBatch(synthDocs(10000)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustSearch(ix, index.PhraseQuery{Field: "body", Text: "search platform"}, index.SearchOptions{Limit: 10})
	}
}

// ---- P3: pipeline latency decomposition (supplemental fan-out) ----

// appSource is the shared GamerQueen inventory primary used by the
// fan-out series; webSupplemental is one site-restricted web search.
func appSource(string) app.SourceConfig {
	return app.SourceConfig{ID: "inventory", Kind: app.KindProprietary, Dataset: "inventory", MaxResults: 4}
}

func webSupplemental(id string) app.SourceConfig {
	return app.SourceConfig{
		ID: id, Kind: app.KindWebSearch, MaxResults: 2,
		Sites: []string{"ign.com", "gamespot.com", "teamxbox.com"},
	}
}

func BenchmarkPipelineFanout(b *testing.B) {
	p, sc := sharedPlatform(b)
	for _, parallelism := range []int{1, 8} {
		for _, k := range []int{0, 1, 2, 4} {
			appID := fmt.Sprintf("fan-k%d-p%d", k, parallelism)
			if _, ok := p.Registry.Get(appID); !ok {
				d := p.NewApp(appID, appID, "ann", "gamerqueen")
				d.DropPrimary(appSource(appID))
				d.SetSearchFields("inventory", "title")
				d.UseTemplate("inventory", "title-link", map[string]string{"title": "title", "url": "detailurl"})
				for s := 0; s < k; s++ {
					suppID := fmt.Sprintf("web%d", s)
					d.DropSupplemental("inventory", webSupplemental(suppID))
					d.SetDriveFields(suppID, "{title} review", "title")
					d.UseTemplate(suppID, "headline-snippet", map[string]string{"title": "title", "url": "url", "snippet": "snippet"})
				}
				a, err := d.Build()
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Registry.Publish(a); err != nil {
					b.Fatal(err)
				}
			}
			name := fmt.Sprintf("k=%d/parallel=%d", k, parallelism)
			b.Run(name, func(b *testing.B) {
				exec := *p.Executor
				exec.SupplementalParallelism = parallelism
				a, _ := p.Registry.Get(appID)
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Execute(ctx, a, runtime.Query{Text: sc.Titles[i%len(sc.Titles)]}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- P4: hosted QPS ----

func BenchmarkHostQPS(b *testing.B) {
	p, _ := sharedPlatform(b)
	srv := httptest.NewServer(p.Serve("http://bench.example"))
	defer srv.Close()
	client := srv.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 64}
	// Zipf-distributed query stream over the catalog's entities, the
	// heavy-tailed shape real hosted traffic has.
	queries := workload.New(workload.Config{Seed: 1, Entities: 10, ModifierRate: 0.3}).Take(4096)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := strings.ReplaceAll(queries[i%len(queries)], " ", "+")
			resp, err := client.Get(srv.URL + "/query?app=gamerqueen&q=" + q)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

// ---- P5: Site Suggest scaling ----

func BenchmarkSiteSuggest(b *testing.B) {
	for _, logSize := range []int{1000, 10000, 100000} {
		log := make([]engine.LogEntry, 0, logSize)
		sites := sharedCorpus().Sites
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < logSize; i++ {
			site := sites[rng.Intn(len(sites))].Domain
			log = append(log, engine.LogEntry{
				Query: fmt.Sprintf("query-%d", rng.Intn(logSize/10+1)),
				Site:  site, ClickedURL: "http://" + site + "/x",
			})
		}
		b.Run(fmt.Sprintf("log=%d", logSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := sitesuggest.Build(log)
				if got := s.Suggest([]string{"ign.com", "gamespot.com"}, 5); len(got) == 0 {
					b.Fatal("no suggestions")
				}
			}
		})
	}
}

// ---- P6: ad auction and revenue reporting ----

func BenchmarkAdAuction(b *testing.B) {
	svc := ads.NewService()
	rng := rand.New(rand.NewSource(5))
	kws := []string{"game", "zelda", "halo", "wine", "merlot", "movie", "trailer", "deal", "sale", "review"}
	for i := 0; i < 1000; i++ {
		err := svc.Register(ads.Ad{
			ID: fmt.Sprintf("ad%d", i), Advertiser: fmt.Sprintf("adv%d", i%50),
			Title: "t", Text: "x", LandingURL: "http://a.example",
			Keywords: []string{kws[rng.Intn(len(kws))], kws[rng.Intn(len(kws))]},
			BidCPC:   0.05 + rng.Float64(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := svc.Select("zelda game deal", 3); len(got) == 0 {
			b.Fatal("no ads")
		}
	}
}

func BenchmarkRevenueReport(b *testing.B) {
	log := analytics.NewLog()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50000; i++ {
		switch rng.Intn(3) {
		case 0:
			log.Record(analytics.Event{App: "a", Type: analytics.EventQuery, Query: fmt.Sprintf("q%d", rng.Intn(100))})
		case 1:
			log.Record(analytics.Event{App: "a", Type: analytics.EventClick, URL: fmt.Sprintf("http://s%d.example/x", rng.Intn(20))})
		default:
			log.Record(analytics.Event{App: "a", Type: analytics.EventAdClick, Revenue: rng.Float64()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := log.Summarize("a", 5)
		if s.Queries == 0 {
			b.Fatal("empty summary")
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

func BenchmarkSnippets(b *testing.B) {
	ix := index.New()
	if err := ix.AddBatch(synthDocs(10000)); err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustSearch(ix, index.MatchQuery{Text: "search platform"}, index.SearchOptions{Limit: 10})
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustSearch(ix, index.MatchQuery{Text: "search platform"}, index.SearchOptions{Limit: 10, SnippetField: "body"})
		}
	})
}

func BenchmarkRankers(b *testing.B) {
	docs := synthDocs(10000)
	for _, r := range []struct {
		name   string
		ranker index.Ranker
	}{{"bm25", index.RankerBM25}, {"tfidf", index.RankerTFIDF}} {
		ix := index.New()
		if err := ix.AddBatch(docs); err != nil {
			b.Fatal(err)
		}
		ix.SetRanker(r.ranker)
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rs := mustSearch(ix, index.MatchQuery{Text: "search platform review"}, index.SearchOptions{Limit: 10}); len(rs) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

func BenchmarkServiceCache(b *testing.B) {
	_, sc := sharedPlatform(b)
	for _, ttl := range []int{0, 60000} {
		b.Run(map[int]string{0: "off", 60000: "on"}[ttl], func(b *testing.B) {
			pricing := webservice.NewPricingService(9, sc.Titles)
			srv := httptest.NewServer(pricing)
			defer srv.Close()
			client := webservice.NewClient(srv.Client())
			def := webservice.Definition{
				Name: "pricing", Endpoint: srv.URL + "/price",
				Params:     map[string]string{"title": "{title}"},
				CacheTTLMS: ttl,
			}
			ctx := context.Background()
			args := map[string]string{"title": sc.Titles[0]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Call(ctx, def, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mustSearch keeps the benchmark bodies on the ctx-first API without
// per-iteration error plumbing; queries here never carry a deadline.
func mustSearch(ix *index.Index, q index.Query, opts index.SearchOptions) []index.Result {
	rs, err := ix.SearchContext(context.Background(), q, opts)
	if err != nil {
		panic(err)
	}
	return rs
}
