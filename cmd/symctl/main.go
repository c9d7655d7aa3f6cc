// Command symctl is the designer-facing command line for a demo
// Symphony platform: it walks the §II-B lifecycle — upload data,
// inspect the app config, query it, pull monetization reports, and
// ask for site suggestions — against an in-process platform seeded
// with the GamerQueen scenario.
//
// Usage:
//
//	symctl query -q "halo"            execute GamerQueen for a query
//	symctl serp -q "halo"             engine results page: hits + total + site facets
//	symctl config                     print the application JSON
//	symctl snippet                    print the embed snippet
//	symctl report                     traffic + revenue summary
//	symctl suggest -sites a.com,b.com related-site suggestions
//	symctl recommend                  supplemental sites for inventory
//	symctl structured -q "price:<30"  structured query over inventory
//	symctl load -i data.csv -dataset d -key sku   batched upload into a dataset
//	symctl snapshot -o store.snap     write a durable store snapshot
//	symctl restore -i store.snap      restore a snapshot and summarize
//	symctl reshard <tenant> <dataset> <n>  rebuild a dataset index at n shards
//	symctl status                     per-dataset shard layout
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/host"
	"repro/internal/ingest"
	"repro/internal/recommend"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/structured"
	"repro/internal/webcorpus"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	q := fs.String("q", "", "query text")
	sites := fs.String("sites", "ign.com,gamespot.com", "comma-separated seed sites")
	seed := fs.Int64("seed", 1, "synthetic web seed")
	out := fs.String("o", "store.snap", "snapshot output path (snapshot)")
	in := fs.String("i", "store.snap", "input path (restore: snapshot; load: data file)")
	dataset := fs.String("dataset", "", "target dataset name (load)")
	format := fs.String("format", "", "upload format csv|json|rss (load; empty = detect from filename)")
	key := fs.String("key", "", "column promoted to record key on inferred schemas (load)")
	timeout := fs.Duration("timeout", 0, "overall command deadline (0 = none); Ctrl-C always cancels")
	fs.Parse(os.Args[2:])

	// Every subcommand runs under one context: SIGINT cancels it, and
	// --timeout adds a deadline. Long operations (serp, snapshot,
	// restore, reshard) abort mid-flight instead of running to
	// completion after the operator gives up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	p := core.New(core.Config{Seed: *seed})
	sc, err := demo.GamerQueen(p, *seed, 10)
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()

	switch cmd {
	case "query":
		text := *q
		if text == "" {
			text = sc.Titles[0]
		}
		resp, err := p.Query(ctx, "gamerqueen", runtime.Query{Text: text})
		if err != nil {
			log.Fatal(err)
		}
		for _, block := range resp.Blocks {
			fmt.Printf("source %s (%s): %d items\n", block.SourceID, block.Kind, len(block.Items))
			for i, item := range block.Items {
				fmt.Printf("  %d. %s\n", i+1, item["title"])
				for suppID, suppItems := range block.SupplementalByItem[i] {
					for _, si := range suppItems {
						label := si["title"]
						if label == "" {
							label = "price=" + si["price"]
						}
						fmt.Printf("      [%s] %s\n", suppID, label)
					}
				}
			}
		}
	case "serp":
		// A full engine results page: ranked hits, total count and the
		// site facet sidebar.
		text := *q
		if text == "" {
			text = sc.Titles[0] + " review"
		}
		page, err := p.Engine.Query(ctx, engine.Request{Query: text, Limit: 10})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d total hits for %q\n", page.Total, text)
		for i, r := range page.Results {
			fmt.Printf("  %2d. %.3f  %s\n", i+1, r.Score, r.URL)
		}
		fmt.Println("sites:")
		for _, f := range page.SiteFacets {
			fmt.Printf("  %4d  %s\n", f.N, f.Value)
		}
	case "config":
		data, err := app.Marshal(sc.App)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	case "snippet":
		fmt.Println(host.EmbedSnippet("http://symphony.example", "gamerqueen"))
	case "report":
		// Generate a little traffic first so the report is non-empty.
		for _, t := range sc.Titles[:3] {
			if _, err := p.Query(ctx, "gamerqueen", runtime.Query{Text: t}); err != nil {
				log.Fatal(err)
			}
		}
		p.RecordClick("gamerqueen", "http://ign.com/review/1", "c1")
		s := p.TrafficSummary("gamerqueen")
		fmt.Printf("queries=%d clicks=%d adclicks=%d ctr=%.2f revenue=$%.2f users=%d\n",
			s.Queries, s.Clicks, s.AdClicks, s.CTR, s.Revenue, s.UniqueUsers)
		fmt.Println("top queries:")
		for _, c := range s.TopQueries {
			fmt.Printf("  %4d  %s\n", c.N, c.Label)
		}
		fmt.Print("\nDownloadable click log (CSV):\n")
		fmt.Print(p.Log.ExportCSV("gamerqueen"))
	case "suggest":
		demo.SeedEngineClicks(p, webcorpus.TopicGames, 6)
		seeds := strings.Split(*sites, ",")
		for _, sg := range p.SiteSuggest(seeds, 5) {
			fmt.Printf("%.3f  %s\n", sg.Score, sg.Site)
		}
	case "recommend":
		ds, err := p.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermRead)
		if err != nil {
			log.Fatal(err)
		}
		recs, err := recommend.SupplementalSites(ctx, p.Engine, ds, recommend.Options{
			DriveField: "title", ProbeSuffix: "review", Limit: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("recommended supplemental sites for 'inventory':")
		for _, r := range recs {
			fmt.Printf("  %.3f (%d probe hits)  %s\n", r.Score, r.Hits, r.Site)
		}
	case "structured":
		ds, err := p.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermRead)
		if err != nil {
			log.Fatal(err)
		}
		text := *q
		if text == "" {
			text = "sort:title"
		}
		hits, err := structured.Apply(ctx, ds, text, 10)
		if err != nil {
			log.Fatal(err)
		}
		for _, h := range hits {
			fmt.Printf("%s  %s\n", h.Record["sku"], h.Record["title"])
		}
	case "load":
		// symctl load -i data.csv -dataset inventory2 [-key sku]: a
		// batched upload through the ingest path — one parse, one
		// AddBatch (parallel analysis, one lock acquisition per index
		// shard), one report. symctl acts as Ann in the gamerqueen
		// tenant, so the usual write grant rules apply.
		if *dataset == "" {
			fmt.Fprintln(os.Stderr, "usage: symctl load -i <file> -dataset <name> [-format csv|json|rss] [-key field]")
			os.Exit(2)
		}
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		fmtName := ingest.Format(*format)
		if fmtName == "" {
			detected, err := ingest.DetectFormat(*in)
			if err != nil {
				log.Fatal(err)
			}
			fmtName = detected
		}
		up := &ingest.Uploader{Store: p.Store}
		start := time.Now()
		rep, err := up.Upload(ingest.Options{
			Tenant: "gamerqueen", Actor: "ann", Dataset: *dataset,
			Format: fmtName, KeyField: *key,
		}, f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		rate := float64(rep.Loaded) / elapsed.Seconds()
		if rep.CreatedDataset {
			fmt.Printf("created dataset %s with inferred schema\n", rep.Dataset)
		}
		fmt.Printf("loaded %d/%d records (%s) in %v (%.0f docs/s)\n",
			rep.Loaded, rep.Received, rep.Format, elapsed.Round(time.Millisecond), rate)
		for i, reason := range rep.Rejected {
			fmt.Printf("  rejected #%d: %s\n", i, reason)
		}
	case "snapshot":
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		err = p.Store.SnapshotContext(ctx, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		if info, err := os.Stat(*out); err == nil {
			fmt.Printf("wrote v4 snapshot to %s (%d bytes)\n", *out, info.Size())
		} else {
			fmt.Printf("wrote v4 snapshot to %s\n", *out)
		}
	case "reshard":
		// symctl reshard <tenant> <dataset> <n>: rebuild a dataset
		// index of symctl's own in-process platform at n shards by
		// hand. symctl acts as Ann, so the usual write grant rules
		// apply.
		args := fs.Args()
		if len(args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: symctl reshard <tenant> <dataset> <n>")
			os.Exit(2)
		}
		n, err := strconv.Atoi(args[2])
		if err != nil || n < 1 {
			log.Fatalf("symctl: shard count %q must be a positive integer", args[2])
		}
		ds, err := p.Store.DatasetContext(ctx, args[0], "ann", args[1], store.PermWrite)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("before: %d shards (ring gen %d), %d records\n", ds.NumShards(), ds.RingGen(), ds.Len())
		if err := p.Store.ReshardContext(ctx, args[0], "ann", args[1], n); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after:  %d shards (ring gen %d), %d records\n", ds.NumShards(), ds.RingGen(), ds.Len())
	case "status":
		fmt.Printf("%-12s %-12s %8s %7s %8s %10s\n", "TENANT", "DATASET", "RECORDS", "SHARDS", "RING-GEN", "TOMBSTONE")
		for _, st := range p.Store.Status() {
			fmt.Printf("%-12s %-12s %8d %7d %8d %9.2f%%\n",
				st.Tenant, st.Dataset, st.Records, st.Shards, st.RingGen, 100*st.TombstoneRatio)
		}
	case "restore":
		data, err := os.ReadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Store.RestoreContext(ctx, data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restored %s:\n", *in)
		for _, tenant := range p.Store.Tenants() {
			names, err := p.Store.Datasets(tenant, "ann")
			if err != nil {
				// symctl acts as Ann; other designers' spaces stay
				// private even on the admin path.
				fmt.Printf("  tenant %s (access denied for ann)\n", tenant)
				continue
			}
			fmt.Printf("  tenant %s:\n", tenant)
			for _, name := range names {
				ds, err := p.Store.DatasetContext(ctx, tenant, "ann", name, store.PermRead)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("    %s: %d records\n", name, ds.Len())
			}
		}
		// Prove the restored indexes answer queries without reindexing.
		if ds, err := p.Store.DatasetContext(ctx, "gamerqueen", "ann", "inventory", store.PermRead); err == nil {
			if hits, err := ds.SearchContext(ctx, store.SearchRequest{Query: "adventure", Limit: 3}); err == nil {
				fmt.Printf("  sample search 'adventure': %d hits\n", len(hits))
			}
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: symctl {query|serp|config|snippet|report|suggest|recommend|structured|load|snapshot|restore|reshard|status} [flags]")
	os.Exit(2)
}
