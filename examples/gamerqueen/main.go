// GamerQueen walks the paper's §II-B running example end to end:
// Ann, a video game store owner, registers her inventory, designs a
// search experience around it (title/producer/description search,
// media-card result layout), supplements each result with game
// reviews restricted to gamespot.com/ign.com/teamxbox.com and with
// her real-time pricing/in-stock service, publishes to her site and
// Facebook, serves customers, and pulls her monetization reports.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/runtime"
)

func main() {
	p := core.New(core.Config{Seed: 1, ClickBase: "http://symphony.example/click"})
	sc, err := demo.GamerQueen(p, 1, 10)
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()

	fmt.Println("Published apps:", p.Registry.List())
	fmt.Println("Facebook installs:", p.Facebook.Installed())
	fmt.Println()

	// Customers search the GamerQueen site; the embedded JavaScript
	// forwards each query to Symphony (Fig 2).
	customers := []string{"carol", "dave", "erin"}
	for i, title := range sc.Titles[:3] {
		resp, err := p.Query(context.Background(), "gamerqueen", runtime.Query{
			Text:     title,
			Customer: customers[i%len(customers)],
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %q -> %d results in %s\n", title, len(resp.Blocks[0].Items), resp.Trace.Total.Round(1000))
		if len(resp.Blocks[0].Items) > 0 {
			top := resp.Blocks[0].Items[0]
			fmt.Printf("  top: %s\n", top["title"])
			for suppID, items := range resp.Blocks[0].SupplementalByItem[0] {
				fmt.Printf("  %s: %d supplemental items\n", suppID, len(items))
			}
		}
		// Customers click through to a review.
		p.RecordClick("gamerqueen", "http://ign.com/web/some-review", customers[i%len(customers)])
	}

	// Ann previews how the crowd sees her niche on the general engine:
	// one Query call renders a full results page — ranked hits, total
	// match count and the per-site facet sidebar.
	page, err := p.Engine.Query(context.Background(), engine.Request{Query: sc.Titles[0] + " review", Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nweb results page for %q: %d of %d total hits\n", sc.Titles[0]+" review", len(page.Results), page.Total)
	for _, f := range page.SiteFacets[:min(3, len(page.SiteFacets))] {
		fmt.Printf("  site facet: %-24s %d\n", f.Value, f.N)
	}

	// One customer clicks the sponsored listing: the advertiser is
	// billed and Ann is credited her revenue share automatically.
	sels := p.Ads.Select(sc.Titles[0], 1)
	if len(sels) > 0 {
		credit := p.RecordAdClick("gamerqueen", sels[0], "carol")
		fmt.Printf("\nad click: advertiser billed $%.2f, Ann credited $%.2f\n", sels[0].ClickCPC, credit)
	}

	// Ann downloads her traffic summary (§II-A Monetization).
	s := p.TrafficSummary("gamerqueen")
	fmt.Printf("\n=== GamerQueen traffic summary ===\n")
	fmt.Printf("queries=%d clicks=%d adClicks=%d CTR=%.2f revenue=$%.2f uniqueUsers=%d\n",
		s.Queries, s.Clicks, s.AdClicks, s.CTR, s.Revenue, s.UniqueUsers)
	fmt.Println("referral audit (clicks per destination site):")
	for _, c := range p.Log.ReferralReport("gamerqueen") {
		fmt.Printf("  %4d  %s\n", c.N, c.Label)
	}
}
