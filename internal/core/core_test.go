package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ads"
	"repro/internal/app"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/layout"
	"repro/internal/publish"
	"repro/internal/runtime"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

// buildGamerQueen walks the paper's full §II-B scenario end to end on
// a Platform: Ann registers, uploads her inventory, designs the app
// with review and pricing supplementals, and publishes.
func buildGamerQueen(t testing.TB, p *Platform) (*app.Application, []string) {
	t.Helper()
	if err := p.RegisterDesigner("ann", "gamerqueen"); err != nil {
		t.Fatal(err)
	}
	titles := webcorpus.Entities(webcorpus.Config{Seed: 1}, webcorpus.TopicGames)[:6]
	var csv strings.Builder
	csv.WriteString("sku,title,producer,description,image,detailurl\n")
	for i, title := range titles {
		fmt.Fprintf(&csv, "G%d,%s,Studio%d,an exciting %s game,http://img.example/%d.png,http://gamerqueen.example/g/%d\n",
			i, title, i%3, title, i, i)
	}
	rep, err := p.Upload(ingest.Options{
		Tenant: "gamerqueen", Actor: "ann", Dataset: "inventory",
		Format: ingest.FormatCSV, KeyField: "sku",
	}, strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != len(titles) {
		t.Fatalf("upload loaded %d of %d", rep.Loaded, len(titles))
	}

	pricing := webservice.NewPricingService(2, titles)
	srv := httptest.NewServer(pricing)
	t.Cleanup(srv.Close)

	p.Ads.Register(ads.Ad{ID: "ad1", Advertiser: "GameMart", Title: "Deals", Text: "cheap games", LandingURL: "http://gamemart.example", Keywords: titles, BidCPC: 0.40})

	d := p.NewApp("gamerqueen", "GamerQueen", "ann", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "inventory", Kind: app.KindProprietary, Dataset: "inventory", MaxResults: 3})
	d.SetSearchFields("inventory", "title", "producer", "description")
	d.UseTemplate("inventory", "media-card", map[string]string{
		"title": "title", "url": "detailurl", "image": "image", "description": "description",
	})
	d.DropSupplemental("inventory", app.SourceConfig{ID: "reviews", Kind: app.KindWebSearch, MaxResults: 2})
	d.RestrictSites("reviews", "gamespot.com", "ign.com", "teamxbox.com")
	d.SetDriveFields("reviews", "{title} review", "title")
	d.UseTemplate("reviews", "headline-snippet", map[string]string{"title": "title", "url": "url", "snippet": "snippet"})
	d.DropSupplemental("inventory", app.SourceConfig{ID: "pricing", Kind: app.KindService, MaxResults: 1})
	d.ConfigureService("pricing", webservice.Definition{
		Name: "pricing", Endpoint: srv.URL + "/price",
		Params: map[string]string{"title": "{title}"},
	})
	d.SetDriveFields("pricing", "", "title")
	d.SetResultLayout("pricing", &layout.Element{Type: layout.ElemContainer, Children: []*layout.Element{
		{Type: layout.ElemText, Field: "price"},
	}})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	embed, err := p.Publish(a, publish.TargetWeb, publish.TargetFacebook)
	if err != nil {
		t.Fatal(err)
	}
	if embed == nil || !strings.Contains(embed.Snippet, "gamerqueen") {
		t.Fatal("embed snippet missing")
	}
	return a, titles
}

func TestEndToEndGamerQueen(t *testing.T) {
	p := New(Config{Seed: 1, ClickBase: "http://symphony.example/click"})
	_, titles := buildGamerQueen(t, p)

	resp, err := p.Query(context.Background(), "gamerqueen", runtime.Query{Text: titles[0], Customer: "visitor"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 1 || len(resp.Blocks[0].Items) == 0 {
		t.Fatal("no primary results")
	}
	top := resp.Blocks[0].Items[0]
	if top["title"] != titles[0] {
		t.Errorf("top = %v", top["title"])
	}
	supp := resp.Blocks[0].SupplementalByItem[0]
	if len(supp["pricing"]) != 1 || supp["pricing"][0]["price"] == "" {
		t.Errorf("pricing = %v", supp["pricing"])
	}
	if len(supp["reviews"]) == 0 {
		t.Error("no reviews for a corpus entity")
	}
	if !strings.Contains(resp.HTML, "click?app=gamerqueen") {
		t.Error("links not routed through click logging")
	}

	// Facebook publish happened.
	if got := p.Facebook.Installed(); len(got) != 1 || got[0] != "gamerqueen" {
		t.Errorf("facebook installs = %v", got)
	}
}

func TestMonetizationFlow(t *testing.T) {
	p := New(Config{Seed: 1})
	_, titles := buildGamerQueen(t, p)

	// Traffic: queries, content clicks, ad clicks.
	for i := 0; i < 3; i++ {
		if _, err := p.Query(context.Background(), "gamerqueen", runtime.Query{Text: titles[i], Customer: fmt.Sprintf("c%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.RecordClick("gamerqueen", "http://ign.com/review/9", "c0")
	p.RecordClick("gamerqueen", "http://gamespot.com/x", "c1")
	sels := p.Ads.Select(titles[0], 1)
	if len(sels) != 1 {
		t.Fatal("no ad selected")
	}
	credit := p.RecordAdClick("gamerqueen", sels[0], "c0")
	if credit <= 0 {
		t.Fatalf("credit = %f", credit)
	}

	s := p.TrafficSummary("gamerqueen")
	if s.Queries != 3 || s.Clicks != 2 || s.AdClicks != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Revenue != credit {
		t.Errorf("revenue %f != credit %f", s.Revenue, credit)
	}
	if p.Ads.Earnings("ann") != credit {
		t.Errorf("designer earnings = %f", p.Ads.Earnings("ann"))
	}
	// Referral audit: ign and gamespot each got one click.
	rep := p.Log.ReferralReport("gamerqueen")
	if len(rep) != 2 {
		t.Fatalf("referral report = %v", rep)
	}
	// CSV download available.
	if csv := p.Log.ExportCSV("gamerqueen"); strings.Count(csv, "\n") != 7 {
		t.Errorf("csv rows wrong:\n%s", csv)
	}
}

func TestSiteSuggestOverPlatform(t *testing.T) {
	p := New(Config{Seed: 1})
	// Simulate end users searching and clicking gaming sites.
	queries := []string{"halo review", "zelda guide", "gears trailer"}
	for _, q := range queries {
		for _, site := range []string{"ign.com", "gamespot.com", "kotaku.com"} {
			p.Engine.RecordClick(q, "http://"+site+"/x")
		}
	}
	sugs := p.SiteSuggest([]string{"ign.com", "gamespot.com"}, 3)
	if len(sugs) == 0 || sugs[0].Site != "kotaku.com" {
		t.Fatalf("suggestions = %v", sugs)
	}
}

func TestHostedHTTPFlow(t *testing.T) {
	p := New(Config{Seed: 1})
	_, titles := buildGamerQueen(t, p)
	srv := httptest.NewServer(p.Serve("http://symphony.example"))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/query?app=gamerqueen&q=" + strings.ReplaceAll(titles[0], " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "symphony-app") {
		t.Fatalf("hosted query = %d %.120s", resp.StatusCode, body)
	}
	// Embed loader served.
	resp, err = srv.Client().Get(srv.URL + "/embed.js?app=gamerqueen")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed = %d", resp.StatusCode)
	}
}

func TestQueryUnpublishedApp(t *testing.T) {
	p := New(Config{Seed: 1})
	if _, err := p.Query(context.Background(), "ghost", runtime.Query{Text: "x"}); err == nil {
		t.Fatal("unpublished app served")
	}
}

func TestAppComposition(t *testing.T) {
	p := New(Config{Seed: 1})
	_, titles := buildGamerQueen(t, p)
	d := p.NewApp("portal", "Portal", "ann", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "games", Kind: app.KindApp, AppID: "gamerqueen", MaxResults: 3})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(a); err != nil {
		t.Fatal(err)
	}
	resp, err := p.Query(context.Background(), "portal", runtime.Query{Text: titles[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 1 || len(resp.Blocks[0].Items) == 0 {
		t.Fatal("composed portal returned nothing")
	}
}

func TestTenantIsolationAcrossDesigners(t *testing.T) {
	p := New(Config{Seed: 1})
	buildGamerQueen(t, p)
	if err := p.RegisterDesigner("bob", "bobshop"); err != nil {
		t.Fatal(err)
	}
	// Bob publishes an app claiming Ann's tenant/dataset; execution
	// must fail closed (no block) because Bob is not granted access.
	d := p.NewApp("sneaky", "Sneaky", "bob", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "steal", Kind: app.KindProprietary, Dataset: "inventory"})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(a); err != nil {
		t.Fatal(err)
	}
	resp, err := p.Query(context.Background(), "sneaky", runtime.Query{Text: "game"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 0 {
		t.Fatal("bob read ann's proprietary data")
	}
}

// TestProprietaryAppsNeverBuildTheWeb: a platform whose apps read only
// proprietary data boots, serves hits, typo corrections and empty
// queries, over the API and over HTTP, without generating the
// synthetic web or indexing any engine vertical. The first web query
// then generates the corpus once and indexes only its own vertical.
func TestProprietaryAppsNeverBuildTheWeb(t *testing.T) {
	for _, st := range New(Config{Seed: 1}).Engine.Status().Verticals {
		if st.Built {
			t.Fatalf("New indexed vertical %s", st.Vertical)
		}
	}
	var generated atomic.Int32
	p := newPlatform(Config{Seed: 1}, func() *webcorpus.Corpus {
		generated.Add(1)
		return webcorpus.Generate(webcorpus.Config{Seed: 1})
	})
	if err := p.RegisterDesigner("cara", "catalog"); err != nil {
		t.Fatal(err)
	}
	csv := "sku,title,description\nC1,Copper Kettle,a stovetop kettle\nC2,Cast Iron Pan,a heavy skillet\n"
	if _, err := p.Upload(ingest.Options{
		Tenant: "catalog", Actor: "cara", Dataset: "items",
		Format: ingest.FormatCSV, KeyField: "sku",
	}, strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	d := p.NewApp("catalog", "Catalog", "cara", "catalog")
	d.DropPrimary(app.SourceConfig{ID: "items", Kind: app.KindProprietary, Dataset: "items", MaxResults: 5})
	d.SetSearchFields("items", "title", "description")
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(a); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{"kettle", "ketle", ""} {
		if _, err := p.Query(context.Background(), "catalog", runtime.Query{Text: q}); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
	}
	srv := httptest.NewServer(p.Serve("http://symphony.example"))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/query?app=catalog&q=cast+iron")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Cast Iron Pan") {
		t.Fatalf("hosted query = %d %.200s", resp.StatusCode, body)
	}

	if n := generated.Load(); n != 0 {
		t.Fatalf("corpus generated %d times for proprietary-only traffic", n)
	}
	for _, st := range p.Engine.Status().Verticals {
		if st.Built || st.Docs != 0 {
			t.Fatalf("vertical %s built for proprietary-only traffic: %+v", st.Vertical, st)
		}
	}

	if _, err := p.Engine.Search(context.Background(), engine.Request{Query: "review", Vertical: webcorpus.VerticalNews}); err != nil {
		t.Fatal(err)
	}
	if n := generated.Load(); n != 1 {
		t.Fatalf("corpus generated %d times after one web query, want 1", n)
	}
	for _, st := range p.Engine.Status().Verticals {
		if want := st.Vertical == webcorpus.VerticalNews; st.Built != want || (st.Docs > 0) != want {
			t.Errorf("after a news query, vertical %s: %+v", st.Vertical, st)
		}
	}
}
