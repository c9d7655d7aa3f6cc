package runtime

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ads"
	"repro/internal/analytics"
	"repro/internal/app"
	"repro/internal/engine"
	"repro/internal/layout"
	"repro/internal/store"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

var corpus = webcorpus.Generate(webcorpus.Config{Seed: 99})

// fixture builds the full GamerQueen scenario: an inventory whose
// titles are real corpus entities (so supplemental web search finds
// reviews), a pricing service, and an executor.
type fixture struct {
	exec    *Executor
	app     *app.Application
	pricing *webservice.PricingService
	titles  []string
}

func newFixture(t testing.TB, parallelism int) *fixture {
	t.Helper()
	st := store.New()
	if err := st.CreateTenant("gamerqueen", "ann"); err != nil {
		t.Fatal(err)
	}
	ds, err := st.CreateDataset("gamerqueen", "ann", store.Schema{
		Name: "inventory", Key: "sku",
		Fields: []store.Field{
			{Name: "sku", Required: true},
			{Name: "title", Searchable: true},
			{Name: "producer", Searchable: true},
			{Name: "description", Searchable: true},
			{Name: "image", Type: store.TypeURL},
			{Name: "detailurl", Type: store.TypeURL},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	titles := webcorpus.Entities(webcorpus.Config{Seed: 99}, webcorpus.TopicGames)[:8]
	for i, title := range titles {
		_, err := ds.Put(store.Record{
			"sku":         fmt.Sprintf("G%d", i),
			"title":       title,
			"producer":    "Studio" + fmt.Sprint(i%3),
			"description": "exciting " + title + " video game",
			"image":       fmt.Sprintf("http://img.example/%d.png", i),
			"detailurl":   fmt.Sprintf("http://gamerqueen.example/games/%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	pricing := webservice.NewPricingService(4, titles)
	srv := httptest.NewServer(pricing)
	t.Cleanup(srv.Close)

	adSvc := ads.NewService()
	adSvc.Register(ads.Ad{ID: "ad1", Advertiser: "GameMart", Title: "Game deals", Text: "cheap", LandingURL: "http://gamemart.example", Keywords: titles[:2], BidCPC: 0.5})

	exec := &Executor{
		Store:                   st,
		Engine:                  engine.New(func() *webcorpus.Corpus { return corpus }),
		Services:                webservice.NewClient(srv.Client()),
		Ads:                     adSvc,
		Log:                     analytics.NewLog(),
		SupplementalParallelism: parallelism,
	}

	d := app.NewDesigner("gamerqueen", "GamerQueen", "ann", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "inventory", Kind: app.KindProprietary, Dataset: "inventory", MaxResults: 4})
	d.SetSearchFields("inventory", "title", "producer", "description")
	d.UseTemplate("inventory", "media-card", map[string]string{
		"title": "title", "url": "detailurl", "image": "image", "description": "description",
	})
	d.DropSupplemental("inventory", app.SourceConfig{ID: "reviews", Kind: app.KindWebSearch, MaxResults: 2})
	d.RestrictSites("reviews", "ign.com", "gamespot.com", "teamxbox.com")
	d.SetDriveFields("reviews", "{title} review", "title")
	d.UseTemplate("reviews", "headline-snippet", map[string]string{"title": "title", "url": "url", "snippet": "snippet"})
	d.DropSupplemental("inventory", app.SourceConfig{ID: "pricing", Kind: app.KindService, MaxResults: 1})
	d.ConfigureService("pricing", webservice.Definition{
		Name:     "pricing",
		Endpoint: srv.URL + "/price",
		Params:   map[string]string{"title": "{title}"},
	})
	d.SetDriveFields("pricing", "", "title")
	d.SetResultLayout("pricing", &layout.Element{Type: layout.ElemContainer, Children: []*layout.Element{
		{Type: layout.ElemText, Field: "price"},
	}})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{exec: exec, app: a, pricing: pricing, titles: titles}
}

func TestExecuteFig2Pipeline(t *testing.T) {
	f := newFixture(t, 0)
	query := f.titles[0]
	resp, err := f.exec.Execute(context.Background(), f.app, Query{Text: query, Customer: "visitor1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(resp.Blocks))
	}
	block := resp.Blocks[0]
	if len(block.Items) == 0 {
		t.Fatal("primary search returned nothing")
	}
	if block.Items[0]["title"] != query {
		t.Errorf("top item = %v", block.Items[0]["title"])
	}
	// Supplemental content present for the top item.
	supp := block.SupplementalByItem[0]
	if len(supp["pricing"]) != 1 {
		t.Errorf("pricing supplemental = %v", supp["pricing"])
	}
	if len(supp["reviews"]) == 0 {
		t.Errorf("reviews supplemental empty")
	}
	for _, rev := range supp["reviews"] {
		site := rev["site"]
		if site != "ign.com" && site != "gamespot.com" && site != "teamxbox.com" {
			t.Errorf("review from unrestricted site %s", site)
		}
	}
	// HTML assembled.
	if !strings.Contains(resp.HTML, "symphony-app") || !strings.Contains(resp.HTML, "sym-supplemental") {
		t.Error("page HTML missing structure")
	}
	if !strings.Contains(resp.HTML, query) {
		t.Error("page HTML missing primary title")
	}
}

func TestTraceStagesMatchFig2(t *testing.T) {
	f := newFixture(t, 0)
	resp, err := f.exec.Execute(context.Background(), f.app, Query{Text: f.titles[0]})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range resp.Trace.Stages {
		names = append(names, s.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"receive", "primary:inventory", "supplemental:inventory", "render:inventory", "format", "respond"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing stage %s: %v", want, names)
		}
	}
	if resp.Trace.Total <= 0 {
		t.Error("total duration not recorded")
	}
}

func TestQueryLogging(t *testing.T) {
	f := newFixture(t, 0)
	f.exec.Execute(context.Background(), f.app, Query{Text: "anything", Customer: "c9"})
	events := f.exec.Log.Events("gamerqueen")
	if len(events) != 1 || events[0].Type != analytics.EventQuery || events[0].Customer != "c9" {
		t.Fatalf("events = %+v", events)
	}
}

func TestSequentialVsParallelSameResults(t *testing.T) {
	seq := newFixture(t, 1)
	par := newFixture(t, 8)
	q := Query{Text: "video game"} // every title matches: a page of several items
	a, err := seq.exec.Execute(context.Background(), seq.app, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.exec.Execute(context.Background(), par.app, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Blocks[0].Items) < 2 {
		t.Fatalf("page has %d items, want several", len(a.Blocks[0].Items))
	}
	for _, block := range []SourceBlock{a.Blocks[0], b.Blocks[0]} {
		for item, supp := range block.SupplementalByItem {
			// The pricing service echoes the title it priced, so this
			// pins each supplemental result to the item that drove it.
			if p := supp["pricing"]; len(p) != 1 || p[0]["title"] != block.Items[item]["title"] {
				t.Errorf("item %d (%s) got pricing %v", item, block.Items[item]["title"], p)
			}
		}
	}
	for item := range a.Blocks[0].Items {
		ra := a.Blocks[0].SupplementalByItem[item]["reviews"]
		rb := b.Blocks[0].SupplementalByItem[item]["reviews"]
		if len(ra) != len(rb) {
			t.Fatalf("item %d: review counts differ: %d vs %d", item, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i]["url"] != rb[i]["url"] {
				t.Errorf("item %d: review %d differs between sequential and parallel", item, i)
			}
		}
	}
}

// TestConcurrentExecute: pages rendered at once, through the shared
// buffer pool and each request's fan-out workers, stay whole and keep
// every block inside their own page.
func TestConcurrentExecute(t *testing.T) {
	f := newFixture(t, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(title string) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := f.exec.Execute(context.Background(), f.app, Query{Text: title})
				if err != nil {
					t.Error(err)
					return
				}
				page := resp.HTML
				if !strings.HasPrefix(page, `<div class="symphony-app" data-app="gamerqueen">`) || !strings.HasSuffix(page, "</div></div>") {
					t.Errorf("page not whole: %s", page)
				}
				if len(resp.Blocks) != 1 || !strings.Contains(page, resp.Blocks[0].HTML) || !strings.Contains(page, title) {
					t.Errorf("page for %q lacks its block or title: %s", title, page)
				}
				if len(resp.Blocks[0].Items) > 0 && len(resp.Blocks[0].SupplementalByItem[0]["reviews"]) == 0 {
					t.Errorf("page for %q lost its reviews", title)
				}
			}
		}(f.titles[g%len(f.titles)])
	}
	wg.Wait()
}

func TestFailingSupplementalDegrades(t *testing.T) {
	f := newFixture(t, 0)
	f.pricing.FailEvery = 1 // pricing service hard-down
	resp, err := f.exec.Execute(context.Background(), f.app, Query{Text: f.titles[0]})
	if err != nil {
		t.Fatalf("hard-down supplemental failed the page: %v", err)
	}
	block := resp.Blocks[0]
	if len(block.Items) == 0 {
		t.Fatal("primary results lost")
	}
	if len(block.SupplementalByItem[0]["pricing"]) != 0 {
		t.Error("failed service produced items")
	}
	// reviews unaffected
	if len(block.SupplementalByItem[0]["reviews"]) == 0 {
		t.Error("healthy supplemental suppressed")
	}
	// trace carries the error
	found := false
	for _, s := range resp.Trace.Stages {
		if strings.HasPrefix(s.Name, "supplemental:") && s.Err != "" {
			found = true
		}
	}
	if !found {
		t.Error("supplemental failure not traced")
	}
}

func TestFailingPrimaryDegradesToEmptyPage(t *testing.T) {
	f := newFixture(t, 0)
	f.app.Primary[0].Dataset = "missing"
	resp, err := f.exec.Execute(context.Background(), f.app, Query{Text: "x"})
	if err != nil {
		t.Fatalf("page failed: %v", err)
	}
	if len(resp.Blocks) != 0 {
		t.Error("failed primary produced a block")
	}
}

func TestCustomerProfileAltersEngineQuery(t *testing.T) {
	f := newFixture(t, 0)
	// An engine-primary app: profile terms must change results.
	d := app.NewDesigner("websearch", "W", "ann", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "web", Kind: app.KindWebSearch, MaxResults: 5})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := f.exec.Execute(context.Background(), a, Query{Text: "review"})
	personal, _ := f.exec.Execute(context.Background(), a, Query{
		Text:    "review",
		Profile: &CustomerProfile{PreferTerms: []string{f.titles[0]}},
	})
	pa := plain.Blocks[0].Items
	pb := personal.Blocks[0].Items
	if len(pa) == 0 || len(pb) == 0 {
		t.Skip("not enough results")
	}
	same := true
	for i := range pa {
		if i >= len(pb) || pa[i]["url"] != pb[i]["url"] {
			same = false
		}
	}
	if same {
		t.Error("customer profile did not alter results")
	}
}

func TestOffsetPaging(t *testing.T) {
	f := newFixture(t, 0)
	all, _ := f.exec.Execute(context.Background(), f.app, Query{Text: "game"})
	page2, _ := f.exec.Execute(context.Background(), f.app, Query{Text: "game", Offset: 2})
	if len(all.Blocks) == 0 || len(page2.Blocks) == 0 {
		t.Fatal("missing blocks")
	}
	a := all.Blocks[0].Items
	b := page2.Blocks[0].Items
	if len(a) < 3 || len(b) == 0 {
		t.Skipf("not enough items: %d %d", len(a), len(b))
	}
	if b[0]["sku"] != a[2]["sku"] {
		t.Errorf("offset misaligned: %v vs %v", b[0]["sku"], a[2]["sku"])
	}
}

func TestAppComposition(t *testing.T) {
	f := newFixture(t, 0)
	apps := map[string]*app.Application{"gamerqueen": f.app}
	f.exec.ResolveApp = func(id string) (*app.Application, error) {
		a, ok := apps[id]
		if !ok {
			return nil, fmt.Errorf("no app %q", id)
		}
		return a, nil
	}
	d := app.NewDesigner("meta", "Meta Search", "ann", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "inner", Kind: app.KindApp, AppID: "gamerqueen", MaxResults: 3})
	meta, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	apps["meta"] = meta
	resp, err := f.exec.Execute(context.Background(), meta, Query{Text: f.titles[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 1 || len(resp.Blocks[0].Items) == 0 {
		t.Fatalf("composed app returned nothing")
	}
	if resp.Blocks[0].Items[0]["title"] != f.titles[0] {
		t.Errorf("composed top item = %v", resp.Blocks[0].Items[0])
	}
}

func TestAppCompositionCycleGuard(t *testing.T) {
	f := newFixture(t, 0)
	var selfApp *app.Application
	f.exec.ResolveApp = func(id string) (*app.Application, error) { return selfApp, nil }
	d := app.NewDesigner("self", "Self", "ann", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "me", Kind: app.KindApp, AppID: "self"})
	var err error
	selfApp, err = d.Build()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.exec.Execute(context.Background(), selfApp, Query{Text: "x"})
	if err != nil {
		t.Fatalf("cycle crashed the executor: %v", err)
	}
	// The cycle is cut by the depth guard; the page simply has no
	// content blocks.
	if len(resp.Blocks) > 0 && len(resp.Blocks[0].Items) > 0 {
		t.Error("cyclic composition produced items")
	}
}

func TestDidYouMeanRetriesPrimary(t *testing.T) {
	f := newFixture(t, 0)
	// Misspell the last letter of a title word so the primary search
	// finds nothing, then the corrected retry finds the game.
	word := strings.ToLower(strings.Fields(f.titles[0])[0])
	if len(word) < 4 {
		t.Skip("short title word")
	}
	typo := word[:len(word)-1] + "q"
	resp, err := f.exec.Execute(context.Background(), f.app, Query{Text: typo})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) == 0 || len(resp.Blocks[0].Items) == 0 {
		t.Fatalf("typo %q not recovered", typo)
	}
	found := false
	for _, s := range resp.Trace.Stages {
		if strings.HasPrefix(s.Name, "didyoumean:") {
			found = true
		}
	}
	if !found {
		t.Error("correction not traced")
	}
}

// TestDidYouMeanAtOffset: the corrected retry answers at an offset as
// it does at the first page — a misspelled query at offset 1 gets the
// corrected query's ranking from its second item — and it does not
// fire on an empty page that only lies past the end of a query's
// matches.
func TestDidYouMeanAtOffset(t *testing.T) {
	f := newFixture(t, 0)
	word := strings.ToLower(strings.Fields(f.titles[0])[0])
	if len(word) < 4 {
		t.Skip("short title word")
	}
	typo := word[:len(word)-1] + "q"
	ds, err := f.exec.Store.DatasetContext(context.Background(), "gamerqueen", "ann", "inventory", store.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	corrected, changed := ds.SuggestQuery(typo)
	if !changed {
		t.Fatalf("%q is not corrected", typo)
	}
	corrected = strings.TrimSpace(corrected)
	retried := func(resp *Response) bool {
		for _, s := range resp.Trace.Stages {
			if strings.HasPrefix(s.Name, "didyoumean:") {
				return true
			}
		}
		return false
	}
	skus := func(resp *Response) (out []string) {
		for _, it := range resp.Blocks[0].Items {
			out = append(out, it["sku"])
		}
		return out
	}
	first, err := f.exec.Execute(context.Background(), f.app, Query{Text: corrected})
	if err != nil {
		t.Fatal(err)
	}
	paged, err := f.exec.Execute(context.Background(), f.app, Query{Text: typo, Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !retried(paged) {
		t.Fatalf("%q at offset 1 was not corrected", typo)
	}
	if got, want := skus(paged), skus(first)[1:]; !slices.Equal(got, want) {
		t.Fatalf("%q at offset 1 = %v, want %q's ranking from its second item %v", typo, got, corrected, want)
	}
	// "game" matches every record, so the page past them is empty
	// though the query matched: no retry.
	past, err := f.exec.Execute(context.Background(), f.app, Query{Text: "game " + typo, Offset: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(past.Blocks[0].Items) != 0 || retried(past) {
		t.Fatalf("a page past the matches: %d items, retried %v", len(past.Blocks[0].Items), retried(past))
	}
}

func TestContextCancellationFailsFast(t *testing.T) {
	// Every source now honors ctx, so cancellation is the caller
	// giving up rather than a partial outage: the executor fails the
	// page instead of rendering a degraded one, letting the serving
	// layer map it to a timeout status.
	f := newFixture(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.exec.Execute(ctx, f.app, Query{Text: f.titles[0]})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNilApplication(t *testing.T) {
	f := newFixture(t, 0)
	if _, err := f.exec.Execute(context.Background(), nil, Query{}); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestAdsAsSupplementalSource(t *testing.T) {
	f := newFixture(t, 0)
	d := app.NewDesigner("withads", "WithAds", "ann", "gamerqueen")
	d.DropPrimary(app.SourceConfig{ID: "inventory", Kind: app.KindProprietary, Dataset: "inventory", MaxResults: 2})
	d.SetSearchFields("inventory", "title")
	d.UseTemplate("inventory", "title-link", map[string]string{"title": "title", "url": "detailurl"})
	d.DropSupplemental("inventory", app.SourceConfig{ID: "sponsored", Kind: app.KindAds, MaxResults: 2})
	d.SetDriveFields("sponsored", "{title}", "title")
	d.UseTemplate("sponsored", "ad-block", map[string]string{"title": "title", "url": "url", "text": "text"})
	a, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.exec.Execute(context.Background(), a, Query{Text: f.titles[0]})
	if err != nil {
		t.Fatal(err)
	}
	supp := resp.Blocks[0].SupplementalByItem[0]["sponsored"]
	if len(supp) == 0 {
		t.Fatal("no sponsored items for a keyword-matching title")
	}
	if supp[0]["adid"] != "ad1" {
		t.Errorf("ad item = %v", supp[0])
	}
}
