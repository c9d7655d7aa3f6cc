package render_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/layout"
	"repro/internal/render"
	"repro/internal/runtime"
)

// refPage renders resp's blocks with the reference renderer the way
// the runtime rendered them before it wrote pages in one pass: each
// supplemental list to a string, each item with those strings in its
// slots, each block to a string, then the page around the blocks.
func refPage(a *app.Application, resp *runtime.Response, clickBase string) (string, []string) {
	r := &render.RefRenderer{Stylesheet: a.Stylesheet, ClickBase: clickBase, AppID: a.ID}
	var blocks []string
	for _, b := range resp.Blocks {
		sc, _ := a.Source(b.SourceID)
		supp := make([]map[string]string, len(b.Items))
		for i := range b.Items {
			supp[i] = map[string]string{}
			for id, items := range b.SupplementalByItem[i] {
				ssc, _ := a.Source(id)
				supp[i][id] = r.List(ssc.Layout, items, nil)
			}
		}
		blocks = append(blocks, render.RefListWithSupp(r, sc, b.Items, supp))
	}
	return render.RefPage(a.ID, blocks), blocks
}

// TestExecuteMatchesReference: the page the runtime writes into one
// buffer, and each block's HTML within it, equal the reference
// renderer applied to the blocks the runtime returns. It lives beside
// the reference renderer, which is test code of this package.
func TestExecuteMatchesReference(t *testing.T) {
	for _, cfg := range []core.Config{
		{Seed: 1, SupplementalParallelism: 1},
		{Seed: 1, ClickBase: "http://symphony.example/click"},
	} {
		p := core.New(cfg)
		gq, err := demo.GamerQueen(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer gq.Close()

		// A supplemental that finds nothing (its site does not exist)
		// and a primary that fails (its dataset does not exist), under
		// a stylesheet.
		d := p.NewApp("gq-edges", "Edges", "ann", "gamerqueen")
		d.DropPrimary(app.SourceConfig{ID: "broken", Kind: app.KindProprietary, Dataset: "missing"})
		d.DropPrimary(app.SourceConfig{ID: "inventory", Kind: app.KindProprietary, Dataset: "inventory", MaxResults: 3})
		d.SetSearchFields("inventory", "title", "description")
		d.UseTemplate("inventory", "title-link", map[string]string{"title": "title", "url": "detailurl"})
		d.DropSupplemental("inventory", app.SourceConfig{ID: "nothing", Kind: app.KindWebSearch, MaxResults: 2})
		d.RestrictSites("nothing", "nowhere.example")
		d.SetDriveFields("nothing", "{title} review", "title")
		d.UseTemplate("nothing", "headline-snippet", map[string]string{"title": "title", "url": "url", "snippet": "snippet"})
		d.SetStylesheet(&layout.Stylesheet{Rules: map[string]map[string]string{"link": {"color": "#00c"}}})
		edges, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		// A composed app with no layout: the definition-list fallback.
		d = p.NewApp("meta", "Meta", "ann", "gamerqueen")
		d.DropPrimary(app.SourceConfig{ID: "inner", Kind: app.KindApp, AppID: "gamerqueen", MaxResults: 3})
		meta, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}

		title := gq.Titles[0]
		for _, tc := range []struct {
			name     string
			app      *app.Application
			q        runtime.Query
			failing  bool   // the pricing service is hard-down
			contains string // proves the case reached the path it names
		}{
			{name: "gamerqueen", app: gq.App, q: runtime.Query{Text: title}, contains: `data-source="reviews"><div class="sym-results">`},
			// A title not priced yet: the demo caches prices for 2 s.
			{name: "failing-supplemental", app: gq.App, q: runtime.Query{Text: gq.Titles[1]}, failing: true, contains: `data-source="pricing"></div>`},
			{name: "offset", app: gq.App, q: runtime.Query{Text: "adventure", Offset: 2}, contains: `class="sym-source"`},
			{name: "empty-supplemental-failing-primary", app: edges, q: runtime.Query{Text: "adventure"}, contains: `data-source="nothing"><div class="sym-results"></div></div>`},
			{name: "composed", app: meta, q: runtime.Query{Text: title}, contains: `<dl class="sym-item">`},
		} {
			if tc.failing {
				gq.Pricing.FailEvery = 1
			}
			resp, err := p.Executor.Execute(context.Background(), tc.app, tc.q)
			gq.Pricing.FailEvery = 0
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want, blocks := refPage(tc.app, resp, cfg.ClickBase)
			if resp.HTML != want {
				t.Fatalf("%s (click base %q): page\n got %s\nwant %s", tc.name, cfg.ClickBase, resp.HTML, want)
			}
			for k, b := range resp.Blocks {
				if b.HTML != blocks[k] {
					t.Fatalf("%s: block %d\n got %s\nwant %s", tc.name, k, b.HTML, blocks[k])
				}
			}
			if !strings.Contains(resp.HTML, tc.contains) {
				t.Fatalf("%s: page lacks %q: %s", tc.name, tc.contains, resp.HTML)
			}
		}
	}
}
