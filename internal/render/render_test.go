package render

import (
	"fmt"
	"html"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/source"
)

func card() *layout.Element {
	root := &layout.Element{Type: layout.ElemContainer}
	root.Append(
		&layout.Element{Type: layout.ElemLink, Field: "title", HrefField: "url"},
		&layout.Element{Type: layout.ElemImage, Field: "image"},
		&layout.Element{Type: layout.ElemText, Field: "description"},
	)
	return root
}

func item() source.Item {
	return source.Item{
		"title":       "Legend of Zelda",
		"url":         "http://shop.example/zelda",
		"image":       "http://img.example/zelda.png",
		"description": "An adventure game",
	}
}

func TestItemRendersBindings(t *testing.T) {
	r := &Renderer{}
	html := r.Item(card(), item(), nil)
	for _, want := range []string{
		`<a href="http://shop.example/zelda">Legend of Zelda</a>`,
		`<img src="http://img.example/zelda.png"`,
		`<span>An adventure game</span>`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("missing %q in %s", want, html)
		}
	}
}

func TestEscaping(t *testing.T) {
	r := &Renderer{}
	evil := source.Item{
		"title":       `<script>alert(1)</script>`,
		"url":         `javascript:alert(1)`,
		"image":       `data:text/html,x`,
		"description": `"quoted" & <tagged>`,
	}
	html := r.Item(card(), evil, nil)
	if strings.Contains(html, "<script>") {
		t.Error("script tag not escaped")
	}
	if strings.Contains(html, "javascript:") {
		t.Error("javascript: URL survived")
	}
	if strings.Contains(html, "data:") {
		t.Error("data: URL survived")
	}
	if !strings.Contains(html, "&lt;tagged&gt;") {
		t.Error("text not escaped")
	}
}

func TestSafeURL(t *testing.T) {
	cases := map[string]string{
		"http://a.example/x":  "http://a.example/x",
		"https://a.example":   "https://a.example",
		"ftp://files.example": "ftp://files.example",
		"/relative/path":      "/relative/path",
		"javascript:alert(1)": "#",
		"data:text/html":      "#",
		"  http://b.example":  "http://b.example",
		"":                    "",
	}
	for in, want := range cases {
		if got := SafeURL(in); got != want {
			t.Errorf("SafeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLiteralFallback(t *testing.T) {
	r := &Renderer{}
	el := &layout.Element{Type: layout.ElemText, Field: "missing", Literal: "default text"}
	html := r.Item(el, source.Item{}, nil)
	if !strings.Contains(html, "default text") {
		t.Errorf("literal fallback missing: %s", html)
	}
}

func TestNilLayoutFallsBackToFieldDump(t *testing.T) {
	r := &Renderer{}
	html := r.Item(nil, source.Item{"title": "X", "_score": "1.0"}, nil)
	if !strings.Contains(html, "<dl") || !strings.Contains(html, "X") {
		t.Errorf("fallback dump wrong: %s", html)
	}
	if strings.Contains(html, "_score") {
		t.Error("internal fields leaked into fallback")
	}
}

func TestStyleRendering(t *testing.T) {
	r := &Renderer{}
	el := (&layout.Element{Type: layout.ElemText, Field: "title"}).SetStyle("color", "red")
	html := r.Item(el, item(), nil)
	if !strings.Contains(html, `style="color:red"`) {
		t.Errorf("style missing: %s", html)
	}
}

func TestStylesheetApplied(t *testing.T) {
	r := &Renderer{Stylesheet: &layout.Stylesheet{Rules: map[string]map[string]string{
		"text": {"font-size": "12px"},
	}}}
	el := &layout.Element{Type: layout.ElemText, Field: "title"}
	html := r.Item(el, item(), nil)
	if !strings.Contains(html, "font-size:12px") {
		t.Errorf("stylesheet not applied: %s", html)
	}
}

func TestClickWrapping(t *testing.T) {
	r := &Renderer{ClickBase: "http://symphony.example/click", AppID: "shop app"}
	html := r.Item(card(), item(), nil)
	if !strings.Contains(html, "http://symphony.example/click?app=shop+app&amp;url=http%3A%2F%2Fshop.example%2Fzelda") {
		t.Errorf("click wrapping wrong: %s", html)
	}
}

func TestSourceSlotInjectsSupplementalHTML(t *testing.T) {
	r := &Renderer{}
	tree := card()
	tree.Append(&layout.Element{Type: layout.ElemSourceSlot, SourceID: "reviews"})
	html := r.Item(tree, item(), map[string]string{"reviews": "<em>review list</em>"})
	if !strings.Contains(html, `data-source="reviews"`) || !strings.Contains(html, "<em>review list</em>") {
		t.Errorf("slot injection wrong: %s", html)
	}
}

func TestList(t *testing.T) {
	r := &Renderer{}
	items := []source.Item{item(), item()}
	html := r.List(card(), items, nil)
	if strings.Count(html, "Legend of Zelda") != 2 {
		t.Errorf("list did not render both items: %s", html)
	}
	if !strings.HasPrefix(html, `<div class="sym-results">`) {
		t.Error("list wrapper missing")
	}
}

func TestPage(t *testing.T) {
	html := Page("myapp", []string{"<p>a</p>", "<p>b</p>"})
	if !strings.Contains(html, `data-app="myapp"`) || !strings.Contains(html, "<p>a</p><p>b</p>") {
		t.Errorf("page = %s", html)
	}
}

// Values that stress escaping, the URL allowlist and the literal
// fallback: markup and quotes, javascript: links, upper-case and
// space-padded URLs, and empty fields.
var hostileValues = []string{
	"",
	"plain words",
	`<script>alert('x')</script>`,
	`Tom & "Jerry" > 'Spike'`,
	"javascript:alert(1)",
	" JavaScript:alert(1)",
	"HTTP://UPPER.EXAMPLE/A?b=1&c=<2>",
	"  https://padded.example/x y  ",
	"/rooted/path?q=\"x\"",
	"ftp://files.example/f.zip",
	"data:text/html,<b>x</b>",
	"Ünïcode ✓ café",
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var (
	layoutFields = []string{"title", "url", "image", "desc", "missing", "_score"}
	slotIDs      = []string{"reviews", "pricing", `odd"<id>&`}
	styleProps   = []string{"color", "font-size", "border", "background"}
	styleValues  = []string{"red", "12px", "1px solid #ccc", `url("a<b>.png")`, "x&y"}
)

func randomLayout(rng *rand.Rand, depth int) *layout.Element {
	types := []layout.ElementType{layout.ElemContainer, layout.ElemText, layout.ElemImage, layout.ElemLink, layout.ElemSourceSlot}
	el := &layout.Element{Type: pick(rng, types)}
	if el.Type == layout.ElemContainer && depth >= 3 {
		el.Type = layout.ElemText
	}
	for n := rng.Intn(3); n > 0; n-- {
		el.SetStyle(pick(rng, styleProps), pick(rng, styleValues))
	}
	switch el.Type {
	case layout.ElemContainer:
		for n := rng.Intn(4); n > 0; n-- {
			el.Append(randomLayout(rng, depth+1))
		}
	case layout.ElemText, layout.ElemLink:
		if rng.Intn(4) > 0 {
			el.Field = pick(rng, layoutFields)
		}
		if rng.Intn(2) == 0 {
			el.Literal = pick(rng, []string{"Ad", "n/a", `<"literal"> & 'co'`})
		}
		if el.Type == layout.ElemLink {
			el.HrefField = pick(rng, layoutFields)
		}
	case layout.ElemImage:
		el.Field = pick(rng, layoutFields)
	case layout.ElemSourceSlot:
		el.SourceID = pick(rng, slotIDs)
	}
	return el
}

func randomStylesheet(rng *rand.Rand) *layout.Stylesheet {
	if rng.Intn(2) == 0 {
		return nil
	}
	ss := &layout.Stylesheet{Rules: map[string]map[string]string{}}
	for _, typ := range []string{"container", "text", "image", "link", "sourceslot"} {
		if rng.Intn(2) == 0 {
			ss.Rules[typ] = map[string]string{pick(rng, styleProps): pick(rng, styleValues)}
		}
	}
	return ss
}

func randomItem(rng *rand.Rand) source.Item {
	it := source.Item{}
	for _, f := range layoutFields {
		if rng.Intn(4) > 0 {
			it[f] = pick(rng, hostileValues)
		}
	}
	return it
}

// TestCompiledMatchesReference: the compiled renderer is byte-identical
// to the reference string renderer over random layouts, stylesheets,
// hostile items and supplemental HTML, with and without click logging.
func TestCompiledMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var el *layout.Element
		if rng.Intn(8) > 0 {
			el = randomLayout(rng, 0)
		}
		ss := randomStylesheet(rng)
		items := make([]source.Item, rng.Intn(4))
		supp := make([]map[string]string, len(items))
		for i := range items {
			items[i] = randomItem(rng)
			supp[i] = map[string]string{}
			for _, id := range slotIDs {
				if rng.Intn(2) == 0 {
					supp[i][id] = `<div class="sym-results"><em>` + id + `</em></div>`
				}
			}
		}
		for _, clickBase := range []string{"", "http://symphony.example/click"} {
			r := &Renderer{Stylesheet: ss, ClickBase: clickBase, AppID: pick(rng, []string{"shop app", `a&b"c`})}
			ref := (*RefRenderer)(r)
			where := fmt.Sprintf("seed %d, click base %q", seed, clickBase)
			for i, item := range items {
				if got, want := r.Item(el, item, supp[i]), ref.Item(el, item, supp[i]); got != want {
					t.Fatalf("%s: Item\n got %s\nwant %s", where, got, want)
				}
			}
			if got, want := r.List(el, items, supp), ref.List(el, items, supp); got != want {
				t.Fatalf("%s: List\n got %s\nwant %s", where, got, want)
			}
			got := string(Compile(el, ss).AppendList(nil, items, r.ClickPrefix()))
			if want := ref.List(el, items, nil); got != want {
				t.Fatalf("%s: AppendList\n got %s\nwant %s", where, got, want)
			}
			blocks := []string{got, "<p>b</p>"}
			if got, want := Page(r.AppID, blocks), RefPage(r.AppID, blocks); got != want {
				t.Fatalf("%s: Page\n got %s\nwant %s", where, got, want)
			}
		}
	}
}

func TestAppendEscapedMatchesHTML(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "ab <>&'\"é\x00"
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		s := string(b)
		if got, want := string(AppendEscaped([]byte("pre:"), s)), "pre:"+html.EscapeString(s); got != want {
			t.Fatalf("AppendEscaped(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestCompiledItemAllocs guards the per-item rendering cost: a
// media-card item renders into a reused buffer without allocating,
// and click logging adds at most one allocation per link (the query
// escape of its target).
func TestCompiledItemAllocs(t *testing.T) {
	el, err := layout.FromTemplate("media-card", map[string]string{
		"title": "title", "url": "url", "image": "image", "description": "description",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(el, &layout.Stylesheet{Rules: map[string]map[string]string{"text": {"color": "#444"}}})
	it := item()
	const links = 1
	for _, tc := range []struct {
		click string
		max   float64
	}{
		{"", 0},
		{(&Renderer{ClickBase: "http://symphony.example/click", AppID: "shop"}).ClickPrefix(), links},
	} {
		buf := c.AppendItem(nil, it, tc.click, nil)
		if n := testing.AllocsPerRun(200, func() { buf = c.AppendItem(buf[:0], it, tc.click, nil) }); n > tc.max {
			t.Errorf("click prefix %q: %v allocs per item, want at most %v", tc.click, n, tc.max)
		}
	}
}
