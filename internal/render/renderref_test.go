package render

import (
	"html"
	"net/url"
	"strings"

	"repro/internal/app"
	"repro/internal/layout"
	"repro/internal/source"
)

// RefRenderer is the string renderer the compiled path replaced, kept
// verbatim as the oracle the equivalence tests compare against: it
// walks the layout tree once per item and builds strings inside
// strings. Only the names changed. It is exported so the external
// test package, which drives the runtime, can use it too.
type RefRenderer Renderer

func (r *RefRenderer) Item(el *layout.Element, item source.Item, supplementalHTML map[string]string) string {
	var b strings.Builder
	if el == nil {
		r.fallback(&b, item)
		return b.String()
	}
	r.render(&b, el, item, supplementalHTML)
	return b.String()
}

func (r *RefRenderer) fallback(b *strings.Builder, item source.Item) {
	b.WriteString(`<dl class="sym-item">`)
	for _, k := range refSortedKeys(item) {
		if strings.HasPrefix(k, "_") {
			continue
		}
		b.WriteString("<dt>")
		b.WriteString(html.EscapeString(k))
		b.WriteString("</dt><dd>")
		b.WriteString(html.EscapeString(item[k]))
		b.WriteString("</dd>")
	}
	b.WriteString("</dl>")
}

func refSortedKeys(item source.Item) []string {
	keys := make([]string, 0, len(item))
	for k := range item {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

func (r *RefRenderer) render(b *strings.Builder, el *layout.Element, item source.Item, supp map[string]string) {
	style := layout.StyleAttr(r.Stylesheet.Resolve(el))
	attr := ""
	if style != "" {
		attr = ` style="` + html.EscapeString(style) + `"`
	}
	switch el.Type {
	case layout.ElemContainer:
		b.WriteString("<div" + attr + ">")
		for _, c := range el.Children {
			r.render(b, c, item, supp)
		}
		b.WriteString("</div>")
	case layout.ElemText:
		b.WriteString("<span" + attr + ">")
		b.WriteString(html.EscapeString(r.content(el, item)))
		b.WriteString("</span>")
	case layout.ElemImage:
		src := SafeURL(item[el.Field])
		b.WriteString(`<img` + attr + ` src="` + html.EscapeString(src) + `" alt=""/>`)
	case layout.ElemLink:
		href := r.href(SafeURL(item[el.HrefField]))
		b.WriteString(`<a` + attr + ` href="` + html.EscapeString(href) + `">`)
		b.WriteString(html.EscapeString(r.content(el, item)))
		b.WriteString("</a>")
	case layout.ElemSourceSlot:
		b.WriteString(`<div class="sym-supplemental" data-source="` + html.EscapeString(el.SourceID) + `">`)
		b.WriteString(supp[el.SourceID]) // already-rendered safe HTML
		b.WriteString("</div>")
	}
}

func (r *RefRenderer) content(el *layout.Element, item source.Item) string {
	if el.Field != "" {
		if v := item[el.Field]; v != "" {
			return v
		}
	}
	return el.Literal
}

func (r *RefRenderer) href(target string) string {
	if r.ClickBase == "" || target == "" {
		return target
	}
	return r.ClickBase + "?app=" + url.QueryEscape(r.AppID) + "&url=" + url.QueryEscape(target)
}

func (r *RefRenderer) List(el *layout.Element, items []source.Item, suppByItem []map[string]string) string {
	var b strings.Builder
	b.WriteString(`<div class="sym-results">`)
	for i, item := range items {
		var supp map[string]string
		if i < len(suppByItem) {
			supp = suppByItem[i]
		}
		b.WriteString(r.Item(el, item, supp))
	}
	b.WriteString("</div>")
	return b.String()
}

// RefPage is the oracle for Page.
func RefPage(appID string, blocks []string) string {
	var b strings.Builder
	b.WriteString(`<div class="symphony-app" data-app="` + html.EscapeString(appID) + `">`)
	for _, blk := range blocks {
		b.WriteString(blk)
	}
	b.WriteString("</div>")
	return b.String()
}

// RefListWithSupp is the oracle for one primary source block of the
// runtime's page: the runtime's renderListWithSupp, verbatim.
func RefListWithSupp(r *RefRenderer, sc *app.SourceConfig, items []source.Item, supp []map[string]string) string {
	var blocks []string
	for i, item := range items {
		var m map[string]string
		if i < len(supp) {
			m = supp[i]
		}
		blocks = append(blocks, r.Item(sc.Layout, item, m))
	}
	return `<div class="sym-source" data-source="` + html.EscapeString(sc.ID) + `">` + strings.Join(blocks, "") + `</div>`
}
