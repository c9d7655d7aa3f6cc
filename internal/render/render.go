// Package render turns result items and layout trees into the HTML
// fragment Symphony sends back to the embedded JavaScript (Fig 2:
// "merged ... and formatted into HTML, applying any configured layout
// and presentation details").
//
// A layout is compiled under its stylesheet into a flat op list
// (Compile), and items are appended through it into one byte buffer,
// so a page is rendered in one pass without strings inside strings.
//
// All field values are HTML-escaped; URLs additionally pass a scheme
// allowlist so a hostile record cannot inject javascript: links into
// a hosted application.
package render

import (
	"maps"
	"net/url"
	"slices"
	"strings"

	"repro/internal/layout"
	"repro/internal/source"
)

// Renderer renders items under an optional stylesheet.
type Renderer struct {
	Stylesheet *layout.Stylesheet
	// ClickBase, when set, wraps outbound hrefs in the hosting click
	// redirect (/click?app=...&url=...) so interactions are logged
	// for monetization. Empty renders direct links.
	ClickBase string
	AppID     string
}

// Item renders one result item through a layout tree. A nil layout
// falls back to a definition-list dump of the item's fields, which is
// what the design GUI shows before a layout is configured.
func (r *Renderer) Item(el *layout.Element, item source.Item, supplementalHTML map[string]string) string {
	return string(Compile(el, r.Stylesheet).AppendItem(nil, item, r.ClickPrefix(), mapSlots(supplementalHTML)))
}

// List renders a list of items, each through the same layout.
func (r *Renderer) List(el *layout.Element, items []source.Item, suppByItem []map[string]string) string {
	c := Compile(el, r.Stylesheet)
	click := r.ClickPrefix()
	b := append([]byte(nil), listStart...)
	for i, item := range items {
		var supp map[string]string
		if i < len(suppByItem) {
			supp = suppByItem[i]
		}
		b = c.AppendItem(b, item, click, mapSlots(supp))
	}
	return string(append(b, listEnd...))
}

// mapSlots fills each source slot with already-rendered safe HTML.
func mapSlots(supp map[string]string) func([]byte, string) []byte {
	return func(dst []byte, sourceID string) []byte { return append(dst, supp[sourceID]...) }
}

// ClickPrefix returns the HTML-escaped start of every click-logged
// href, everything before the query-escaped target. It is empty when
// ClickBase is unset, which renders direct links.
func (r *Renderer) ClickPrefix() string {
	if r.ClickBase == "" {
		return ""
	}
	return string(AppendEscaped(nil, r.ClickBase+"?app="+url.QueryEscape(r.AppID)+"&url="))
}

// Page wraps rendered source blocks into the application response
// fragment injected by the embed JavaScript.
func Page(appID string, blocks []string) string {
	b := AppendPageStart(nil, appID)
	for _, blk := range blocks {
		b = append(b, blk...)
	}
	return string(append(b, PageEnd...))
}

// AppendPageStart appends the opening tag of the application response
// fragment; PageEnd closes it.
func AppendPageStart(dst []byte, appID string) []byte {
	dst = append(dst, `<div class="symphony-app" data-app="`...)
	dst = AppendEscaped(dst, appID)
	return append(dst, `">`...)
}

// PageEnd closes the fragment AppendPageStart opens.
const PageEnd = "</div>"

const (
	listStart = `<div class="sym-results">`
	listEnd   = "</div>"
)

type opKind uint8

const (
	opLiteral opKind = iota // lit, verbatim
	opText                  // the escaped field value, or lit (escaped) when it is empty
	opSrc                   // the escaped SafeURL of the field
	opHref                  // the SafeURL of the field as a link target, click-wrapped when configured
	opSlot                  // the content of the source slot named by field
)

type op struct {
	kind  opKind
	field string
	lit   string
}

// Compiled is a layout compiled under a stylesheet: a flat op list in
// which every byte that depends only on the layout (tags, the
// resolved and escaped style attributes, slot headers) is one
// precomputed literal.
type Compiled struct {
	ops []op
	// fallback marks a nil layout: the item's fields as a definition
	// list.
	fallback bool
}

// Compile compiles el under ss. A nil el compiles to the
// definition-list fallback.
func Compile(el *layout.Element, ss *layout.Stylesheet) *Compiled {
	if el == nil {
		return &Compiled{fallback: true}
	}
	k := compiler{ss: ss}
	k.element(el)
	k.flush()
	return &Compiled{ops: k.ops}
}

type compiler struct {
	ss  *layout.Stylesheet
	ops []op
	lit []byte // literal bytes not yet emitted as an op
}

func (k *compiler) literal(parts ...string) {
	for _, p := range parts {
		k.lit = append(k.lit, p...)
	}
}

func (k *compiler) flush() {
	if len(k.lit) > 0 {
		k.ops = append(k.ops, op{kind: opLiteral, lit: string(k.lit)})
		k.lit = k.lit[:0]
	}
}

func (k *compiler) emit(o op) {
	k.flush()
	k.ops = append(k.ops, o)
}

func (k *compiler) element(el *layout.Element) {
	var attr string
	if style := layout.StyleAttr(k.ss.Resolve(el)); style != "" {
		attr = ` style="` + string(AppendEscaped(nil, style)) + `"`
	}
	switch el.Type {
	case layout.ElemContainer:
		k.literal("<div", attr, ">")
		for _, c := range el.Children {
			k.element(c)
		}
		k.literal("</div>")
	case layout.ElemText:
		k.literal("<span", attr, ">")
		k.content(el)
		k.literal("</span>")
	case layout.ElemImage:
		k.literal("<img", attr, ` src="`)
		k.emit(op{kind: opSrc, field: el.Field})
		k.literal(`" alt=""/>`)
	case layout.ElemLink:
		k.literal("<a", attr, ` href="`)
		k.emit(op{kind: opHref, field: el.HrefField})
		k.literal(`">`)
		k.content(el)
		k.literal("</a>")
	case layout.ElemSourceSlot:
		k.literal(`<div class="sym-supplemental" data-source="`)
		k.lit = AppendEscaped(k.lit, el.SourceID)
		k.literal(`">`)
		k.emit(op{kind: opSlot, field: el.SourceID})
		k.literal("</div>")
	}
}

// content is an element's text: its bound field, falling back to its
// literal when the field is unbound or empty.
func (k *compiler) content(el *layout.Element) {
	if el.Field == "" {
		k.lit = AppendEscaped(k.lit, el.Literal)
		return
	}
	k.emit(op{kind: opText, field: el.Field, lit: string(AppendEscaped(nil, el.Literal))})
}

// AppendItem appends item rendered through c to dst. click is the
// Renderer's ClickPrefix ("" renders direct links). slot, when not
// nil, appends the content of the source slot named sourceID; a nil
// slot leaves every slot empty.
func (c *Compiled) AppendItem(dst []byte, item source.Item, click string, slot func(dst []byte, sourceID string) []byte) []byte {
	if c.fallback {
		return appendFields(dst, item)
	}
	for i := range c.ops {
		o := &c.ops[i]
		switch o.kind {
		case opLiteral:
			dst = append(dst, o.lit...)
		case opText:
			if v := item[o.field]; v != "" {
				dst = AppendEscaped(dst, v)
			} else {
				dst = append(dst, o.lit...)
			}
		case opSrc:
			dst = AppendEscaped(dst, SafeURL(item[o.field]))
		case opHref:
			target := SafeURL(item[o.field])
			if click == "" || target == "" {
				dst = AppendEscaped(dst, target)
			} else {
				// Query escaping leaves nothing HTML escaping would change.
				dst = append(dst, click...)
				dst = append(dst, url.QueryEscape(target)...)
			}
		case opSlot:
			if slot != nil {
				dst = slot(dst, o.field)
			}
		}
	}
	return dst
}

// AppendList appends items, each rendered through c with empty source
// slots, inside the results wrapper.
func (c *Compiled) AppendList(dst []byte, items []source.Item, click string) []byte {
	dst = append(dst, listStart...)
	for _, item := range items {
		dst = c.AppendItem(dst, item, click, nil)
	}
	return append(dst, listEnd...)
}

// appendFields is the nil-layout fallback: every field not starting
// with "_", in key order.
func appendFields(dst []byte, item source.Item) []byte {
	dst = append(dst, `<dl class="sym-item">`...)
	for _, k := range slices.Sorted(maps.Keys(item)) {
		if strings.HasPrefix(k, "_") {
			continue
		}
		dst = append(dst, "<dt>"...)
		dst = AppendEscaped(dst, k)
		dst = append(dst, "</dt><dd>"...)
		dst = AppendEscaped(dst, item[k])
		dst = append(dst, "</dd>"...)
	}
	return append(dst, "</dl>"...)
}

// AppendEscaped appends s HTML-escaped to dst, byte for byte as
// html.EscapeString escapes it.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '"':
			esc = "&#34;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// SafeURL allows http, https and ftp URLs plus rooted paths; anything
// else (javascript:, data:) collapses to "#".
func SafeURL(u string) string {
	lower := strings.ToLower(strings.TrimSpace(u))
	switch {
	case lower == "":
		return ""
	case strings.HasPrefix(lower, "http://"),
		strings.HasPrefix(lower, "https://"),
		strings.HasPrefix(lower, "ftp://"),
		strings.HasPrefix(lower, "/"):
		return strings.TrimSpace(u)
	}
	return "#"
}
