// Package source defines the DataSource abstraction that Symphony's
// runtime composes: proprietary datasets, the engine's built-in
// web/image/video/news services, ad services, and SOAP/REST web
// services all answer the same Search call, which is what lets the
// design interface treat them as interchangeable drag-n-drop blocks
// (§II-A, Data Integration).
package source

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ads"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

// Item is one unified result: a bag of display fields. Adapter
// implementations document which fields they emit.
type Item map[string]string

// Request is a unified query. For primary sources Query carries the
// end user's text; for supplemental sources Args carries the driving
// field values from one primary result and Query is built from the
// source's template over them.
type Request struct {
	Query string
	Args  map[string]string
	Limit int
}

// Source is anything that can answer a search.
type Source interface {
	// Name identifies the source instance in traces and layouts.
	Name() string
	// Kind describes the adapter family ("proprietary", "websearch",
	// "ads", "service", ...).
	Kind() string
	// Search returns ranked items.
	Search(ctx context.Context, req Request) ([]Item, error)
}

// QueryCorrector is implemented by sources that can spell-correct a
// query against their own vocabulary. The runtime consults it when a
// primary source returns no results ("did you mean").
type QueryCorrector interface {
	CorrectQuery(query string) (corrected string, changed bool)
}

// CorrectQuery implements QueryCorrector over the dataset vocabulary.
func (s *StoreSource) CorrectQuery(query string) (string, bool) {
	return s.Dataset.SuggestQuery(query)
}

// StoreSource exposes one proprietary dataset. Emitted fields are the
// record's schema fields plus "_id" and "_score".
type StoreSource struct {
	SourceName string
	Dataset    *store.Dataset
	// SearchFields configures which fields the user query runs
	// against ("search by title, producer, and description").
	SearchFields []string
	Filters      []store.Filter
	OrderBy      string
}

// Name implements Source.
func (s *StoreSource) Name() string { return s.SourceName }

// Kind implements Source.
func (s *StoreSource) Kind() string { return "proprietary" }

// Search implements Source.
func (s *StoreSource) Search(ctx context.Context, req Request) ([]Item, error) {
	hits, err := s.Dataset.SearchContext(ctx, store.SearchRequest{
		Query:   req.Query,
		Fields:  s.SearchFields,
		Filters: s.Filters,
		OrderBy: s.OrderBy,
		Limit:   req.Limit,
	})
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", s.SourceName, err)
	}
	// Each hit's record is already the store's private copy, so it
	// becomes the item as is.
	out := make([]Item, len(hits))
	for i, h := range hits {
		out[i] = Item(h.Record)
		out[i]["_score"] = formatScore(h.Score)
	}
	return out, nil
}

// EngineSource exposes one engine vertical with the paper's
// configuration hooks. Emitted fields: url, site, title, snippet,
// entity, _score.
type EngineSource struct {
	SourceName string
	Engine     *engine.Engine
	Vertical   webcorpus.Vertical
	Sites      []string
	AddTerms   []string
	PreferURLs []string
	// QueryTemplate builds the engine query for supplemental use,
	// e.g. "{title} review". Empty means use req.Query directly.
	QueryTemplate string
}

// Name implements Source.
func (s *EngineSource) Name() string { return s.SourceName }

// Kind implements Source.
func (s *EngineSource) Kind() string {
	if s.Vertical == "" {
		return "websearch"
	}
	return string(s.Vertical) + "search"
}

// Search implements Source.
func (s *EngineSource) Search(ctx context.Context, req Request) ([]Item, error) {
	query := req.Query
	if s.QueryTemplate != "" {
		// A supplemental query with no driving data is skipped: firing
		// "review" for every item whose title field is empty would
		// return unrelated content.
		if allRefsEmpty(s.QueryTemplate, req.Args) {
			return nil, nil
		}
		query = webservice.ExpandTemplate(s.QueryTemplate, req.Args)
	}
	if strings.TrimSpace(query) == "" {
		return nil, nil
	}
	rs, err := s.Engine.Search(ctx, engine.Request{
		Query:      query,
		Vertical:   s.Vertical,
		Sites:      s.Sites,
		AddTerms:   s.AddTerms,
		PreferURLs: s.PreferURLs,
		Limit:      req.Limit,
	})
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", s.SourceName, err)
	}
	out := make([]Item, len(rs))
	for i, r := range rs {
		out[i] = Item{
			"url":     r.URL,
			"site":    r.Site,
			"title":   r.Title,
			"snippet": r.Snippet,
			"entity":  r.Entity,
			"_score":  formatScore(r.Score),
		}
	}
	return out, nil
}

// formatScore renders a hit's _score field; byte-identical to
// fmt's "%.4f" without its per-call boxing.
func formatScore(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }

// formatCPC renders an ad's cpc field; byte-identical to "%.2f".
func formatCPC(x float64) string { return strconv.FormatFloat(x, 'f', 2, 64) }

// CorrectQuery implements QueryCorrector over the engine's web-title
// vocabulary.
func (s *EngineSource) CorrectQuery(query string) (string, bool) {
	return s.Engine.DidYouMean(query)
}

// allRefsEmpty reports whether a query template references at least
// one placeholder and every referenced arg is empty.
func allRefsEmpty(tmpl string, args map[string]string) bool {
	refs := webservice.TemplateRefs(tmpl)
	if len(refs) == 0 {
		return false
	}
	for _, r := range refs {
		if strings.TrimSpace(args[r]) != "" {
			return false
		}
	}
	return true
}

// ServiceSource exposes a SOAP/REST web service. Emitted fields are
// whatever the service returns.
type ServiceSource struct {
	SourceName string
	Client     *webservice.Client
	Definition webservice.Definition
}

// Name implements Source.
func (s *ServiceSource) Name() string { return s.SourceName }

// Kind implements Source.
func (s *ServiceSource) Kind() string { return "service" }

// Search implements Source.
func (s *ServiceSource) Search(ctx context.Context, req Request) ([]Item, error) {
	args := req.Args
	if args == nil {
		args = map[string]string{"query": req.Query}
	}
	resp, err := s.Client.Call(ctx, s.Definition, args)
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", s.SourceName, err)
	}
	items := resp.Items
	if req.Limit > 0 && len(items) > req.Limit {
		items = items[:req.Limit]
	}
	out := make([]Item, len(items))
	for i, it := range items {
		item := make(Item, len(it))
		for k, v := range it {
			item[k] = v
		}
		out[i] = item
	}
	return out, nil
}

// AdSource exposes the ad service as a content source (§II-A: ads are
// "displayed and configured just like any other content source").
// Emitted fields: title, text, url, cpc, adid, advertiser.
type AdSource struct {
	SourceName string
	Service    *ads.Service
	// QueryTemplate optionally targets ads with supplemental args
	// instead of the user query.
	QueryTemplate string
}

// Name implements Source.
func (s *AdSource) Name() string { return s.SourceName }

// Kind implements Source.
func (s *AdSource) Kind() string { return "ads" }

// Search implements Source.
func (s *AdSource) Search(_ context.Context, req Request) ([]Item, error) {
	query := req.Query
	if s.QueryTemplate != "" {
		if allRefsEmpty(s.QueryTemplate, req.Args) {
			return nil, nil
		}
		query = webservice.ExpandTemplate(s.QueryTemplate, req.Args)
	}
	sels := s.Service.Select(query, req.Limit)
	out := make([]Item, len(sels))
	for i, sel := range sels {
		out[i] = Item{
			"title":      sel.Ad.Title,
			"text":       sel.Ad.Text,
			"url":        sel.Ad.LandingURL,
			"cpc":        formatCPC(sel.ClickCPC),
			"adid":       sel.Ad.ID,
			"advertiser": sel.Ad.Advertiser,
		}
	}
	return out, nil
}

// Func adapts a function to Source; used in tests and for app
// composition.
type Func struct {
	SourceName string
	SourceKind string
	Fn         func(ctx context.Context, req Request) ([]Item, error)
}

// Name implements Source.
func (f *Func) Name() string { return f.SourceName }

// Kind implements Source.
func (f *Func) Kind() string {
	if f.SourceKind == "" {
		return "func"
	}
	return f.SourceKind
}

// Search implements Source.
func (f *Func) Search(ctx context.Context, req Request) ([]Item, error) {
	return f.Fn(ctx, req)
}
