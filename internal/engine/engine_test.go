package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/webcorpus"
)

var testCorpus = webcorpus.Generate(webcorpus.Config{Seed: 42})

func newEngine(t testing.TB) *Engine {
	t.Helper()
	return New(func() *webcorpus.Corpus { return testCorpus })
}

// generated is a corpus source that generates cfg's web on first use.
func generated(cfg webcorpus.Config) func() *webcorpus.Corpus {
	return func() *webcorpus.Corpus { return webcorpus.Generate(cfg) }
}

func TestAllVerticalsIndexed(t *testing.T) {
	e := newEngine(t)
	total := 0
	for _, v := range webcorpus.Verticals {
		n := e.DocCount(v)
		if n == 0 {
			t.Errorf("vertical %s empty", v)
		}
		total += n
	}
	if total != len(testCorpus.Pages) {
		t.Errorf("indexed %d docs, corpus has %d", total, len(testCorpus.Pages))
	}
}

func TestSearchFindsEntity(t *testing.T) {
	e := newEngine(t)
	entity := testCorpus.Pages[0].Entity
	rs, err := e.Search(context.Background(), Request{Query: entity, Vertical: testCorpus.Pages[0].Vertical})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatalf("no results for %q", entity)
	}
	found := false
	for _, r := range rs {
		if r.Entity == entity {
			found = true
		}
	}
	if !found {
		t.Errorf("entity %q not in top results", entity)
	}
}

func TestDefaultVerticalIsWeb(t *testing.T) {
	e := newEngine(t)
	rs, err := e.Search(context.Background(), Request{Query: "review"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Vertical != webcorpus.VerticalWeb {
			t.Errorf("got vertical %s", r.Vertical)
		}
	}
}

func TestUnknownVertical(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Search(context.Background(), Request{Query: "x", Vertical: "maps"}); err == nil {
		t.Fatal("unknown vertical accepted")
	}
}

func TestSiteRestriction(t *testing.T) {
	e := newEngine(t)
	sites := []string{"ign.com", "gamespot.com", "teamxbox.com"}
	entity := gameEntity(t)
	rs, err := e.Search(context.Background(), Request{Query: entity, Sites: sites, Limit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Skip("no restricted results for this entity")
	}
	allowed := map[string]bool{}
	for _, s := range sites {
		allowed[s] = true
	}
	for _, r := range rs {
		if !allowed[r.Site] {
			t.Errorf("site restriction leaked %s", r.Site)
		}
	}
}

func gameEntity(t testing.TB) string {
	t.Helper()
	for _, p := range testCorpus.Pages {
		if p.Topic == webcorpus.TopicGames && p.Vertical == webcorpus.VerticalWeb && p.Site == "ign.com" {
			return p.Entity
		}
	}
	t.Fatal("no game page on ign.com in corpus")
	return ""
}

func TestQueryAugmentation(t *testing.T) {
	e := newEngine(t)
	entity := gameEntity(t)
	plain, _ := e.Search(context.Background(), Request{Query: entity, Limit: 10})
	augmented, _ := e.Search(context.Background(), Request{Query: entity, AddTerms: []string{"review"}, Limit: 10})
	if len(plain) == 0 || len(augmented) == 0 {
		t.Skip("not enough results to compare")
	}
	// Augmented top result should mention "review" more often in the
	// title; at minimum results may differ in order.
	reviewHits := 0
	for _, r := range augmented {
		if strings.Contains(strings.ToLower(r.Title), "review") {
			reviewHits++
		}
	}
	if reviewHits == 0 {
		t.Error("augmentation with 'review' surfaced no review pages")
	}
}

func TestPreferURLsReorders(t *testing.T) {
	e := newEngine(t)
	entity := gameEntity(t)
	base, _ := e.Search(context.Background(), Request{Query: entity, Limit: 10})
	if len(base) < 2 {
		t.Skip("need at least 2 results")
	}
	// Prefer the last result; it should move to the front (its score
	// is multiplied well past the leader's).
	target := base[len(base)-1].URL
	re, _ := e.Search(context.Background(), Request{Query: entity, Limit: 10, PreferURLs: []string{target}})
	if re[0].URL != target {
		t.Errorf("preferred URL %s not first (got %s)", target, re[0].URL)
	}
}

func TestPagination(t *testing.T) {
	e := newEngine(t)
	all, _ := e.Search(context.Background(), Request{Query: "review", Limit: 10})
	p2, _ := e.Search(context.Background(), Request{Query: "review", Limit: 5, Offset: 5})
	if len(all) != 10 || len(p2) != 5 {
		t.Fatalf("sizes %d %d", len(all), len(p2))
	}
	if all[5].URL != p2[0].URL {
		t.Error("offset page misaligned")
	}
}

func TestNewsFreshness(t *testing.T) {
	e := newEngine(t)
	rs, err := e.Search(context.Background(), Request{Query: "announcement news", Vertical: webcorpus.VerticalNews, Limit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Skip("no news hits")
	}
	for _, r := range rs {
		if r.Vertical != webcorpus.VerticalNews {
			t.Errorf("non-news result %s", r.URL)
		}
	}
}

func TestQueryLogRecords(t *testing.T) {
	e := newEngine(t)
	e.Search(context.Background(), Request{Query: "zelda"})
	e.RecordClick("zelda", "http://ign.com/web/some-page-1")
	log := e.Log()
	if len(log) != 2 {
		t.Fatalf("log has %d entries", len(log))
	}
	if log[1].Site != "ign.com" {
		t.Errorf("click site = %q", log[1].Site)
	}
	if log[1].ClickedURL == "" || log[0].ClickedURL != "" {
		t.Error("click attribution wrong")
	}
}

// TestQueryLogBounded: the log keeps the most recent queryLogSize
// queries and every click, in arrival order.
func TestQueryLogBounded(t *testing.T) {
	e := newEngine(t)
	const queries = 10000
	clickAfter := map[int]string{10: "ign.com", 8000: "gamespot.com", queries - 1: "ign.com"}
	var arrived []LogEntry // the log as it would be without a bound
	for i := 0; i < queries; i++ {
		q := fmt.Sprint("q", i)
		e.logQuery(Request{Query: q})
		arrived = append(arrived, LogEntry{Query: q})
		if site, ok := clickAfter[i]; ok {
			url := "http://" + site + "/page"
			e.RecordClick(q, url)
			arrived = append(arrived, LogEntry{Query: q, ClickedURL: url, Site: site})
		}
	}
	var want []LogEntry
	drop := queries - queryLogSize
	for _, entry := range arrived {
		if entry.ClickedURL == "" && drop > 0 {
			drop--
			continue
		}
		want = append(want, entry)
	}
	got := e.Log()
	if len(got) != queryLogSize+len(clickAfter) {
		t.Fatalf("log has %d entries, want %d queries and %d clicks", len(got), queryLogSize, len(clickAfter))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("log out of order: first entries %+v, want %+v", got[:3], want[:3])
	}
}

func TestSearchDeterministic(t *testing.T) {
	e := newEngine(t)
	a, _ := e.Search(context.Background(), Request{Query: "review guide", Limit: 10})
	b, _ := e.Search(context.Background(), Request{Query: "review guide", Limit: 10})
	if len(a) != len(b) {
		t.Fatal("result counts differ")
	}
	for i := range a {
		if a[i].URL != b[i].URL {
			t.Fatal("nondeterministic ranking")
		}
	}
}

// TestQueryMatchesSeparateCalls: Query's page must return exactly what
// a separate Search would, with a total and facets that agree.
func TestQueryMatchesSeparateCalls(t *testing.T) {
	e := newEngine(t)
	req := Request{Query: "review", Limit: 5}
	page, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != len(plain) {
		t.Fatalf("page has %d results, Search returned %d", len(page.Results), len(plain))
	}
	for i := range plain {
		if page.Results[i].URL != plain[i].URL || page.Results[i].Score != plain[i].Score {
			t.Fatalf("result %d: page %s@%v, search %s@%v",
				i, page.Results[i].URL, page.Results[i].Score, plain[i].URL, plain[i].Score)
		}
	}
	if page.Total < len(page.Results) {
		t.Fatalf("total %d < page results %d", page.Total, len(page.Results))
	}
	sum := 0
	for _, f := range page.SiteFacets {
		if f.N <= 0 {
			t.Fatalf("non-positive facet %v", f)
		}
		sum += f.N
	}
	if sum != page.Total {
		t.Fatalf("site facet sum %d != total %d (every page stores its site)", sum, page.Total)
	}
	if _, err := e.Query(context.Background(), Request{Query: "x", Vertical: "maps"}); err == nil {
		t.Fatal("unknown vertical should error")
	}
}

func TestQueryCancelledContext(t *testing.T) {
	e := newEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, Request{Query: testCorpus.Pages[0].Entity}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query under cancelled ctx = %v, want context.Canceled", err)
	}
	// A fresh background context has no deadline to hit: the same
	// request must still answer in full.
	page, err := e.Query(context.Background(), Request{Query: testCorpus.Pages[0].Entity, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if page.Total == 0 {
		t.Fatal("Query returned no hits")
	}
}

// TestStatusReportsCorpusTime: corpusMs reads 0 until a request needs
// the web — reading Status does not generate it — and then reports the
// one generation, which a first query's time splits into beside the
// vertical's buildMs.
func TestStatusReportsCorpusTime(t *testing.T) {
	calls := 0
	e := New(func() *webcorpus.Corpus {
		calls++
		return webcorpus.Generate(webcorpus.Config{Seed: 3})
	})
	for i := 0; i < 2; i++ {
		if st := e.Status(); st.CorpusMs != 0 || len(st.Verticals) != len(webcorpus.Verticals) {
			t.Fatalf("fresh engine status: %+v", st)
		}
	}
	if calls != 0 {
		t.Fatalf("Status generated the corpus %d times", calls)
	}
	if _, err := e.Search(context.Background(), Request{Query: "review"}); err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if st.CorpusMs <= 0 {
		t.Fatalf("corpusMs after the first query = %v", st.CorpusMs)
	}
	web := st.Verticals[0]
	if web.Vertical != webcorpus.VerticalWeb || !web.Built || web.BuildMs <= 0 {
		t.Fatalf("web vertical after the first query: %+v", web)
	}
	for _, vs := range st.Verticals[1:] {
		if vs.Built {
			t.Errorf("%s built by a web query", vs.Vertical)
		}
	}
	e.DocCount(webcorpus.VerticalNews)
	if again := e.Status(); again.CorpusMs != st.CorpusMs || calls != 1 {
		t.Fatalf("corpusMs %v -> %v after a second vertical, %d generations", st.CorpusMs, again.CorpusMs, calls)
	}
}
