package index

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/textproc"
)

func sampleIndex(t testing.TB) *Index {
	t.Helper()
	ix := New()
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	docs := []Document{
		{ID: "g1", Fields: map[string]string{"title": "The Legend of Zelda", "desc": "An adventure game with puzzles and exploration"}, Stored: map[string]string{"title": "The Legend of Zelda", "producer": "Nintendo"}},
		{ID: "g2", Fields: map[string]string{"title": "Halo Wars", "desc": "A strategy game set in the Halo universe"}, Stored: map[string]string{"title": "Halo Wars", "producer": "Ensemble"}},
		{ID: "g3", Fields: map[string]string{"title": "Gears of War", "desc": "A shooter game with cover mechanics"}, Stored: map[string]string{"title": "Gears of War", "producer": "Epic"}},
		{ID: "g4", Fields: map[string]string{"title": "Zelda Spirit Tracks", "desc": "A handheld adventure game in the Zelda series"}, Stored: map[string]string{"title": "Zelda Spirit Tracks", "producer": "Nintendo"}},
	}
	// Snippets are cut from Stored: the index keeps no field text.
	for i := range docs {
		docs[i].Stored["desc"] = docs[i].Fields["desc"]
	}
	if err := ix.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	return ix
}

func ids(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestAddAndGet(t *testing.T) {
	ix := sampleIndex(t)
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	doc, ok := ix.Get("g1")
	if !ok || doc.Stored["producer"] != "Nintendo" {
		t.Fatalf("Get g1 = %#v, %v", doc, ok)
	}
	if _, ok := ix.Get("missing"); ok {
		t.Error("Get(missing) reported ok")
	}
}

func TestAddEmptyID(t *testing.T) {
	if err := New().Add(Document{}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestMatchQueryOr(t *testing.T) {
	ix := sampleIndex(t)
	rs := ix.mustSearch(MatchQuery{Text: "zelda adventure"}, SearchOptions{})
	got := ids(rs)
	if len(got) < 2 || got[0] != "g1" && got[0] != "g4" {
		t.Fatalf("zelda adventure results = %v", got)
	}
	// g2 (halo) must not match
	for _, id := range got {
		if id == "g2" {
			t.Error("g2 matched zelda adventure")
		}
	}
}

func TestMatchQueryAnd(t *testing.T) {
	ix := sampleIndex(t)
	rs := ix.mustSearch(MatchQuery{Text: "zelda puzzles", Operator: "and"}, SearchOptions{})
	if got := ids(rs); len(got) != 1 || got[0] != "g1" {
		t.Fatalf("AND query = %v, want [g1]", got)
	}
}

func TestFieldRestrictedMatch(t *testing.T) {
	ix := sampleIndex(t)
	rs := ix.mustSearch(MatchQuery{Fields: []string{"title"}, Text: "adventure"}, SearchOptions{})
	if len(rs) != 0 {
		t.Fatalf("title-only adventure matched %v", ids(rs))
	}
	rs = ix.mustSearch(MatchQuery{Fields: []string{"desc"}, Text: "adventure"}, SearchOptions{})
	if len(rs) != 2 {
		t.Fatalf("desc adventure = %v", ids(rs))
	}
}

func TestTitleBoostRanksTitleHitsFirst(t *testing.T) {
	ix := sampleIndex(t)
	rs := ix.mustSearch(MatchQuery{Text: "war"}, SearchOptions{})
	// g2 "Halo Wars" and g3 "Gears of War" have title hits; both should
	// rank and g2/g3 should beat any desc-only hit.
	if len(rs) < 2 {
		t.Fatalf("war results: %v", ids(rs))
	}
}

func TestPhraseQuery(t *testing.T) {
	ix := sampleIndex(t)
	rs := ix.mustSearch(PhraseQuery{Field: "title", Text: "spirit tracks"}, SearchOptions{})
	if got := ids(rs); len(got) != 1 || got[0] != "g4" {
		t.Fatalf("phrase = %v", got)
	}
	// Out-of-order words must not match as phrase.
	rs = ix.mustSearch(PhraseQuery{Field: "title", Text: "tracks spirit"}, SearchOptions{})
	if len(rs) != 0 {
		t.Fatalf("reversed phrase matched %v", ids(rs))
	}
}

func TestPhraseQueryWithStopwordGap(t *testing.T) {
	ix := sampleIndex(t)
	// "legend of zelda": "of" is a stopword; the gap must be honored.
	rs := ix.mustSearch(PhraseQuery{Field: "title", Text: "legend of zelda"}, SearchOptions{})
	if got := ids(rs); len(got) != 1 || got[0] != "g1" {
		t.Fatalf("stopword phrase = %v", got)
	}
	// "legend zelda" with no gap should NOT match because the indexed
	// positions have a hole where "of" was.
	rs = ix.mustSearch(PhraseQuery{Field: "title", Text: "legend zelda"}, SearchOptions{})
	if len(rs) != 0 {
		t.Fatalf("gapless phrase matched %v", ids(rs))
	}
}

func TestPrefixQuery(t *testing.T) {
	ix := sampleIndex(t)
	rs := ix.mustSearch(PrefixQuery{Field: "title", Prefix: "zel"}, SearchOptions{})
	if len(rs) != 2 {
		t.Fatalf("prefix zel = %v", ids(rs))
	}
}

func TestBoolQuery(t *testing.T) {
	ix := sampleIndex(t)
	q := BoolQuery{
		Must:    []Query{MatchQuery{Text: "game"}},
		MustNot: []Query{MatchQuery{Text: "zelda"}},
	}
	rs := ix.mustSearch(q, SearchOptions{})
	for _, id := range ids(rs) {
		if id == "g1" || id == "g4" {
			t.Errorf("mustnot leaked %s", id)
		}
	}
	if len(rs) != 2 {
		t.Fatalf("bool = %v", ids(rs))
	}
}

func TestBoolQueryShouldOnly(t *testing.T) {
	ix := sampleIndex(t)
	q := BoolQuery{Should: []Query{
		TermQuery{Field: "title", Term: "halo"},
		TermQuery{Field: "title", Term: "gears"},
	}}
	rs := ix.mustSearch(q, SearchOptions{})
	if len(rs) != 2 {
		t.Fatalf("should-only = %v", ids(rs))
	}
}

func TestAllQueryAndFilters(t *testing.T) {
	ix := sampleIndex(t)
	if rs := ix.mustSearch(AllQuery{}, SearchOptions{}); len(rs) != 4 {
		t.Fatalf("all = %v", ids(rs))
	}
	// A restriction is a filter-only clause next to the AllQuery.
	q := BoolQuery{Must: []Query{AllQuery{}, TermQuery{Field: "title", Term: "zelda"}}}
	if rs := ix.mustSearch(q, SearchOptions{}); len(rs) != 2 {
		t.Fatalf("all restricted to title:zelda = %v", ids(rs))
	}
}

func TestCount(t *testing.T) {
	ix := sampleIndex(t)
	if n := ix.mustCount(MatchQuery{Text: "game"}); n != 4 {
		t.Fatalf("Count(game) = %d", n)
	}
	if n := ix.mustCount(nil); n != 4 {
		t.Fatalf("Count(nil) = %d", n)
	}
}

func TestLimitOffset(t *testing.T) {
	ix := sampleIndex(t)
	all := ix.mustSearch(MatchQuery{Text: "game"}, SearchOptions{})
	page1 := ix.mustSearch(MatchQuery{Text: "game"}, SearchOptions{Limit: 2})
	page2 := ix.mustSearch(MatchQuery{Text: "game"}, SearchOptions{Limit: 2, Offset: 2})
	if len(page1) != 2 || len(page2) != 2 {
		t.Fatalf("pagination sizes %d %d", len(page1), len(page2))
	}
	if page1[0].ID != all[0].ID || page2[0].ID != all[2].ID {
		t.Error("pagination does not line up with full result order")
	}
	if got := ix.mustSearch(MatchQuery{Text: "game"}, SearchOptions{Offset: 99}); got != nil {
		t.Error("offset past end should be empty")
	}
}

func TestDelete(t *testing.T) {
	ix := sampleIndex(t)
	if !ix.Delete("g1") {
		t.Fatal("Delete(g1) = false")
	}
	if ix.Delete("g1") {
		t.Fatal("double delete reported true")
	}
	if ix.Len() != 3 {
		t.Fatalf("Len after delete = %d", ix.Len())
	}
	rs := ix.mustSearch(MatchQuery{Text: "legend"}, SearchOptions{})
	if len(rs) != 0 {
		t.Fatalf("deleted doc still matches: %v", ids(rs))
	}
}

func TestReAddReplaces(t *testing.T) {
	ix := sampleIndex(t)
	err := ix.Add(Document{ID: "g1", Fields: map[string]string{"title": "Completely New"}, Stored: map[string]string{"title": "Completely New"}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 4 {
		t.Fatalf("Len after replace = %d", ix.Len())
	}
	if rs := ix.mustSearch(MatchQuery{Text: "legend"}, SearchOptions{}); len(rs) != 0 {
		t.Error("old content of replaced doc still searchable")
	}
	if rs := ix.mustSearch(MatchQuery{Text: "completely"}, SearchOptions{}); len(rs) != 1 {
		t.Error("new content of replaced doc not searchable")
	}
}

func TestCompact(t *testing.T) {
	ix := sampleIndex(t)
	ix.Delete("g2")
	ix.Delete("g3")
	if err := ix.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	rs := ix.mustSearch(MatchQuery{Text: "zelda"}, SearchOptions{})
	if len(rs) != 2 {
		t.Fatalf("post-compact zelda = %v", ids(rs))
	}
	if ix.DocFreq("title", "halo") != 0 {
		t.Error("compacted term still has df")
	}
}

func TestDocFreq(t *testing.T) {
	ix := sampleIndex(t)
	if df := ix.DocFreq("title", "zelda"); df != 2 {
		t.Fatalf("df(zelda) = %d", df)
	}
	if df := ix.DocFreq("missing", "zelda"); df != 0 {
		t.Fatalf("df on missing field = %d", df)
	}
}

func TestFieldsSorted(t *testing.T) {
	ix := sampleIndex(t)
	fs := ix.Fields()
	if len(fs) != 2 || fs[0] != "desc" || fs[1] != "title" {
		t.Fatalf("Fields = %v", fs)
	}
}

func TestSnippetHighlights(t *testing.T) {
	ix := sampleIndex(t)
	rs := ix.mustSearch(MatchQuery{Text: "adventure"}, SearchOptions{SnippetField: "desc"})
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	found := false
	for _, r := range rs {
		if strings.Contains(r.Snippet, "<b>adventure</b>") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no highlighted snippet in %v", rs)
	}
}

func TestSnippetStemmedHighlight(t *testing.T) {
	ix := New()
	body := "Latest reviews from critics"
	ix.Add(Document{ID: "d", Fields: map[string]string{"body": body}, Stored: map[string]string{"body": body}})
	rs := ix.mustSearch(MatchQuery{Text: "review"}, SearchOptions{SnippetField: "body"})
	if len(rs) != 1 || !strings.Contains(rs[0].Snippet, "<b>reviews</b>") {
		t.Fatalf("stemmed highlight missing: %#v", rs)
	}
}

func TestKeywordFieldAnalyzer(t *testing.T) {
	ix := New()
	ix.SetFieldOptions("site", FieldOptions{Analyzer: textproc.KeywordAnalyzer})
	ix.Add(Document{ID: "p", Fields: map[string]string{"site": "ign.com"}})
	rs := ix.mustSearch(TermQuery{Field: "site", Term: "ign"}, SearchOptions{})
	if len(rs) != 1 {
		t.Fatalf("keyword term = %v", ids(rs))
	}
}

func TestScoreOrderingDeterministic(t *testing.T) {
	ix := sampleIndex(t)
	a := ids(ix.mustSearch(MatchQuery{Text: "game"}, SearchOptions{}))
	for i := 0; i < 5; i++ {
		b := ids(ix.mustSearch(MatchQuery{Text: "game"}, SearchOptions{}))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("nondeterministic order: %v vs %v", a, b)
			}
		}
	}
}

func TestEmptyQueryText(t *testing.T) {
	ix := sampleIndex(t)
	if rs := ix.mustSearch(MatchQuery{Text: "   "}, SearchOptions{}); len(rs) != 0 {
		t.Fatalf("blank query matched %v", ids(rs))
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix.Add(Document{
					ID:     fmt.Sprintf("w%d-%d", w, i),
					Fields: map[string]string{"body": "concurrent search platform test"},
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix.mustSearch(MatchQuery{Text: "platform"}, SearchOptions{Limit: 10})
			}
		}()
	}
	wg.Wait()
	if ix.Len() != 800 {
		t.Fatalf("Len = %d, want 800", ix.Len())
	}
}

// Property: every document added with a unique term is findable by it,
// and Count agrees with Search.
func TestPropertySearchFindsAdded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		n := rng.Intn(30) + 1
		for i := 0; i < n; i++ {
			ix.Add(Document{
				ID:     fmt.Sprintf("doc%d", i),
				Fields: map[string]string{"body": fmt.Sprintf("uniqueterm%d shared", i)},
			})
		}
		for i := 0; i < n; i++ {
			rs := ix.mustSearch(MatchQuery{Text: fmt.Sprintf("uniqueterm%d", i)}, SearchOptions{})
			if len(rs) != 1 || rs[0].ID != fmt.Sprintf("doc%d", i) {
				return false
			}
		}
		return ix.mustCount(MatchQuery{Text: "shared"}) == n &&
			len(ix.mustSearch(MatchQuery{Text: "shared"}, SearchOptions{})) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: delete then search never returns the deleted doc.
func TestPropertyDeleteInvisible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		n := rng.Intn(20) + 2
		for i := 0; i < n; i++ {
			ix.Add(Document{ID: fmt.Sprintf("d%d", i), Fields: map[string]string{"b": "alpha beta"}})
		}
		victim := fmt.Sprintf("d%d", rng.Intn(n))
		ix.Delete(victim)
		for _, r := range ix.mustSearch(MatchQuery{Text: "alpha"}, SearchOptions{}) {
			if r.ID == victim {
				return false
			}
		}
		return ix.Len() == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: BM25 scores are positive and rarer terms score at least as
// high as common ones for same-length docs.
func TestPropertyIDFMonotonic(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		body := "common"
		if i == 0 {
			body = "rare"
		}
		ix.Add(Document{ID: fmt.Sprintf("d%d", i), Fields: map[string]string{"b": body}})
	}
	rare := ix.mustSearch(MatchQuery{Text: "rare"}, SearchOptions{})
	common := ix.mustSearch(MatchQuery{Text: "common"}, SearchOptions{})
	if len(rare) != 1 || len(common) != 49 {
		t.Fatal("setup wrong")
	}
	if rare[0].Score <= common[0].Score {
		t.Errorf("rare score %f <= common score %f", rare[0].Score, common[0].Score)
	}
	for _, r := range append(rare, common...) {
		if r.Score <= 0 {
			t.Errorf("non-positive score %f", r.Score)
		}
	}
}
