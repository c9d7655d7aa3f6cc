package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/textproc"
)

// batchCorpus builds n docs with Zipf-ish vocabulary and a few
// duplicate IDs so last-write-wins ordering is exercised. Every 23rd
// doc carries a "tags" field the others lack, so a batch meets a field
// name its first document does not have.
func batchCorpus(n int, seed int64) []Document {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "lattice", "symphony", "quartz", "ember"}
	docs := make([]Document, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%04d", i)
		if i > 10 && rng.Intn(17) == 0 {
			id = fmt.Sprintf("doc-%04d", rng.Intn(i)) // duplicate: replaces earlier doc
		}
		title := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		body := ""
		for w := 0; w < 5+rng.Intn(20); w++ {
			body += words[rng.Intn(len(words))] + " "
		}
		doc := Document{
			ID:     id,
			Fields: map[string]string{"title": title, "body": body},
			Stored: map[string]string{"title": title},
		}
		if i%23 == 22 {
			doc.Fields["tags"] = words[rng.Intn(len(words))]
		}
		docs = append(docs, doc)
	}
	return docs
}

// searchAll runs a few representative queries, on title and body and
// on every registered field, and returns their full results for
// equivalence comparison.
func searchAll(t *testing.T, ix *Index) map[string][]Result {
	t.Helper()
	out := make(map[string][]Result)
	for _, q := range []string{"alpha", "symphony quartz", "lattice ember beta"} {
		for key, fields := range map[string][]string{q: {"title", "body"}, "all fields: " + q: nil} {
			res, err := ix.SearchContext(context.Background(), MatchQuery{Fields: fields, Text: q}, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			out[key] = res
		}
	}
	return out
}

// TestAddBatchEquivalence pins the batched write path bit-identical
// to sequential Adds, each a batch of one: same docs, same order, same
// scores, across shard counts and batch sizes. How a batch analyzes a
// document is held to an independent reference by
// TestAnalyzeDocMatchesMapGrouping.
func TestAddBatchEquivalence(t *testing.T) {
	docs := batchCorpus(500, 42)
	for _, shards := range []int{1, 3, 8} {
		for _, batch := range []int{1, 7, 64, 500} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(t *testing.T) {
				seq := New(WithShards(shards))
				for _, d := range docs {
					if err := seq.Add(d); err != nil {
						t.Fatal(err)
					}
				}
				batched := New(WithShards(shards))
				for i := 0; i < len(docs); i += batch {
					end := i + batch
					if end > len(docs) {
						end = len(docs)
					}
					if err := batched.AddBatchContext(context.Background(), docs[i:end]); err != nil {
						t.Fatal(err)
					}
				}
				if seq.Len() != batched.Len() {
					t.Fatalf("len: sequential %d, batched %d", seq.Len(), batched.Len())
				}
				want, got := searchAll(t, seq), searchAll(t, batched)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("batched results diverge from sequential:\nwant %v\ngot  %v", want, got)
				}
			})
		}
	}
}

func TestAddBatchEmptyIDRejected(t *testing.T) {
	ix := New(WithShards(2))
	err := ix.AddBatchContext(context.Background(), []Document{
		{ID: "ok", Fields: map[string]string{"f": "x"}},
		{ID: "", Fields: map[string]string{"f": "y"}},
	})
	if err == nil {
		t.Fatal("empty ID accepted")
	}
	if ix.Len() != 0 {
		t.Fatalf("rejected batch partially applied: len=%d", ix.Len())
	}
}

func TestAddBatchCancelledBeforeApply(t *testing.T) {
	ix := New(WithShards(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ix.AddBatchContext(ctx, batchCorpus(100, 7))
	if err == nil {
		t.Fatal("cancelled batch reported success")
	}
	if ix.Len() != 0 {
		t.Fatalf("cancelled batch applied %d docs; cancellation must land before apply", ix.Len())
	}
}

// TestAddBatchDuringReshard races batched writers against reshards;
// a batch that waits out a rebuild must land on the new ring exactly
// like single Adds.
func TestAddBatchDuringReshard(t *testing.T) {
	ix := New(WithShards(2))
	if err := ix.AddBatchContext(context.Background(), batchCorpus(300, 1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	first := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]Document, 0, 8)
			for k := 0; k < 8; k++ {
				batch = append(batch, Document{
					ID:     fmt.Sprintf("live-%05d", n),
					Fields: map[string]string{"body": "symphony lattice ember"},
				})
				n++
			}
			if err := ix.AddBatchContext(context.Background(), batch); err != nil {
				t.Error(err)
				return
			}
			if n == 8 {
				close(first) // first batch acknowledged; reshards may begin
			}
		}
	}()
	<-first
	for _, target := range []int{5, 3} {
		if err := ix.ReshardContext(context.Background(), target); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Every live- doc written before the final reshard completed must
	// be present (the rebuild read it), and the index must be internally
	// consistent: Len equals the count of distinct IDs ever added.
	res, err := ix.CountContext(context.Background(), MatchQuery{Fields: []string{"body"}, Text: "symphony"})
	if err != nil {
		t.Fatal(err)
	}
	if res == 0 {
		t.Fatal("no live docs found after reshard + batched writes")
	}
	for _, id := range []string{"live-00000", "live-00007"} {
		if _, ok := ix.Get(id); !ok {
			t.Fatalf("batched doc %s lost across reshard", id)
		}
	}
}

// groupedField is one field of a document grouped by term the way the
// shards index it: the distinct terms in first-occurrence order, each
// with its positions, and the field's length in tokens.
type groupedField struct {
	terms []string
	pos   [][]int32
	len   int
}

// groupByMap is the reference analyzeDoc is held to: a plain Analyze
// of text, without the batch memo, grouped by term with a map.
func groupByMap(a *textproc.Analyzer, text string) groupedField {
	var g groupedField
	slot := make(map[string]int)
	for _, t := range a.Analyze(text) {
		i, ok := slot[t.Term]
		if !ok {
			i = len(g.terms)
			slot[t.Term] = i
			g.terms = append(g.terms, t.Term)
			g.pos = append(g.pos, nil)
		}
		g.pos[i] = append(g.pos[i], int32(t.Position))
		g.len++
	}
	return g
}

// grouped reads ft in groupByMap's shape.
func grouped(ft fieldTerms) groupedField {
	g := groupedField{len: len(ft.pos)}
	from := int32(0)
	for i, id := range ft.ids {
		g.terms = append(g.terms, ft.terms[id])
		g.pos = append(g.pos, ft.pos[from:ft.ends[i]])
		from = ft.ends[i]
	}
	return g
}

// TestAnalyzeDocMatchesMapGrouping holds the batch analyzer — memo,
// term ids, slab grouping — to groupByMap on every field of every
// document: terms, positions and field length. One analyzer takes the
// whole corpus, as an AddBatchContext worker takes its chunks, over
// stemmed, stopword-only, empty and keyword-analyzed fields, and its
// field counter wraps on the way.
func TestAnalyzeDocMatchesMapGrouping(t *testing.T) {
	ix := regroupIndex()
	docs := batchCorpus(300, 5)
	rng := rand.New(rand.NewSource(3))
	for i := range 300 {
		docs = append(docs, regroupDoc(rng, fmt.Sprint("r", i)))
	}
	ix.ensureFields(docs)
	var w batchAnalyzer
	w.field = math.MaxUint32 - 100
	for i := range docs {
		doc := &docs[i]
		got := w.analyzeDoc(ix, doc)
		if len(got) != len(doc.Fields) {
			t.Fatalf("%s: %d analyzed fields, the document has %d", doc.ID, len(got), len(doc.Fields))
		}
		for k, ft := range got {
			text, ok := doc.Fields[ft.field]
			if !ok || got.entry(ft.field) != &got[k] {
				t.Fatalf("%s: analyzed field %q twice or not carried", doc.ID, ft.field)
			}
			opts, _ := ix.fieldOpts(ft.field)
			if g, want := grouped(ft), groupByMap(opts.Analyzer, text); !reflect.DeepEqual(g, want) {
				t.Fatalf("%s field %q (%q): analyzeDoc %+v, reference %+v", doc.ID, ft.field, text, g, want)
			}
		}
	}
	if w.field >= math.MaxUint32-100 {
		t.Fatalf("field counter %d never wrapped", w.field)
	}
}
