package index

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestEvalEquivalence pins the iterator/accumulator evaluator and the
// bounded top-k selection to the map-based reference evaluator: scores must be float-equal (==, no
// tolerance) and orderings identical, for every query type, across
// shard counts {1, 3, 8}, with tombstones present, for both
// rankers.

// equivCorpus builds a corpus with shared/rare terms, phrases, field
// boosts, facet values and a block-spanning ordinal range, then
// deletes some documents so tombstoned postings stay in the lists.
func equivCorpus(t testing.TB, shards int) *Index {
	t.Helper()
	ix := New(WithShards(shards))
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	producers := []string{"Nintendo", "Ensemble", "Epic"}
	for i := 0; i < 300; i++ {
		body := fmt.Sprintf("shared corpus document number%d", i)
		if i%3 == 0 {
			body += " zelda adventure exploration"
		}
		if i%4 == 0 {
			body += " halo strategy"
		}
		if i%7 == 0 {
			body += " grand quest chronicle begins"
		}
		if i%2 == 0 {
			body += strings.Repeat(" filler", i%11)
		}
		ix.Add(Document{
			ID:     fmt.Sprintf("doc%03d", i),
			Fields: map[string]string{"title": fmt.Sprintf("Title %d zelda", i%5), "body": body},
			Stored: map[string]string{"producer": producers[i%len(producers)], "parity": fmt.Sprint(i % 2)},
		})
	}
	// Tombstones without compaction: dead postings must be skipped
	// identically by both evaluators.
	for i := 0; i < 300; i += 13 {
		ix.Delete(fmt.Sprintf("doc%03d", i))
	}
	return ix
}

func equivQueries() map[string]Query {
	return map[string]Query{
		"all":          AllQuery{},
		"term":         TermQuery{Field: "body", Term: "adventure"},
		"term-miss":    TermQuery{Field: "body", Term: "nosuchterm"},
		"match-or":     MatchQuery{Text: "zelda strategy"},
		"match-and":    MatchQuery{Text: "zelda halo", Operator: "and"},
		"match-fields": MatchQuery{Fields: []string{"title"}, Text: "zelda"},
		"phrase":       PhraseQuery{Field: "body", Text: "zelda adventure"},
		"phrase-long":  PhraseQuery{Field: "body", Text: "grand quest chronicle"},
		"phrase-one":   PhraseQuery{Field: "body", Text: "halo"},
		"prefix":       PrefixQuery{Field: "body", Prefix: "numb"},
		"prefix-wide":  PrefixQuery{Field: "body", Prefix: "f"},
		"bool": BoolQuery{
			Must:    []Query{MatchQuery{Text: "shared"}},
			Should:  []Query{TermQuery{Field: "body", Term: "halo"}},
			MustNot: []Query{TermQuery{Field: "body", Term: "number7"}},
		},
		"bool-musts": BoolQuery{
			Must: []Query{MatchQuery{Text: "zelda"}, TermQuery{Field: "body", Term: "halo"}},
		},
		"bool-pure-should": BoolQuery{
			Should: []Query{TermQuery{Field: "body", Term: "zelda"}, TermQuery{Field: "body", Term: "strategy"}},
		},
		"bool-nested": BoolQuery{
			Must: []Query{BoolQuery{
				Should: []Query{MatchQuery{Text: "zelda"}, PhraseQuery{Field: "body", Text: "halo strategy"}},
			}},
			MustNot: []Query{PrefixQuery{Field: "body", Prefix: "number1"}},
		},
	}
}

// mustEqualResults fails unless got and want are bit-identical hit
// lists: same length, IDs, float-equal scores, same order.
func mustEqualResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s hit %d: got %s@%v, want %s@%v",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

func TestEvalEquivalence(t *testing.T) {
	shardCounts := []int{1, 3, 8}
	for _, ranker := range []Ranker{RankerBM25, RankerTFIDF} {
		for _, n := range shardCounts {
			ix := equivCorpus(t, n)
			ix.SetRanker(ranker)
			for name, q := range equivQueries() {
				label := fmt.Sprintf("ranker=%d shards=%d %s", ranker, n, name)
				opts := []SearchOptions{
					{},
					{Limit: 10},
					{Limit: 10, Offset: 7},
				}
				for i, o := range opts {
					mustEqualResults(t, fmt.Sprintf("%s opts%d", label, i),
						ix.mustSearch(q, o), refSearch(ix, q, o))
				}
				if got, want := ix.mustCount(q), refCount(ix, q); got != want {
					t.Fatalf("%s: Count %d, want %d", label, got, want)
				}
				gotF, wantF := ix.mustFacets(q, "producer"), refFacets(ix, q, "producer")
				if len(gotF) != len(wantF) {
					t.Fatalf("%s: %d facets, want %d", label, len(gotF), len(wantF))
				}
				for i := range wantF {
					if gotF[i] != wantF[i] {
						t.Fatalf("%s facet %d: got %v, want %v", label, i, gotF[i], wantF[i])
					}
				}
			}
		}
	}
}

// mappedCopy snapshots ix and attaches the bytes to a fresh
// index of the same shard count, so no reshard moves them onto the
// heap and queries decode postings lazily from the snapshot layout.
func mappedCopy(t testing.TB, ix *Index) *Index {
	t.Helper()
	var snap bytes.Buffer
	if err := ix.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	mx := New(WithShards(ix.NumShards()))
	if err := mx.Restore(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	if st := mx.MMapStats(); st.MappedShards != mx.NumShards() {
		t.Fatalf("attached copy has %d of %d shards mapped", st.MappedShards, mx.NumShards())
	}
	return mx
}

// TestEvalEquivalenceMapped: an index served from mapped snapshot
// views must rank bit-identically to the heap index it was written
// from — for every query type, both rankers, across shard counts, and
// after copy-on-write materialization from post-boot writes.
func TestEvalEquivalenceMapped(t *testing.T) {
	for _, ranker := range []Ranker{RankerBM25, RankerTFIDF} {
		for _, n := range []int{1, 3, 8} {
			ix := equivCorpus(t, n)
			ix.SetRanker(ranker)
			mx := mappedCopy(t, ix)
			if st := mx.MMapStats(); st.MappedShards == 0 || st.MappedBytes == 0 {
				t.Fatalf("ranker=%d shards=%d: mapped copy reports no mapped shards: %+v", ranker, n, st)
			}
			compare := func(stage string) {
				t.Helper()
				for name, q := range equivQueries() {
					label := fmt.Sprintf("ranker=%d shards=%d %s %s", ranker, n, stage, name)
					for i, o := range []SearchOptions{
						{},
						{Limit: 10},
						{Limit: 10, Offset: 7},
					} {
						mustEqualResults(t, fmt.Sprintf("%s opts%d", label, i),
							mx.mustSearch(q, o), ix.mustSearch(q, o))
						mustEqualResults(t, fmt.Sprintf("%s opts%d ref", label, i),
							mx.mustSearch(q, o), refSearch(mx, q, o))
					}
					if got, want := mx.mustCount(q), ix.mustCount(q); got != want {
						t.Fatalf("%s: mapped Count %d, want %d", label, got, want)
					}
					gotF, wantF := mx.mustFacets(q, "producer"), ix.mustFacets(q, "producer")
					if len(gotF) != len(wantF) {
						t.Fatalf("%s: mapped %d facets, want %d", label, len(gotF), len(wantF))
					}
					for i := range wantF {
						if gotF[i] != wantF[i] {
							t.Fatalf("%s mapped facet %d: got %v, want %v", label, i, gotF[i], wantF[i])
						}
					}
				}
			}
			compare("cold")

			// Copy-on-write: the same post-boot mutations applied to both
			// sides must keep rankings bit-identical while only the
			// touched terms materialize on the mapped side.
			mutate := func(target *Index) {
				target.Add(Document{
					ID:     "doc301",
					Fields: map[string]string{"title": "Title 1 zelda", "body": "shared zelda halo strategy adventure fresh"},
					Stored: map[string]string{"producer": "Epic", "parity": "1"},
				})
				target.Delete("doc010")
				target.Add(Document{
					ID:     "doc020",
					Fields: map[string]string{"title": "Title 0 zelda", "body": "shared corpus document number20 rewritten halo"},
					Stored: map[string]string{"producer": "Nintendo", "parity": "0"},
				})
			}
			mutate(ix)
			mutate(mx)
			compare("post-cow")
			if st := mx.MMapStats(); st.MaterializedTerms == 0 {
				t.Fatalf("ranker=%d shards=%d: writes to mapped index materialized no terms: %+v", ranker, n, st)
			}
		}
	}
}

// TestEvalEquivalenceFuzz builds randomized corpora (random vocab,
// doc lengths, deletions) and compares randomized queries against the
// reference evaluator across shard counts, with block-max early exit
// on and off, and with the shared cross-request cache cold and warm.
func TestEvalEquivalenceFuzz(t *testing.T) {
	t.Cleanup(func() { configureExecutor(0) })
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocabN := 30 + rng.Intn(50)
		vocab := make([]string, vocabN)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("term%c%d", 'a'+i%5, i)
		}
		nDocs := 100 + rng.Intn(200)
		type spec struct {
			id     string
			title  string
			body   string
			facet  string
			delete bool
		}
		specs := make([]spec, nDocs)
		for i := range specs {
			var b strings.Builder
			for w, wn := 0, 3+rng.Intn(25); w < wn; w++ {
				b.WriteString(vocab[rng.Intn(vocabN)])
				b.WriteByte(' ')
			}
			specs[i] = spec{
				id:     fmt.Sprintf("d%04d", i),
				title:  vocab[rng.Intn(vocabN)] + " " + vocab[rng.Intn(vocabN)],
				body:   b.String(),
				facet:  fmt.Sprint(rng.Intn(4)),
				delete: rng.Intn(10) == 0,
			}
		}
		randTerm := func() string { return vocab[rng.Intn(vocabN)] }
		queries := make([]Query, 0, 20)
		for i := 0; i < 20; i++ {
			switch rng.Intn(6) {
			case 0:
				queries = append(queries, TermQuery{Field: "body", Term: randTerm()})
			case 1:
				queries = append(queries, MatchQuery{Text: randTerm() + " " + randTerm()})
			case 2:
				queries = append(queries, MatchQuery{Text: randTerm() + " " + randTerm(), Operator: "and"})
			case 3:
				queries = append(queries, PhraseQuery{Field: "body", Text: randTerm() + " " + randTerm()})
			case 4:
				queries = append(queries, PrefixQuery{Field: "body", Prefix: "term" + string(rune('a'+rng.Intn(5)))})
			case 5:
				queries = append(queries, BoolQuery{
					Must:    []Query{MatchQuery{Text: randTerm()}},
					Should:  []Query{TermQuery{Field: "title", Term: randTerm()}},
					MustNot: []Query{TermQuery{Field: "body", Term: randTerm()}},
				})
			}
		}
		for _, n := range []int{1, 3, 8} {
			ix := New(WithShards(n))
			ix.SetFieldOptions("title", FieldOptions{Boost: 1.5})
			for _, sp := range specs {
				ix.Add(Document{
					ID:     sp.id,
					Fields: map[string]string{"title": sp.title, "body": sp.body},
					Stored: map[string]string{"facet": sp.facet},
				})
			}
			for _, sp := range specs {
				if sp.delete {
					ix.Delete(sp.id)
				}
			}
			// The full matrix: block-max early exit on and off, then
			// with a shared cache attached — the first pass fills it,
			// the second is answered from it. Every cell must be
			// bit-identical to the reference evaluator.
			runAll := func(stage string) {
				for qi, q := range queries {
					label := fmt.Sprintf("seed=%d shards=%d %s q%d(%T)", seed, n, stage, qi, q)
					mustEqualResults(t, label, ix.mustSearch(q, SearchOptions{}), refSearch(ix, q, SearchOptions{}))
					mustEqualResults(t, label+" top5", ix.mustSearch(q, SearchOptions{Limit: 5}), refSearch(ix, q, SearchOptions{Limit: 5}))
					if got, want := ix.mustCount(q), refCount(ix, q); got != want {
						t.Fatalf("%s: Count %d, want %d", label, got, want)
					}
				}
			}
			// Scheduling dimension: the shared shard executor resized to a
			// single worker. Rankings must be bit-identical under every
			// pool size.
			configureExecutor(1)
			runAll("exec-one-worker")
			configureExecutor(0)
			if n == 3 {
				// Saturation: the same queries from enough concurrent
				// goroutines to keep every pool worker busy, so the
				// adaptive fan-out degrades queries to inline execution
				// mid-stream. Each concurrent result must still equal the
				// reference computed before the stampede.
				wantTop := make([][]Result, len(queries))
				for qi, q := range queries {
					wantTop[qi] = refSearch(ix, q, SearchOptions{Limit: 5})
				}
				var wg sync.WaitGroup
				errc := make(chan error, 8)
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for rep := 0; rep < 3; rep++ {
							for qi, q := range queries {
								got, err := ix.SearchContext(context.Background(), q, SearchOptions{Limit: 5})
								if err != nil {
									errc <- err
									return
								}
								want := wantTop[qi]
								if len(got) != len(want) {
									errc <- fmt.Errorf("seed=%d saturated q%d: %d hits, want %d", seed, qi, len(got), len(want))
									return
								}
								for i := range want {
									if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
										errc <- fmt.Errorf("seed=%d saturated q%d hit %d: got %s@%v, want %s@%v",
											seed, qi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
										return
									}
								}
							}
						}
					}()
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Fatal(err)
				}
			}
			runAll("early-exit")
			ix.earlyExitOff.Store(true)
			runAll("exhaustive")
			ix.earlyExitOff.Store(false)
			c := NewCache(8 << 20)
			ix.AttachCache(c)
			runAll("cache-cold")
			runAll("cache-warm")
			if st := c.Stats(); st.Hits == 0 {
				t.Fatalf("seed=%d shards=%d: warm pass never hit the cache: %+v", seed, n, st)
			}
			// Mapped dimension: the same corpus served from snapshot
			// views must match the heap index and the reference
			// evaluator cell for cell, before and after copy-on-write.
			mx := mappedCopy(t, ix)
			compareMapped := func(stage string) {
				for qi, q := range queries {
					label := fmt.Sprintf("seed=%d shards=%d %s q%d(%T)", seed, n, stage, qi, q)
					mustEqualResults(t, label, mx.mustSearch(q, SearchOptions{}), ix.mustSearch(q, SearchOptions{}))
					mustEqualResults(t, label+" ref", mx.mustSearch(q, SearchOptions{Limit: 5}), refSearch(mx, q, SearchOptions{Limit: 5}))
					if got, want := mx.mustCount(q), ix.mustCount(q); got != want {
						t.Fatalf("%s: mapped Count %d, want %d", label, got, want)
					}
				}
			}
			compareMapped("mapped")
			// Cache states over mapped views: a cold pass fills the
			// shared cache from lazily decoded postings, the warm pass
			// answers from it, and the CoW mutation below must
			// invalidate by generation stamp — with the cache still
			// attached throughout.
			mc := NewCache(8 << 20)
			mx.AttachCache(mc)
			compareMapped("mapped-cache-cold")
			compareMapped("mapped-cache-warm")
			if st := mc.Stats(); st.Hits == 0 {
				t.Fatalf("seed=%d shards=%d: mapped warm pass never hit the cache: %+v", seed, n, st)
			}
			for i := 0; i < 5 && i < len(specs); i++ {
				doc := Document{
					ID:     specs[i].id,
					Fields: map[string]string{"title": specs[i].title, "body": specs[i].body + " " + vocab[i%vocabN]},
					Stored: map[string]string{"facet": specs[i].facet},
				}
				ix.Add(doc)
				mx.Add(doc)
			}
			compareMapped("mapped-cow")
		}
	}
}
