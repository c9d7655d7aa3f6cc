package engine

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/webcorpus"
)

// lazyProbe is one call the equivalence tests compare across engines.
type lazyProbe struct {
	req  Request
	typo string // when set, the probe is DidYouMean(typo) instead
}

// lazyAnswer is everything a probe observes.
type lazyAnswer struct {
	Resp      Response
	Err       string
	Corrected string
	Changed   bool
	Docs      int
}

// lazyMatrix is the request matrix per vertical: entity, generic and
// augmented queries, site restriction, URL preference and offsets.
func lazyMatrix(c *webcorpus.Corpus) map[webcorpus.Vertical][]lazyProbe {
	out := make(map[webcorpus.Vertical][]lazyProbe)
	for _, v := range webcorpus.Verticals {
		var entities, sites, urls []string
		seenSite := map[string]bool{}
		for _, p := range c.Pages {
			if p.Vertical != v {
				continue
			}
			if len(entities) < 3 {
				entities = append(entities, p.Entity)
			}
			if !seenSite[p.Site] && len(sites) < 3 {
				seenSite[p.Site] = true
				sites = append(sites, p.Site)
			}
			if len(urls) < 2 {
				urls = append(urls, p.URL)
			}
		}
		var probes []lazyProbe
		for _, q := range append(entities, "review", "news guide", "zzzz") {
			for _, off := range []int{0, 3} {
				base := Request{Query: q, Vertical: v, Limit: 5, Offset: off}
				probes = append(probes, lazyProbe{req: base})
				r := base
				r.Sites = sites
				probes = append(probes, lazyProbe{req: r})
				r = base
				r.AddTerms = []string{"review"}
				probes = append(probes, lazyProbe{req: r})
				r = base
				r.PreferURLs = urls
				probes = append(probes, lazyProbe{req: r})
			}
		}
		if v == webcorpus.VerticalWeb {
			probes = append(probes, lazyProbe{typo: "reviw guid"}, lazyProbe{typo: entities[0] + "x"})
		}
		out[v] = probes
	}
	return out
}

func (p lazyProbe) run(e *Engine) lazyAnswer {
	if p.typo != "" {
		corrected, changed := e.DidYouMean(p.typo)
		return lazyAnswer{Corrected: corrected, Changed: changed}
	}
	resp, err := e.Query(context.Background(), p.req)
	a := lazyAnswer{Resp: resp, Docs: e.DocCount(p.req.Vertical)}
	if err != nil {
		a.Err = err.Error()
	}
	return a
}

// referenceEngine is the oracle the engine's own build is held to: an
// engine over c whose verticals the test fills before any request,
// one Index.Add per page in corpus order, into the indexes New created
// (so with the engine's field options).
func referenceEngine(t *testing.T, c *webcorpus.Corpus) *Engine {
	t.Helper()
	e := New(func() *webcorpus.Corpus { return c })
	for _, v := range webcorpus.Verticals {
		vt := e.perVert[v]
		vt.once.Do(func() {
			for _, p := range c.Pages {
				if p.Vertical != v {
					continue
				}
				doc := index.Document{
					ID:     p.URL,
					Fields: map[string]string{"title": p.Title, "body": p.Body, "site": p.Site},
					Stored: map[string]string{
						"url": p.URL, "site": p.Site, "title": p.Title, "entity": p.Entity,
						"day": strconv.Itoa(p.PublishedDay), "body": p.Body,
					},
				}
				if err := vt.ix.Add(doc); err != nil {
					t.Fatal(err)
				}
			}
			vt.built.Store(true)
		})
	}
	return e
}

// requireSameIndexes fails unless every vertical of got, built by the
// engine, snapshots to the same bytes as want's.
func requireSameIndexes(t *testing.T, want, got *Engine) {
	t.Helper()
	for _, v := range webcorpus.Verticals {
		var a, b bytes.Buffer
		if err := want.perVert[v].ix.Snapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.index(v).Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("vertical %s: snapshot of the engine's build (%d bytes) differs from the per-page Add reference (%d bytes)", v, b.Len(), a.Len())
		}
	}
}

// eagerAnswers answers the whole matrix on the reference engine, every
// vertical built before the first query.
func eagerAnswers(t *testing.T, m map[webcorpus.Vertical][]lazyProbe) (*Engine, map[webcorpus.Vertical][]lazyAnswer) {
	t.Helper()
	e := referenceEngine(t, testCorpus)
	for _, v := range webcorpus.Verticals {
		if e.DocCount(v) == 0 {
			t.Fatalf("vertical %s empty", v)
		}
	}
	out := make(map[webcorpus.Vertical][]lazyAnswer)
	for v, probes := range m {
		hits := 0
		for _, p := range probes {
			a := p.run(e)
			if len(a.Resp.Results) > 0 {
				hits++
			}
			out[v] = append(out[v], a)
		}
		// A matrix of empty pages would compare nothing.
		if hits < len(probes)/2 {
			t.Fatalf("vertical %s: only %d of %d probes have hits", v, hits, len(probes))
		}
	}
	return e, out
}

// TestLazyBuildMatchesEager: whichever order requests first touch the
// verticals in, every answer — results, scores, order, totals, site
// facets, spelling corrections, document counts — is identical to a
// reference engine built up front with one Index.Add per page, and
// every vertical's index snapshots to the reference's bytes.
func TestLazyBuildMatchesEager(t *testing.T) {
	m := lazyMatrix(testCorpus)
	ref, want := eagerAnswers(t, m)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		order := slices.Clone(webcorpus.Verticals)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		e := newEngine(t)
		for _, st := range e.Status().Verticals {
			if st.Built {
				t.Fatalf("fresh engine has %s built", st.Vertical)
			}
		}
		for _, v := range order {
			for i, p := range m[v] {
				if got := p.run(e); !reflect.DeepEqual(got, want[v][i]) {
					t.Fatalf("order %v, %s probe %d (%+v):\n got %+v\nwant %+v", order, v, i, p, got, want[v][i])
				}
			}
		}
		requireSameIndexes(t, ref, e)
	}
}

// TestLazyBuildConcurrentFirstUse: many goroutines racing to be the
// first reader of every vertical see one build each and the eager
// engine's answers. Run under -race.
func TestLazyBuildConcurrentFirstUse(t *testing.T) {
	m := lazyMatrix(testCorpus)
	ref, want := eagerAnswers(t, m)
	var corpusCalls int
	var mu sync.Mutex
	e := New(func() *webcorpus.Corpus {
		mu.Lock()
		corpusCalls++
		mu.Unlock()
		return testCorpus
	})
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the verticals from a different start,
			// so every vertical's first use is contended.
			for k := range webcorpus.Verticals {
				v := webcorpus.Verticals[(w+k)%len(webcorpus.Verticals)]
				e.Status()
				for i, p := range m[v] {
					if got := p.run(e); !reflect.DeepEqual(got, want[v][i]) {
						errs <- string(v) + ": answer differs from the eager build"
						return
					}
				}
			}
			if e.Corpus() != testCorpus {
				errs <- "Corpus() is not the supplied corpus"
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if corpusCalls != 1 {
		t.Errorf("corpus source called %d times, want 1", corpusCalls)
	}
	total := 0
	for _, st := range e.Status().Verticals {
		if !st.Built || st.Docs != e.DocCount(st.Vertical) {
			t.Errorf("status after use: %+v", st)
		}
		total += st.Docs
	}
	if total != len(testCorpus.Pages) {
		t.Errorf("built %d docs, corpus has %d", total, len(testCorpus.Pages))
	}
	requireSameIndexes(t, ref, e)
}
