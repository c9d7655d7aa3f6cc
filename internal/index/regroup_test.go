package index

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// The reshard rebuilds from postings, so nothing checks it against the
// text the documents were written with unless a test keeps that text.
// These checks keep it in a model (ID → the last Document written) and
// hold a reshard to a fresh build from the model's text at the target
// count: the live documents, in the order the reshard takes them
// (source shard by source shard, live ordinals ascending), analyzed
// from their text and added to new shards that share the source's
// field registry.

// regroupWords mixes stemmed words, stopwords and punctuation.
var regroupWords = []string{
	"games", "gaming", "played", "plays", "player", "zelda", "halo",
	"the", "of", "and", "a", "strategy", "adventure", "adventures",
	"wars", "war", "quest", "quests,", "it's", "R2-D2", "naïve",
}

// regroupDoc draws a document: a stemmed title, a body that may be
// empty or hold only stopwords (carried, no tokens), a keyword tag
// that is sometimes absent, and the body and tag in Stored, where
// snippets are cut from.
func regroupDoc(rng *rand.Rand, id string) Document {
	words := func(n int) string {
		w := make([]string, n)
		for i := range w {
			w[i] = regroupWords[rng.Intn(len(regroupWords))]
		}
		return strings.Join(w, " ")
	}
	var body string
	switch rng.Intn(5) {
	case 0:
	case 1:
		body = "the of and a"
	default:
		body = words(3 + rng.Intn(25))
	}
	doc := Document{
		ID:     id,
		Fields: map[string]string{"title": words(1 + rng.Intn(4)), "body": body},
		Stored: map[string]string{"body": body},
	}
	if rng.Intn(3) > 0 {
		tag := []string{"Nintendo", "Ensemble Studios", "Epic Games"}[rng.Intn(3)]
		doc.Fields["tag"] = tag
		doc.Stored["tag"] = tag
	}
	return doc
}

func regroupIndex(opts ...Option) *Index {
	ix := New(opts...)
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	ix.SetFieldOptions("tag", FieldOptions{Analyzer: textproc.KeywordAnalyzer})
	return ix
}

// attached returns ix snapshotted and restored into into, which must
// carry ix's analyzers: every shard a mapped base.
func attached(tb testing.TB, ix, into *Index) *Index {
	tb.Helper()
	var snap bytes.Buffer
	if err := ix.Snapshot(&snap); err != nil {
		tb.Fatal(err)
	}
	if err := into.Restore(snap.Bytes()); err != nil {
		tb.Fatal(err)
	}
	if st := into.MMapStats(); st.MappedShards != into.NumShards() {
		tb.Fatalf("attached copy has %d of %d shards mapped", st.MappedShards, into.NumShards())
	}
	return into
}

// rebuiltFromText is the fresh build a reshard of ix to n shards must
// equal: model's live documents, in reshard order, through AddBatch
// into n new shards with ix's field registry.
func rebuiltFromText(tb testing.TB, ix *Index, model map[string]Document, n int) *Index {
	tb.Helper()
	var docs []Document
	for _, s := range ix.ring.Load().shards {
		s.mu.RLock()
		for ord := range s.numDocs() {
			if id := s.idAt(ord); id != "" {
				docs = append(docs, model[id])
			}
		}
		s.mu.RUnlock()
	}
	if len(docs) != len(model) {
		tb.Fatalf("index holds %d live documents, the model %d", len(docs), len(model))
	}
	fresh := New(WithShards(n))
	ix.cfg.RLock()
	fresh.cfg.fields = maps.Clone(ix.cfg.fields)
	ix.cfg.RUnlock()
	if err := fresh.AddBatch(docs); err != nil {
		tb.Fatal(err)
	}
	return fresh
}

// requireSameAsFresh reshards ix to n — or, when n is 0, compacts it
// at its current count — and requires it to answer like
// rebuiltFromText — IDs, bit-equal scores, Stored, snippets, counts —
// and, unless ix already had n shards (a reshard to the current count
// rebuilds nothing), to snapshot to the same bytes. A compaction must
// snapshot like the fresh build whichever shards it rebuilt.
func requireSameAsFresh(tb testing.TB, label string, ix *Index, model map[string]Document, n int, queries []Query) {
	tb.Helper()
	compact := n == 0
	if compact {
		n = ix.NumShards()
	}
	fresh := rebuiltFromText(tb, ix, model, n)
	rebuilds := compact || ix.NumShards() != n
	var err error
	if compact {
		err = ix.CompactContext(context.Background())
	} else {
		err = ix.ReshardContext(context.Background(), n)
	}
	if err != nil {
		tb.Fatal(err)
	}
	for i, q := range queries {
		for _, opts := range []SearchOptions{{SnippetField: "body"}, {Limit: 3, SnippetField: "body"}} {
			got, want := ix.mustSearch(q, opts), fresh.mustSearch(q, opts)
			if !reflect.DeepEqual(got, want) {
				tb.Fatalf("%s: query %d %+v: resharded %v, fresh %v", label, i, opts, got, want)
			}
		}
		if got, want := ix.mustCount(q), fresh.mustCount(q); got != want {
			tb.Fatalf("%s: query %d: count %d, fresh %d", label, i, got, want)
		}
	}
	if !rebuilds {
		return
	}
	var a, b bytes.Buffer
	if err := ix.Snapshot(&a); err != nil {
		tb.Fatal(err)
	}
	if err := fresh.Snapshot(&b); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		tb.Fatalf("%s: rebuilt snapshot (%d bytes) differs from the fresh build's (%d bytes)", label, a.Len(), b.Len())
	}
}

var regroupQueries = []Query{
	AllQuery{},
	MatchQuery{Text: "game play zelda"},
	MatchQuery{Text: "adventure strategy", Operator: "and"},
	TermQuery{Field: "tag", Term: "Epic Games"},
	PhraseQuery{Field: "body", Text: "halo wars"},
	PhraseQuery{Field: "body", Text: "quest of the war"},
	PrefixQuery{Field: "title", Prefix: "pla"},
	BoolQuery{Must: []Query{MatchQuery{Text: "games"}}, MustNot: []Query{TermQuery{Field: "tag", Term: "Nintendo"}}},
}

// TestReshardFromPostingsMatchesFreshBuild: a reshard, or a
// compaction (a hop to 0), regroups postings into documents that land
// exactly where a fresh build from their text would, over heap and
// mapped sources, with tombstones, replaced IDs, stemmed, stopword and
// keyword-analyzer fields, and empty fields. A last compaction finds
// one tombstone, in one shard, after the hops: the others move over
// as they are.
func TestReshardFromPostingsMatchesFreshBuild(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		for _, hops := range [][]int{{3, 1, 4}, {1, 2}, {0, 3}} {
			label := fmt.Sprintf("mapped=%v hops=%v", mapped, hops)
			rng := rand.New(rand.NewSource(int64(len(hops))))
			ix := regroupIndex(WithShards(2))
			model := map[string]Document{}
			write := func(id string) {
				doc := regroupDoc(rng, id)
				if err := ix.Add(doc); err != nil {
					t.Fatal(err)
				}
				model[id] = doc
			}
			erase := func(id string) {
				ix.Delete(id)
				delete(model, id)
			}
			for i := range 90 {
				write(fmt.Sprintf("d%03d", i))
			}
			if mapped {
				ix = attached(t, ix, regroupIndex())
			}
			// Tombstones and replaced IDs: on a mapped source these
			// land on the base (dead bits) and in the overlay.
			for i := 0; i < 90; i += 7 {
				erase(fmt.Sprintf("d%03d", i))
			}
			for i := 3; i < 90; i += 11 {
				write(fmt.Sprintf("d%03d", i))
			}
			for i := 90; i < 100; i++ {
				write(fmt.Sprintf("d%03d", i))
			}
			for _, n := range hops {
				requireSameAsFresh(t, fmt.Sprintf("%s →%d", label, n), ix, model, n, regroupQueries)
			}
			for i := 0; ; i++ {
				if id := fmt.Sprintf("d%03d", i); model[id].ID != "" {
					erase(id)
					break
				}
			}
			requireSameAsFresh(t, label+" →0", ix, model, 0, regroupQueries)
		}
	}
}

// FuzzReshardFromPostings: fuzz-chosen documents (texts split into
// fields), analyzers, delete sets and shard counts, on a heap or a
// mapped source. A reshard must answer, and snapshot, like a fresh
// build from the texts at the target count; so must a compaction,
// which bit 4 of analyzers runs before the reshard.
func FuzzReshardFromPostings(f *testing.F) {
	f.Add("zelda games|halo wars;the of;Epic|played plays;;Nintendo|quest", uint8(0b0100), uint64(0b101), uint8(2), uint8(3))
	f.Add("a;b;c|A;B;C|the a;of;and|naïve R2-D2;it's;x y z", uint8(0b1011), uint64(0b10), uint8(1), uint8(4))
	f.Add("", uint8(0), uint64(0), uint8(3), uint8(1))
	f.Add("one|two|three|one two|two three|three one|x;;", uint8(0b1110), uint64(0b1000001), uint8(4), uint8(2))
	// A reshard to the count the source already has rebuilds nothing.
	f.Add("0", uint8(0b1110), uint64(0b1000001), uint8(2), uint8(2))
	// Compactions, of a heap and of a mapped source; the last one
	// rebuilds nothing, and its fields were registered before any
	// document.
	f.Add("zelda games|halo wars;the of;Epic|played plays;;Nintendo|quest|x|y;z", uint8(0b10100), uint64(0b1001), uint8(2), uint8(3))
	f.Add("a;b;c|A;B;C|the a;of;and|naïve R2-D2;it's;x y z|q|r", uint8(0b11011), uint64(0b100010), uint8(3), uint8(0))
	f.Add("0", uint8(0b11011), uint64(0), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, text string, analyzers uint8, deletes uint64, from, to uint8) {
		if len(text) > 4096 {
			return
		}
		fields := []string{"a", "b", "c"}
		newIndex := func(opts ...Option) *Index {
			ix := New(opts...)
			for i, name := range fields {
				var opts FieldOptions
				if analyzers&(1<<i) != 0 {
					opts.Analyzer = textproc.KeywordAnalyzer
				}
				ix.SetFieldOptions(name, opts)
			}
			return ix
		}
		ix := newIndex(WithShards(1 + int(from%4)))
		model := map[string]Document{}
		var ids []string
		for i, part := range strings.Split(text, "|") {
			if i == 32 {
				break
			}
			// Seven IDs for up to 32 documents: later ones replace
			// earlier ones.
			id := fmt.Sprint("d", i%7)
			doc := Document{ID: id, Fields: map[string]string{}, Stored: map[string]string{}}
			for j, v := range strings.SplitN(part, ";", len(fields)) {
				doc.Fields[fields[j]] = v
				doc.Stored[fields[j]] = v
			}
			if err := ix.Add(doc); err != nil {
				t.Fatal(err)
			}
			model[id] = doc
			ids = append(ids, id)
		}
		if analyzers&(1<<3) != 0 {
			ix = attached(t, ix, newIndex())
		}
		for i, id := range ids {
			if deletes&(1<<i) != 0 {
				ix.Delete(id)
				delete(model, id)
			}
		}
		var queries []Query
		for _, doc := range model {
			for _, name := range fields {
				queries = append(queries, MatchQuery{Fields: []string{name}, Text: doc.Fields[name]},
					PhraseQuery{Field: name, Text: doc.Fields[name]})
			}
			break
		}
		queries = append(queries, AllQuery{})
		if analyzers&(1<<4) != 0 {
			requireSameAsFresh(t, "fuzz compact", ix, model, 0, queries)
		}
		requireSameAsFresh(t, "fuzz", ix, model, 1+int(to%5), queries)
	})
}
