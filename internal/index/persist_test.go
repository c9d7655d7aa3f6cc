package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frameio"
)

// persistCorpus builds a multi-shard index with deletions, so
// snapshots carry tombstones and replaced documents.
func persistCorpus(t testing.TB, opts ...Option) *Index {
	t.Helper()
	ix := shardCorpus(t, opts...)
	for i := 0; i < 60; i += 5 {
		if !ix.Delete(fmt.Sprintf("doc%02d", i)) {
			t.Fatalf("delete doc%02d failed", i)
		}
	}
	// Replace a few documents so ordinal reuse and stale postings are
	// in the snapshot too.
	for i := 1; i < 10; i += 4 {
		ix.Add(replacedDoc(i))
	}
	return ix
}

// replacedDoc is the document persistCorpus replaces doc i with.
func replacedDoc(i int) Document {
	return Document{
		ID:     fmt.Sprintf("doc%02d", i),
		Fields: map[string]string{"title": fmt.Sprintf("Replaced %d", i), "body": "replacement zelda content"},
		Stored: map[string]string{"producer": "Replaced"},
	}
}

// TestSnapshotRestoreEquivalence pins the core durability guarantee:
// a restored index returns IDs, scores and rankings bit-identical to
// a freshly built index over the same live documents, for every query
// type, plus identical facets, counts, doc frequencies and spell
// suggestions.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	fresh := persistCorpus(t, WithShards(4))
	var buf bytes.Buffer
	if err := fresh.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into indexes built with different shard counts: the
	// snapshot's layout is decoded and then resharded to the
	// configured count, and scores stay identical because BM25
	// statistics aggregate globally.
	for _, n := range []int{1, 4, 8} {
		restored := New(WithShards(n))
		restored.SetFieldOptions("title", FieldOptions{Boost: 2})
		if err := restored.Restore(buf.Bytes()); err != nil {
			t.Fatalf("restore into %d-shard index: %v", n, err)
		}
		if restored.NumShards() != n {
			t.Fatalf("restored shards = %d, want configured %d", restored.NumShards(), n)
		}
		if restored.Len() != fresh.Len() {
			t.Fatalf("restored Len = %d, want %d", restored.Len(), fresh.Len())
		}
		for name, q := range shardQueries() {
			want := fresh.mustSearch(q, SearchOptions{})
			got := restored.mustSearch(q, SearchOptions{})
			if len(want) != len(got) {
				t.Fatalf("%s: %d hits, want %d", name, len(got), len(want))
			}
			for i := range want {
				if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
					t.Fatalf("%s hit %d: got %s@%v, want %s@%v",
						name, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
			if wc, gc := fresh.mustCount(q), restored.mustCount(q); wc != gc {
				t.Fatalf("%s: Count %d, want %d", name, gc, wc)
			}
		}
		wantFacets := fresh.mustFacets(MatchQuery{Text: "zelda"}, "producer")
		gotFacets := restored.mustFacets(MatchQuery{Text: "zelda"}, "producer")
		if fmt.Sprint(wantFacets) != fmt.Sprint(gotFacets) {
			t.Fatalf("facets = %v, want %v", gotFacets, wantFacets)
		}
		if wd, gd := fresh.DocFreq("body", "zelda"), restored.DocFreq("body", "zelda"); wd != gd {
			t.Fatalf("DocFreq = %d, want %d", gd, wd)
		}
		if ws, gs := fresh.SuggestTerms("body", "zeldo", 3), restored.SuggestTerms("body", "zeldo", 3); fmt.Sprint(ws) != fmt.Sprint(gs) {
			t.Fatalf("SuggestTerms = %v, want %v", gs, ws)
		}
	}
}

// TestSnapshotEquivalentToRebuild: restoring must also be equivalent
// to building a brand-new index from only the live documents — the
// tombstones a snapshot carries must not influence scoring.
func TestSnapshotEquivalentToRebuild(t *testing.T) {
	withTombstones := persistCorpus(t, WithShards(4))
	var buf bytes.Buffer
	if err := withTombstones.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	rebuilt := New(WithShards(4))
	rebuilt.SetFieldOptions("title", FieldOptions{Boost: 2})
	// The index keeps no field text, so the rebuild takes each live
	// document from persistCorpus's own recipe.
	for i := 0; i < 60; i++ {
		if _, ok := withTombstones.Get(fmt.Sprintf("doc%02d", i)); !ok {
			continue
		}
		doc := shardDoc(i)
		if i < 10 && i%4 == 1 {
			doc = replacedDoc(i)
		}
		if err := rebuilt.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	for name, q := range shardQueries() {
		want := rebuilt.mustSearch(q, SearchOptions{})
		got := restored.mustSearch(q, SearchOptions{})
		if len(want) != len(got) {
			t.Fatalf("%s: %d hits, want %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
				t.Fatalf("%s hit %d: restored %s@%v, rebuilt %s@%v",
					name, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	ix := persistCorpus(t, WithShards(4))
	var a, b bytes.Buffer
	if err := ix.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := ix.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots of identical index differ byte-for-byte")
	}
}

// TestShardSnapshotRoundTrip: every shard's v4 payload decodes onto
// the heap and re-encodes to the same bytes, with the same live and
// dead counts — the shard codec is its own inverse.
func TestShardSnapshotRoundTrip(t *testing.T) {
	ix := persistCorpus(t, WithShards(3))
	for i, s := range ix.ring.Load().shards {
		var payload bytes.Buffer
		if err := s.snapshotShard(&payload); err != nil {
			t.Fatal(err)
		}
		decoded, err := ix.attachShard(payload.Bytes(), ix.fieldOpts)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		decoded.materializeLocked()
		if decoded.live != s.live || decoded.dead != s.dead {
			t.Fatalf("shard %d: live/dead = %d/%d, want %d/%d", i, decoded.live, decoded.dead, s.live, s.dead)
		}
		var again bytes.Buffer
		if err := decoded.snapshotShard(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), payload.Bytes()) {
			t.Fatalf("shard %d: heap decode re-encodes to different bytes", i)
		}
	}
}

// readFixture loads a snapshot frozen under testdata/ (see
// testdata/README for how each was produced).
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreV1Snapshot: snapshots written by the retired v1 and v2
// writers are below the format floor. Restore refuses each with
// frameio.ErrUnsupportedFormat and leaves the index unchanged.
func TestRestoreV1Snapshot(t *testing.T) {
	for _, name := range []string{"persist_v1.snap", "persist_v2.snap"} {
		target := sampleIndex(t)
		var before bytes.Buffer
		if err := target.Snapshot(&before); err != nil {
			t.Fatal(err)
		}
		err := target.Restore(readFixture(t, name))
		if !errors.Is(err, frameio.ErrUnsupportedFormat) {
			t.Fatalf("restore %s = %v, want ErrUnsupportedFormat", name, err)
		}
		var after bytes.Buffer
		if err := target.Snapshot(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("refused restore of %s changed the index", name)
		}
	}
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	ix := persistCorpus(t, WithShards(2))
	var good bytes.Buffer
	if err := ix.Snapshot(&good); err != nil {
		t.Fatal(err)
	}
	target := sampleIndex(t)
	wantLen := target.Len()

	cases := map[string][]byte{
		"garbage":       []byte("not a snapshot at all"),
		"empty":         {},
		"magic-only":    []byte("SYMIDX1\n"),
		"truncated-25%": good.Bytes()[:good.Len()/4],
		"truncated-90%": good.Bytes()[:good.Len()*9/10],
		"bit-flipped":   append(append([]byte(nil), good.Bytes()[:good.Len()/2]...), append([]byte{0xFF}, good.Bytes()[good.Len()/2+1:]...)...),
		"trailing-junk": append(append([]byte(nil), good.Bytes()...), 0, 0, 0, 0, 0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'),
	}
	// A CRC-valid header claiming an absurd shard count must fail
	// cleanly instead of sizing allocations and goroutine fan-out.
	var huge bytes.Buffer
	if err := frameio.WriteMagic(&huge, "SYMIDX1\n"); err != nil {
		t.Fatal(err)
	}
	if err := frameio.WriteFrame(&huge, []byte(`{"version":1,"shards":1099511627776,"k1":1.2,"b":0.75}`)); err != nil {
		t.Fatal(err)
	}
	cases["huge-shard-count"] = huge.Bytes()

	for name, data := range cases {
		if err := target.Restore(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
		if target.Len() != wantLen {
			t.Fatalf("%s: failed restore mutated index: Len = %d, want %d", name, target.Len(), wantLen)
		}
		if got := target.mustSearch(MatchQuery{Text: "zelda"}, SearchOptions{}); len(got) == 0 {
			t.Fatalf("%s: failed restore broke target search", name)
		}
	}
}

func TestRestorePreservesAnalyzersAndRanker(t *testing.T) {
	ix := New(WithShards(2))
	ix.SetRanker(RankerTFIDF)
	ix.SetFieldOptions("title", FieldOptions{Boost: 3})
	if err := ix.Add(Document{ID: "a", Fields: map[string]string{"title": "zelda adventure"}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ranker, k1, b := restored.scoringParams()
	if ranker != RankerTFIDF || k1 != 1.2 || b != 0.75 {
		t.Fatalf("scoring params = %v %v %v", ranker, k1, b)
	}
	opts, ok := restored.fieldOpts("title")
	if !ok || opts.Boost != 3 {
		t.Fatalf("title opts = %+v, %v", opts, ok)
	}
}

// TestRestoredIndexIsWritable: the restored structures must accept
// further writes, deletes and compaction like a fresh index.
func TestRestoredIndexIsWritable(t *testing.T) {
	ix := persistCorpus(t, WithShards(4))
	var buf bytes.Buffer
	if err := ix.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	before := restored.Len()
	if err := restored.Add(Document{ID: "new1", Fields: map[string]string{"body": "brand new zelda sequel"}}); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != before+1 {
		t.Fatalf("Len after add = %d, want %d", restored.Len(), before+1)
	}
	got := restored.mustSearch(TermQuery{Field: "body", Term: "sequel"}, SearchOptions{})
	if len(got) != 1 || got[0].ID != "new1" {
		t.Fatalf("search for new doc = %v", ids(got))
	}
	if !restored.Delete("new1") {
		t.Fatal("delete after restore failed")
	}
	if err := restored.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if restored.TombstoneRatio() != 0 {
		t.Fatalf("ratio after compact = %v", restored.TombstoneRatio())
	}
}
