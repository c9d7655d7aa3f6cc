package index

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// snapshotShardRef is the reference v4 shard encoder: decode every
// document onto the heap, then walk the decoded table and the merged
// term dictionary generically. The overlay encoder must write the same
// bytes without decoding the base.
func snapshotShardRef(s *shard) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	nDocs := s.numDocs()
	docs := make([]docRow, nDocs)
	for ord := range docs {
		docs[ord] = s.docAt(ord)
	}
	bw := &binWriter{}
	bw.reserve(shardHeaderLen)
	docOff := make([]uint32, nDocs)
	type idOrd struct {
		id  string
		ord int
	}
	var byID []idOrd
	for ord, doc := range docs {
		if doc.ID == "" {
			docOff[ord] = dirTombstone
			continue
		}
		docOff[ord] = uint32(len(bw.buf))
		bw.str(doc.ID)
		bw.strmap(doc.Stored)
		byID = append(byID, idOrd{doc.ID, ord})
	}
	docDirOff := len(bw.buf)
	for _, off := range docOff {
		bw.u32(off)
	}
	sort.Slice(byID, func(i, j int) bool { return byID[i].id < byID[j].id })
	idSortedOff := len(bw.buf)
	for _, e := range byID {
		bw.u32(uint32(e.ord))
	}
	names := make([]string, 0, len(s.fields))
	for name := range s.fields {
		names = append(names, name)
	}
	sort.Strings(names)
	fieldOffs := make([]uint32, len(names))
	for fi, name := range names {
		fp := s.fields[name]
		fieldOffs[fi] = uint32(len(bw.buf))
		bw.str(name)
		bw.uvarint(fp.totalLen)
		bw.uvarint(fp.docCount)
		bw.uvarint(fp.minLen)
		var ords []int
		for ord, doc := range docs {
			if slices.Contains(doc.Fields, name) && doc.ID != "" {
				ords = append(ords, ord)
			}
		}
		bw.uvarint(len(ords))
		for _, ord := range ords {
			bw.uvarint(ord)
			bw.uvarint(fp.lenAt(ord))
		}
		var terms []string
		var lists []*postingList
		for _, term := range fp.sortedTermsAll() {
			if l := fp.lookup(term); l != nil {
				terms = append(terms, term)
				lists = append(lists, l)
			}
		}
		bw.uvarint(len(terms))
		termDirOff := bw.reserve(len(terms) * 4)
		for ti, term := range terms {
			bw.patchU32(termDirOff+ti*4, len(bw.buf))
			list := lists[ti]
			bw.str(term)
			bw.uvarint(list.n)
			bw.uvarint(list.lastDoc)
			bw.uvarint(list.maxTF)
			bw.uvarint(len(list.blocks))
			for _, b := range list.blocks {
				bw.uvarint(b.firstDoc)
				bw.uvarint(b.docOff)
				bw.uvarint(b.posOff)
				bw.uvarint(b.maxTF)
			}
			bw.uvarint(len(list.docTF))
			bw.buf = append(bw.buf, list.docTF...)
			bw.uvarint(len(list.posBuf))
			bw.buf = append(bw.buf, list.posBuf...)
		}
	}
	fieldDirOff := len(bw.buf)
	for _, off := range fieldOffs {
		bw.u32(off)
	}
	hdr := []int{nDocs, s.live, s.dead, len(names), docDirOff, idSortedOff, fieldDirOff}
	for i, x := range hdr {
		bw.patchU32(i*4, x)
	}
	return bw.buf
}

// overlayDoc builds the document the overlay tests write under id;
// gen varies the text so a replacement differs from what it replaces.
func overlayDoc(id string, gen int) Document {
	body := fmt.Sprintf("rewritten shared zelda gen%d", gen)
	if gen%2 == 0 {
		body += " halo strategy adventure"
	}
	fields := map[string]string{"body": body}
	if gen%3 != 0 {
		fields["title"] = fmt.Sprintf("Title %d zelda", gen%4)
	}
	if gen%5 == 0 {
		fields["extra"] = "brand new field"
	}
	return Document{
		ID:     id,
		Fields: fields,
		Stored: map[string]string{"producer": []string{"Nintendo", "Epic", "Valve"}[gen%3], "parity": fmt.Sprint(gen % 2)},
	}
}

// checkOverlayTwins fails unless the written mapped index answers like
// its heap twin and both encode like the reference encoder.
func checkOverlayTwins(t *testing.T, label string, mx, hx *Index) {
	t.Helper()
	for name, q := range equivQueries() {
		for _, o := range []SearchOptions{{}, {Limit: 10}, {Limit: 5, Offset: 3}} {
			got, want := mx.mustSearch(q, o), hx.mustSearch(q, o)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s %+v:\nmapped %v\nheap   %v", label, name, o, got, want)
			}
		}
		if got, want := mx.mustCount(q), hx.mustCount(q); got != want {
			t.Fatalf("%s %s: count %d, heap %d", label, name, got, want)
		}
		if got, want := mx.mustFacets(q, "producer"), hx.mustFacets(q, "producer"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s: facets %v, heap %v", label, name, got, want)
		}
	}
	var a, b bytes.Buffer
	if err := mx.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := hx.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: mapped snapshot (%d bytes) differs from heap twin's (%d)", label, a.Len(), b.Len())
	}
	for i, s := range mx.ring.Load().shards {
		var got bytes.Buffer
		if err := s.snapshotShard(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), snapshotShardRef(s)) {
			t.Fatalf("%s: shard %d overlay encoding differs from decode-then-encode", label, i)
		}
	}
}

// heapCopy restores a snapshot and folds every shard onto the
// heap: the heap twin an attached copy is compared against.
func heapCopy(t testing.TB, data []byte, shards int) *Index {
	t.Helper()
	hx := New(WithShards(shards))
	if err := hx.Restore(data); err != nil {
		t.Fatal(err)
	}
	for _, s := range hx.ring.Load().shards {
		s.mu.Lock()
		s.materializeLocked()
		s.mu.Unlock()
	}
	return hx
}

// materializeLocked converts a mapped shard in place to the heap
// representation a shard built by writes has, keeping every ordinal:
// the live base entries fold in under the overlay, then every
// still-mapped term is copied and the mapping detached. The index
// never does this — a rebuild regroups instead — so it is the
// independent heap twin the overlay and the codec are checked against.
func (s *shard) materializeLocked() {
	if s.ms == nil {
		return
	}
	docs := make([]docRow, s.base, s.base+len(s.docs))
	if len(s.byID) == 0 {
		s.byID = make(map[string]int, s.live)
	}
	var prev []string
	for ord := range s.base {
		if !s.ms.liveAt(ord) {
			continue
		}
		if row, ok := s.ms.rowAt(s.ix, ord, prev); ok {
			docs[ord] = row
			s.byID[row.ID] = ord
			prev = row.Fields
		}
	}
	s.docs = append(docs, s.docs...)
	s.base = 0
	for _, fp := range s.fields {
		mf := fp.mapped
		if mf == nil {
			continue
		}
		for slot := 0; slot < mf.nTerms; slot++ {
			t, err := mf.termAt(slot)
			if err != nil {
				panic(err)
			}
			if _, ok := fp.terms[string(t)]; !ok {
				fp.promoteSlotLocked(string(t), slot)
			}
		}
		fp.mapped = nil
		fp.dict.Store(nil)
	}
	s.ms = nil
}

// TestOverlayMatchesHeap: seeded random appends, replacements and
// deletes of base documents, re-adds and replacements of overlay
// documents on a mapped index answer every query type exactly like
// the same writes on a heap copy of the same snapshot, and both
// snapshot to the same bytes — the reference decode-then-encode bytes.
// No write folds the base into the heap.
func TestOverlayMatchesHeap(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			src := equivCorpus(t, shards)
			var snap bytes.Buffer
			if err := src.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			mx := New(WithShards(shards))
			if err := mx.Restore(snap.Bytes()); err != nil {
				t.Fatal(err)
			}
			hx := heapCopy(t, snap.Bytes(), shards)
			rng := rand.New(rand.NewSource(seed))
			ids := func() string {
				if rng.Intn(4) == 0 {
					return fmt.Sprintf("new%03d", rng.Intn(40))
				}
				return fmt.Sprintf("doc%03d", rng.Intn(300))
			}
			for step := 0; step < 40; step++ {
				var op string
				switch r := rng.Intn(10); {
				case r < 6:
					id, gen := ids(), rng.Intn(1000)
					op = fmt.Sprintf("add %s gen%d", id, gen)
					for _, ix := range []*Index{mx, hx} {
						if err := ix.Add(overlayDoc(id, gen)); err != nil {
							t.Fatal(err)
						}
					}
				case r < 9:
					id := ids()
					op = "delete " + id
					if got, want := mx.Delete(id), hx.Delete(id); got != want {
						t.Fatalf("seed %d step %d %s: mapped %v, heap %v", seed, step, op, got, want)
					}
				default:
					var docs []Document
					for range 5 {
						docs = append(docs, overlayDoc(ids(), rng.Intn(1000)))
					}
					op = fmt.Sprintf("batch of %d", len(docs))
					for _, ix := range []*Index{mx, hx} {
						if err := ix.AddBatch(docs); err != nil {
							t.Fatal(err)
						}
					}
				}
				label := fmt.Sprintf("shards=%d seed=%d step=%d (%s)", shards, seed, step, op)
				if step%8 == 7 || step == 39 {
					checkOverlayTwins(t, label, mx, hx)
				}
				for _, id := range []string{"doc000", "doc013", "doc100", "new001"} {
					got, gotOK := mx.Get(id)
					want, wantOK := hx.Get(id)
					if gotOK != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Get(%s) = %v %v, heap %v %v", label, id, got, gotOK, want, wantOK)
					}
				}
			}
			if st := mx.MMapStats(); st.MappedShards != shards {
				t.Fatalf("shards=%d seed=%d: %+v, want every shard still mapped", shards, seed, st)
			}
			// The rebuilds regroup base and overlay together.
			label := fmt.Sprintf("shards=%d seed=%d", shards, seed)
			if seed%2 == 0 {
				for _, ix := range []*Index{mx, hx} {
					if err := ix.CompactContext(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				checkOverlayTwins(t, label+" compacted", mx, hx)
			} else {
				for _, ix := range []*Index{mx, hx} {
					if err := ix.ReshardContext(context.Background(), shards+1); err != nil {
						t.Fatal(err)
					}
				}
				checkOverlayTwins(t, label+" resharded", mx, hx)
			}
		}
	}
}

// TestOverlayFindOrdAllocs: resolving an ID against the mapped base
// compares payload bytes in place, hit or miss.
func TestOverlayFindOrdAllocs(t *testing.T) {
	mx := mappedCopy(t, equivCorpus(t, 1))
	s := mx.ring.Load().shards[0]
	for _, tc := range []struct {
		id   string
		want bool
	}{{"doc001", true}, {"doc013", false}, {"nosuchdoc", false}} {
		if _, ok := s.findOrd(tc.id); ok != tc.want {
			t.Fatalf("findOrd(%q) = %v, want %v", tc.id, ok, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { s.findOrd(tc.id) }); n != 0 {
			t.Errorf("findOrd(%q) made %v allocations, want 0", tc.id, n)
		}
	}
}

// TestMappedHitEmptyStoredAllocs: a store's documents carry no Stored
// map, and a hit on a mapped shard decodes only its ID for them: the
// empty Stored map decodes to nil.
func TestMappedHitEmptyStoredAllocs(t *testing.T) {
	ix := New(WithShards(1))
	for i := range 20 {
		if err := ix.Add(Document{ID: fmt.Sprintf("doc%03d", i), Fields: map[string]string{"body": "plain text"}}); err != nil {
			t.Fatal(err)
		}
	}
	s := mappedCopy(t, ix).ring.Load().shards[0]
	id, stored := s.hitAt(7)
	if id != "doc007" || stored != nil {
		t.Fatalf("hitAt(7) = %q %v, want doc007 and a nil Stored", id, stored)
	}
	if n := testing.AllocsPerRun(100, func() { s.hitAt(7) }); n != 1 {
		t.Errorf("hitAt made %v allocations, want 1 (the ID)", n)
	}
}

// TestMappedTopKAllocs: a top-10 search on an unwritten mapped shard
// decodes only the hits the heap admits, so its allocations stay
// bounded by k rather than growing with the number of matches.
func TestMappedTopKAllocs(t *testing.T) {
	mx := mappedCopy(t, equivCorpus(t, 1))
	for name, q := range map[string]Query{
		"single-list": TermQuery{Field: "body", Term: "shared"},
		"accumulator": MatchQuery{Text: "shared corpus"},
	} {
		matches := mx.mustCount(q)
		if matches < 200 {
			t.Fatalf("%s: corpus drifted, %d matches", name, matches)
		}
		o := SearchOptions{Limit: 10}
		n := testing.AllocsPerRun(20, func() { mx.mustSearch(q, o) })
		// Decoding an admitted hit's ID and Stored map costs a handful
		// of allocations; decoding every match would cost thousands.
		if n > 150 {
			t.Errorf("%s: top-10 over %d matches made %v allocations, want O(k)", name, matches, n)
		}
	}
}

// BenchmarkSnapshotWrittenMapped times the checkpoint encode of a
// mapped index after a light write load (200 appends, 50 replacements
// and 50 deletes over a 4 000-document base): "overlay" is Snapshot,
// "materialize" decodes every document first and then encodes, the
// way a written mapped shard used to checkpoint. Restore and writes
// are not timed.
func BenchmarkSnapshotWrittenMapped(b *testing.B) {
	src := New(WithShards(2))
	for i := 0; i < 4000; i++ {
		if err := src.Add(overlayDoc(fmt.Sprintf("doc%04d", i), i)); err != nil {
			b.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	written := func() *Index {
		mx := New(WithShards(2))
		if err := mx.Restore(snap.Bytes()); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			mx.Add(overlayDoc(fmt.Sprintf("new%04d", i), i))
		}
		for i := 0; i < 50; i++ {
			mx.Add(overlayDoc(fmt.Sprintf("doc%04d", i*80), i+7))
			mx.Delete(fmt.Sprintf("doc%04d", i*80+40))
		}
		return mx
	}
	b.Run("overlay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mx := written()
			var out bytes.Buffer
			b.StartTimer()
			if err := mx.Snapshot(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mx := written()
			var out bytes.Buffer
			b.StartTimer()
			for _, s := range mx.ring.Load().shards {
				out.Write(snapshotShardRef(s))
			}
		}
	})
}

// emptyFieldDoc builds document i of TestBaseDeletesOfEmptyFields:
// its tag field is absent when i%3 == 0, present but empty when
// i%3 == 1, and carries a word when i%3 == 2; rev varies the body.
func emptyFieldDoc(i, rev int) Document {
	fields := map[string]string{"body": fmt.Sprintf("common body rev%d word%d", rev, i%7)}
	switch i % 3 {
	case 1:
		fields["tag"] = ""
	case 2:
		fields["tag"] = fmt.Sprintf("tagged tag%d", i%4)
	}
	return Document{ID: fmt.Sprintf("e%03d", i), Fields: fields}
}

// TestBaseDeletesOfEmptyFields: deleting and replacing base documents
// of a mapped index whose tag field was absent or empty keeps every
// field's document count and total length — the BM25 average length —
// exact. The mapped index, attached from a snapshot, must answer and
// encode exactly like a heap twin that took the same writes without
// ever being snapshotted; a delete that skipped an empty field (its
// length is 0, so only the field's presence records it) would leave
// the tag field's document count one too high.
func TestBaseDeletesOfEmptyFields(t *testing.T) {
	for _, shards := range []int{1, 3} {
		hx := New(WithShards(shards))
		for i := range 90 {
			if err := hx.Add(emptyFieldDoc(i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		mx := mappedCopy(t, hx)
		for i := 0; i < 90; i += 4 {
			id := fmt.Sprintf("e%03d", i)
			if got, want := mx.Delete(id), hx.Delete(id); !got || !want {
				t.Fatalf("delete %s: mapped %v, heap %v", id, got, want)
			}
		}
		// Replacements move documents between absent, empty and
		// carrying a word.
		for i := 1; i < 90; i += 4 {
			doc := emptyFieldDoc(i+1, 1)
			doc.ID = fmt.Sprintf("e%03d", i)
			for _, ix := range []*Index{mx, hx} {
				if err := ix.Add(doc); err != nil {
					t.Fatal(err)
				}
			}
		}
		stats := func(ix *Index) map[string][2]int {
			out := map[string][2]int{}
			for _, s := range ix.ring.Load().shards {
				s.mu.RLock()
				for name, fp := range s.fields {
					st := out[name]
					out[name] = [2]int{st[0] + fp.docCount, st[1] + fp.totalLen}
				}
				s.mu.RUnlock()
			}
			return out
		}
		if got, want := stats(mx), stats(hx); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: field (docCount, totalLen) mapped %v, heap %v", shards, got, want)
		}
		for _, q := range []Query{
			TermQuery{Field: "tag", Term: "tagged"},
			MatchQuery{Text: "tagged tag1 word3"},
			MatchQuery{Fields: []string{"tag"}, Text: "tag2 tag3"},
			AllQuery{},
		} {
			for _, o := range []SearchOptions{{}, {Limit: 5}} {
				mustEqualResults(t, fmt.Sprintf("shards=%d %#v %+v", shards, q, o), mx.mustSearch(q, o), hx.mustSearch(q, o))
			}
		}
		var a, b bytes.Buffer
		if err := mx.Snapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := hx.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("shards=%d: mapped snapshot differs from the heap twin's", shards)
		}
	}
}
