package index

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frameio"
)

// FuzzV3DocEntry: attaching arbitrary bytes as a shard payload either
// fails or yields a shard whose doc-table decoders — the full entry
// decode, the hit decode, the in-place ID walk, the verbatim entry
// walk, the ID probe — return an error or a zero value without
// panicking, whose field names derived from the field sections agree
// whether or not a previous row's names are shared, and whose overlay
// writes and re-encode do not panic either. The payload is
// cap-clamped, so a read past its end panics instead of silently
// reading the neighbouring bytes of a mapping. The committed corpus
// (testdata/fuzz/FuzzV3DocEntry) holds shard payloads cut from
// internal/store's fixtures: v4 ones, and v3 ones (the "-fieldtext"
// files) that attach must refuse; a fresh snapshot adds more. (The
// target keeps the name it had when v3 was the format, so its seed
// results stay comparable.)
func FuzzV3DocEntry(f *testing.F) {
	addShardSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, s := attachFuzzShard(data)
		if s == nil {
			return
		}
		ms := s.ms
		var ids, prev []string
		for ord := 0; ord < ms.nDocs; ord++ {
			doc, ok := ms.docEntryAt(ix, ord)
			id, stored := ms.hitAt(ix, ord)
			idb := ms.idBytesAt(ix, ord)
			entry := ms.entryBytes(ix, ord)
			if ok && (id != doc.ID || string(idb) != doc.ID || len(entry) == 0 || len(stored) != len(doc.Stored)) {
				t.Fatalf("ord %d: decoders disagree: %q %q %q", ord, doc.ID, id, idb)
			}
			if row, _ := ms.rowAt(ix, ord, prev); !slices.Equal(row.Fields, doc.Fields) {
				t.Fatalf("ord %d: fields %q after %q, %q alone", ord, row.Fields, prev, doc.Fields)
			}
			prev = doc.Fields
			s.liveAt(ord)
			s.idAt(ord)
			if ok {
				ids = append(ids, doc.ID)
			}
		}
		s.findOrd("")
		s.findOrd("\xff")
		s.mu.Lock()
		for i, id := range ids {
			s.findOrd(id)
			if i%2 == 0 {
				s.deleteByIDLocked(id)
			}
		}
		s.addLocked(Document{ID: fmt.Sprint("fuzz", len(ids)), Fields: map[string]string{}}, nil)
		s.mu.Unlock()
		var out bytes.Buffer
		if err := s.snapshotShard(&out); err != nil {
			t.Fatal(err)
		}
	})
}

// addShardSeeds adds the shard payloads of a fresh 2-shard snapshot to
// a shard fuzzer's seed corpus.
func addShardSeeds(f *testing.F) {
	for _, p := range freshShardPayloads(f) {
		f.Add(p)
	}
}

// freshShardPayloads returns the shard payloads of a 2-shard snapshot
// of equivCorpus.
func freshShardPayloads(tb testing.TB) [][]byte {
	var snap bytes.Buffer
	if err := equivCorpus(tb, 2).Snapshot(&snap); err != nil {
		tb.Fatal(err)
	}
	data := snap.Bytes()
	var payloads [][]byte
	_, off, err := frameio.NextFrameInBuf(data, len(indexSnapshotMagic), true)
	for err == nil && off < len(data) {
		var p []byte
		if p, off, err = frameio.NextFrameInBuf(data, off, true); err == nil {
			payloads = append(payloads, p)
		}
	}
	if err != nil {
		tb.Fatal(err)
	}
	return payloads
}

// TestPostingSeedsReachBothTFCodes: FuzzV3Postings' seeds hold
// postings of both docTF encodings — tf 1 folded into the delta, and
// a tf above 1 written after it — so its mutations start from both.
// Every committed v4 seed must attach; the "-fieldtext" seeds are v3
// payloads, which attach must refuse.
func TestPostingSeedsReachBothTFCodes(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzV3Postings")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := freshShardPayloads(t)
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(body), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")\n")
		p, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a []byte corpus entry (%v)", e.Name(), err)
		}
		_, s := attachFuzzShard([]byte(p))
		if v3 := strings.Contains(e.Name(), "-fieldtext"); (s == nil) != v3 {
			t.Fatalf("%s: attached %v", e.Name(), s != nil)
		}
		seeds = append(seeds, []byte(p))
	}
	var ones, more int
	for _, p := range seeds {
		_, s := attachFuzzShard(p)
		if s == nil {
			continue
		}
		for _, fp := range s.fields {
			for _, term := range fp.sortedTermsAll() {
				l := fp.lookup(term)
				for it := l.iter(); l != nil && it.next(); {
					if it.tf == 1 {
						ones++
					} else {
						more++
					}
				}
			}
		}
	}
	if ones == 0 || more == 0 {
		t.Fatalf("seeds hold %d tf-1 postings and %d with tf above 1, want both", ones, more)
	}
}

// attachFuzzShard attaches fuzz input as the one shard of a fresh
// index, or returns a nil shard when attach rejects it. The payload is
// a cap-clamped copy, so a read past its end panics instead of
// silently reading the neighbouring bytes of a mapping.
func attachFuzzShard(data []byte) (*Index, *shard) {
	// Attach sizes a length table per field and document; bound the
	// input so a hostile header cannot make the fuzzer itself OOM.
	if len(data) > 1<<16 {
		return nil, nil
	}
	payload := bytes.Clone(data)
	payload = payload[:len(payload):len(payload)]
	ix := New(WithShards(1))
	s, err := ix.attachShard(payload, func(string) (FieldOptions, bool) { return FieldOptions{}, false })
	if err != nil {
		return nil, nil
	}
	return ix, s
}

// FuzzV3Postings: every term of an attached shard payload either
// reads as absent (its slot rejected, counted as a lazy decode error)
// or serves a posting list that the iterators, the position walk,
// tfAt, the block-max top-k path and the accumulator count all walk
// without panicking. The committed corpus
// (testdata/fuzz/FuzzV3Postings) holds the same shard payloads as
// FuzzV3DocEntry's; TestPostingSeedsReachBothTFCodes checks that its
// seeds hold postings of both docTF encodings, tf 1 folded into the
// delta and tf above 1 written out.
func FuzzV3Postings(f *testing.F) {
	addShardSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, s := attachFuzzShard(data)
		if s == nil {
			return
		}
		ix.ring.Store(&ring{gen: ix.ring.Load().gen + 1, shards: []*shard{s}})
		for name := range s.fields {
			ix.SetFieldOptions(name, FieldOptions{Boost: 1})
		}
		var pos []int
		for name, fp := range s.fields {
			if fp.mapped == nil {
				continue
			}
			for _, term := range fp.mapped.mappedTermNames() {
				s.mu.RLock()
				l := fp.lookup(term)
				if l != nil {
					it, pi := l.iter(), l.positions()
					for it.next() {
						pos = pi.read(it.tf, pos)
						if tf, ok := l.tfAt(it.doc); !ok || tf != it.tf {
							t.Fatalf("%s:%q: tfAt(%d) = %d %v, iterator saw tf %d", name, term, it.doc, tf, ok, it.tf)
						}
						s.liveAt(it.doc)
					}
					l.tfAt(l.lastDoc + 1)
				}
				s.mu.RUnlock()
				q := TermQuery{Field: name, Term: term}
				ix.mustSearch(q, SearchOptions{Limit: 3})
				ix.mustCount(q)
			}
		}
	})
}

// FuzzIndexRestore: Restore, the one index restore entry, either
// rejects arbitrary bytes or yields an index on which Search and Count
// over every dictionary term, and Snapshot, neither panic nor loop.
// Mutations reach the header frame, the shard frames, the
// field-section headers and the term directories. Seeds are fresh
// snapshots of persistCorpus at 1 and 3 shards; the fuzzed index has
// one shard, so a 3-shard input also runs the reshard that moves every
// document onto the heap. The input is a cap-clamped copy, as in
// attachFuzzShard.
func FuzzIndexRestore(f *testing.F) {
	for _, n := range []int{1, 3} {
		var snap bytes.Buffer
		if err := persistCorpus(f, WithShards(n)).Snapshot(&snap); err != nil {
			f.Fatal(err)
		}
		f.Add(snap.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		payload := bytes.Clone(data)
		payload = payload[:len(payload):len(payload)]
		ix := New(WithShards(1))
		if ix.Restore(payload) != nil {
			return
		}
		var terms []TermQuery
		for _, s := range ix.ring.Load().shards {
			s.mu.RLock()
			for name, fp := range s.fields {
				for _, term := range fp.sortedTermsAll() {
					terms = append(terms, TermQuery{Field: name, Term: term})
				}
			}
			s.mu.RUnlock()
		}
		for _, q := range terms {
			ix.mustSearch(q, SearchOptions{})
			ix.mustSearch(q, SearchOptions{Limit: 3})
			ix.mustCount(q)
		}
		var out bytes.Buffer
		if err := ix.Snapshot(&out); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAttachRejectsInconsistentFieldLengths: a field whose doc count
// or total length disagrees with its (ordinal, length) list, or whose
// list repeats an ordinal, does not attach. FuzzV3DocEntry found the
// first: deletes took the count below zero, and the next snapshot
// panicked sizing a slice by it.
func TestAttachRejectsInconsistentFieldLengths(t *testing.T) {
	payload := freshShardPayloads(t)[0]
	br := binReader{buf: payload, off: int(u32At(payload, int(u32At(payload, 6*4))))}
	if _, err := br.str(); err != nil {
		t.Fatal(err)
	}
	var offs [6]int // totalLen, docCount, minLen, nLens, first ordinal, its length
	for i := range offs {
		offs[i] = br.off
		if _, err := br.uvarint(); err != nil {
			t.Fatal(err)
		}
	}
	secondOrd := br.off
	if payload[secondOrd] != payload[offs[4]]+1 || payload[secondOrd] >= 0x80 {
		t.Fatalf("field list starts at ordinals %d, %d; want two adjacent one-byte ordinals", payload[offs[4]], payload[secondOrd])
	}
	for name, off := range map[string]int{"total length": offs[0], "doc count": offs[1], "repeated ordinal": secondOrd} {
		bad := bytes.Clone(payload)
		if bad[off]&0x7f == 0 {
			t.Fatalf("%s: the varint at %d has no low bits to decrement", name, off)
		}
		bad[off]--
		if _, s := attachFuzzShard(bad); s != nil {
			t.Errorf("%s one less: the shard attached", name)
		}
	}
	if _, s := attachFuzzShard(payload); s == nil {
		t.Fatal("the unmodified payload does not attach")
	}
}
