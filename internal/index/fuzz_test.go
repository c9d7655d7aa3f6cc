package index

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/frameio"
)

// FuzzV3DocEntry: attaching arbitrary bytes as a v3 shard payload
// either fails or yields a shard whose doc-table decoders — the full
// entry decode, the hit decode, the in-place ID and field-key walks,
// the verbatim entry walk, the ID probe — return an error or a zero
// value without panicking, and whose overlay writes and re-encode do
// not panic either. The payload is cap-clamped, so a read past its end
// panics instead of silently reading the neighbouring bytes of a
// mapping. The committed corpus (testdata/fuzz/FuzzV3DocEntry) holds
// shard payloads cut from internal/store's v3 fixture; a fresh
// snapshot adds one more.
func FuzzV3DocEntry(f *testing.F) {
	addShardSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, s := attachFuzzShard(data)
		if s == nil {
			return
		}
		ms := s.ms
		var ids []string
		for ord := 0; ord < ms.nDocs; ord++ {
			doc, ok := ms.docEntryAt(ix, ord)
			id, stored := ms.hitAt(ix, ord)
			idb := ms.idBytesAt(ix, ord)
			entry := ms.entryBytes(ix, ord)
			if ok && (id != doc.ID || string(idb) != doc.ID || len(entry) == 0 || len(stored) != len(doc.Stored)) {
				t.Fatalf("ord %d: decoders disagree: %q %q %q", ord, doc.ID, id, idb)
			}
			n := 0
			for range ms.fieldKeys(ix, ord) {
				n++
			}
			if ok && n != len(doc.Fields) {
				t.Fatalf("ord %d: field-key walk saw %d keys, entry has %d", ord, n, len(doc.Fields))
			}
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
		if err := s.snapshotV3(&out); err != nil {
			t.Fatal(err)
		}
	})
}

// addShardSeeds adds the shard payloads of a fresh 2-shard snapshot to
// a v3 shard fuzzer's seed corpus.
func addShardSeeds(f *testing.F) {
	var snap bytes.Buffer
	if err := equivCorpus(f, 2).Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	data := snap.Bytes()
	_, off, err := frameio.NextFrameInBuf(data, len(indexSnapshotMagic), true)
	for err == nil && off < len(data) {
		var p []byte
		if p, off, err = frameio.NextFrameInBuf(data, off, true); err == nil {
			f.Add(p)
		}
	}
	if err != nil {
		f.Fatal(err)
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
	s, err := ix.attachShardV3(payload, func(string) (FieldOptions, bool) { return FieldOptions{}, false })
	if err != nil {
		return nil, nil
	}
	return ix, s
}

// FuzzV3Postings: every term of an attached v3 shard payload either
// reads as absent (its slot rejected, counted as a lazy decode error)
// or serves a posting list that the iterators, the position walk,
// tfAt, the block-max top-k path and the accumulator count all walk
// without panicking. The committed corpus
// (testdata/fuzz/FuzzV3Postings) holds shard payloads cut from
// internal/store's v3 fixture; a fresh snapshot adds more.
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
// Mutations reach the header frame, the shard frames, the v3
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
