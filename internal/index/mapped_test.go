package index

import (
	"bytes"
	"context"
	"testing"
)

// TestMMapStatsFollowRing: MappedShards and MappedBytes describe the
// current ring. A second restore replaces the first one's payloads
// instead of adding to them, and a reshard, which moves every
// document onto the heap, drops both to zero.
func TestMMapStatsFollowRing(t *testing.T) {
	var snap bytes.Buffer
	if err := persistCorpus(t, WithShards(3)).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	ix := New(WithShards(3))
	var first MMapStats
	for i := range 2 {
		if err := ix.Restore(snap.Bytes()); err != nil {
			t.Fatal(err)
		}
		st := ix.MMapStats()
		if i == 0 {
			first = st
		}
		if st.MappedShards != 3 || st.MappedBytes == 0 || st.MappedBytes != first.MappedBytes {
			t.Fatalf("restore %d: %+v, want 3 mapped shards and the first restore's %d bytes", i+1, st, first.MappedBytes)
		}
	}
	if err := ix.ReshardContext(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if st := ix.MMapStats(); st.MappedShards != 0 || st.MappedBytes != 0 {
		t.Fatalf("after reshard: %+v, want nothing mapped", st)
	}
}

// TestMappedFindAllocs: a dictionary probe on a mapped field compares
// payload bytes in place, so looking a term up — present or absent —
// allocates nothing.
func TestMappedFindAllocs(t *testing.T) {
	mx := mappedCopy(t, equivCorpus(t, 1))
	mf := mx.ring.Load().shards[0].fields["body"].mapped
	if mf == nil {
		t.Fatal("body field is not mapped")
	}
	for _, tc := range []struct {
		term string
		want bool
	}{
		{"adventure", true},
		{"nosuchterm", false},
	} {
		if _, ok := mf.find(tc.term); ok != tc.want {
			t.Fatalf("find(%q) = %v, want %v", tc.term, ok, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { mf.find(tc.term) }); n != 0 {
			t.Errorf("find(%q) made %v allocations, want 0", tc.term, n)
		}
	}
}

// TestCountMappedAllocs: counting on an unmaterialized mapped shard
// tests liveness from the doc directory, so its allocations do not grow
// with the number of matches (decoding each match's doc entry into its
// Fields and Stored maps would cost about a dozen per match).
func TestCountMappedAllocs(t *testing.T) {
	mx := mappedCopy(t, equivCorpus(t, 1))
	allocs := func(term string) (matches int, perRun float64) {
		q := TermQuery{Field: "body", Term: term}
		matches = mx.mustCount(q)
		return matches, testing.AllocsPerRun(50, func() { mx.mustCount(q) })
	}
	fewN, few := allocs("halo")
	manyN, many := allocs("shared")
	if manyN < 3*fewN {
		t.Fatalf("corpus drifted: %d matches for shared, %d for halo", manyN, fewN)
	}
	// Decoding doc entries costs several allocations per match. The
	// slack of one per 20 extra matches absorbs sync.Pool misses, which
	// the race detector injects at random.
	if many-few > float64(manyN-fewN)/20 {
		t.Errorf("Count made %v allocations for %d matches but %v for %d; want no growth with matches", many, manyN, few, fewN)
	}
}

// TestCheckPostingsRejectsBadAnchors: a term entry decoded from
// snapshot bytes is accepted only if every anchor the query path
// trusts matches its streams; each corruption below would otherwise
// index past a stream or past the shard's ordinals at query time.
func TestCheckPostingsRejectsBadAnchors(t *testing.T) {
	const nDocs = 800 // the valid list's last ordinal is 765
	// Every posting has tf 2 except the first of each block, whose tf
	// 1 is folded into its delta.
	valid := func() *postingList {
		l := &postingList{}
		for doc := 0; doc < 2*postingBlockSize; doc++ {
			pos := []int{doc % 5, doc%5 + 2}
			if doc%postingBlockSize == 0 {
				pos = pos[:1]
			}
			appendPosting(l, 3*doc, pos)
		}
		l.blocks = append([]blockMeta(nil), l.blocks...)
		return l
	}
	if err := valid().checkPostings(nDocs); err != nil {
		t.Fatalf("a list appendPosting wrote is rejected: %v", err)
	}
	for name, corrupt := range map[string]func(l *postingList){
		"firstDoc not increasing": func(l *postingList) {
			l.blocks[1].firstDoc -= 3 // block 0's last ordinal
			l.lastDoc -= 3
		},
		"firstDoc past ordinals": func(l *postingList) {
			*l = postingList{}
			appendPosting(l, nDocs+5, []int{1})
		},
		"lastDoc below a posting":  func(l *postingList) { l.lastDoc = l.blocks[1].firstDoc },
		"lastDoc past ordinals":    func(l *postingList) { l.lastDoc = nDocs },
		"docOff decreases":         func(l *postingList) { l.blocks[1].docOff-- },
		"docOff past stream":       func(l *postingList) { l.blocks[1].docOff = len(l.docTF) + 1 },
		"posOff decreases":         func(l *postingList) { l.blocks[1].posOff-- },
		"posOff past stream":       func(l *postingList) { l.blocks[1].posOff = len(l.posBuf) + 1 },
		"block max tf above list":  func(l *postingList) { l.blocks[0].maxTF = l.maxTF + 1 },
		"list max tf below block":  func(l *postingList) { l.maxTF-- },
		"doc stream trailing":      func(l *postingList) { l.docTF = append(l.docTF, 0) },
		"position stream short":    func(l *postingList) { l.posBuf = l.posBuf[:len(l.posBuf)-1] },
		"position stream trailing": func(l *postingList) { l.posBuf = append(l.posBuf, 0) },
		"repeated ordinal": func(l *postingList) {
			l.docTF[len(l.docTF)-2] = 0 // the last posting's delta, 3 → 0
			l.lastDoc -= 3
		},
		"delta past ordinals": func(l *postingList) {
			l.docTF[len(l.docTF)-2] = 0x7e // the last posting's delta, 3 → 63
			l.lastDoc += 63 - 3
		},
		"tf 1 written out": func(l *postingList) {
			l.docTF[len(l.docTF)-1] = 1 // the last posting's tf, 2 → 1
			l.posBuf = l.posBuf[:len(l.posBuf)-1]
			l.blocks[1].maxTF, l.maxTF = 2, 2
		},
		"first delta not zero": func(l *postingList) {
			l.docTF[l.blocks[1].docOff] = 3 // block 1's first posting: delta 0 → 1, tf 1
			l.blocks[1].firstDoc--
		},
	} {
		l := valid()
		corrupt(l)
		if err := l.checkPostings(nDocs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
