package index

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Block-max early exit: a top-k loop over one posting list that skips
// whole blocks whose score upper bound cannot beat the bounded heap's
// running threshold — the single-list case of Block-Max WAND (Ding &
// Suel, SIGIR 2011). It replaces the accumulator evaluator in query.go
// only when the caller wants a top-k (k > 0; counts and facets need
// every match) and the query resolves in the shard to exactly one
// (field, term) posting list: a TermQuery, or a non-"and" MatchQuery
// whose raw terms expand to one member there. Every other query —
// multi-term disjunctions, conjunctions, bools, phrases, prefixes —
// runs on the accumulator, which outruns multi-cursor WAND on this
// platform's short, dense lists.
//
// The contract is bit-identical rankings: the loop scores a posting
// with the accumulator path's own expression, and skips a document
// only when its upper bound is strictly below the heap threshold — a
// bound that also caps the true score, so the skipped document would
// have been rejected by the same heap comparison the accumulator path
// applies. Upper bounds are inflated by ubMargin so float rounding
// differences between the bound expression and the real scoring
// expression can never flip a skip decision the wrong way.

// ubMargin inflates every upper bound. The bound and the score
// evaluate the same monotone formula through different float paths;
// their divergence is a few ulps (~1e-16 relative), so a 1e-9 margin
// is six orders of magnitude of headroom and costs only a marginally
// conservative skip at the threshold boundary.
const ubMargin = 1 + 1e-9

// docSentinel marks an exhausted cursor; it compares after every real
// ordinal so min-based merging needs no special cases.
const docSentinel = math.MaxInt

// scanCounters tallies posting decode/skip activity for one shard
// evaluation; aggregated atomically into the Index when done. Skips
// are counted at posting granularity because the block-max jump
// usually abandons the remainder of a partially-decoded block — work
// avoided that whole-block counting would miss entirely.
type scanCounters struct {
	scored  uint64 // postings decoded
	skipped uint64 // postings jumped without decoding
}

// upperBound returns an inflated upper bound on score(tf, docLen) for
// any 1 <= tf <= maxTF and any docLen >= minLen. Both rankers are
// monotone increasing in tf; BM25 is monotone decreasing in docLen,
// so the bound evaluates the scoring formula itself at (maxTF,
// minLen) — the field's smallest recorded length, far tighter than
// length zero on real corpora — and for TFIDF docLen never enters.
func (sc *termScorer) upperBound(maxTF, minLen int) float64 {
	if maxTF <= 0 || sc.boost == 0 {
		// A zero scorer (phrase cursors walk postings without scoring;
		// scorerFor always sets boost >= 1) has no meaningful bound.
		return 0
	}
	return sc.score(float64(maxTF), minLen) * ubMargin
}

// memberCursor walks one (field, term) posting list in ordinal order
// with block-level seeks. It is postingIter plus: current-block
// tracking (for block-max bounds), seekGE jumps over whole blocks via
// the skip entries, and an optional lazily-synced position stream for
// phrase evaluation.
type memberCursor struct {
	list *postingList
	fp   *fieldPostings
	sc   termScorer
	ub   float64 // inflated upper bound over the whole list

	doc  int // current ordinal; docSentinel when exhausted
	tf   int
	i    int // index of the next posting to decode
	off  int // byte offset of the next posting in docTF
	blk  int // block index of the current posting
	done bool

	// ubMemo caches upperBound by block maxTF (small ints bounded by
	// the list maxTF), so block-metadata scans pay no scoring math.
	ubMemo []float64

	// Lazily-synced position stream (phrase evaluation only). The
	// doc walk never touches posBuf; when positions of the current
	// posting are requested, the stream jumps to the current block's
	// posOff anchor and length-walks only the runs of the preceding
	// in-block postings — tfBefore tracks their total, posTFOff how
	// much of it the stream has already consumed.
	tfBefore int
	posIt    positionIter
	posBlk   int
	posTFOff int

	cnt *scanCounters
}

func newMemberCursor(list *postingList, fp *fieldPostings, sc termScorer, cnt *scanCounters) *memberCursor {
	m := new(memberCursor)
	m.reset(list, fp, sc, cnt)
	return m
}

// reset points m at the first posting of list, keeping only its ubMemo
// capacity from any previous use.
func (m *memberCursor) reset(list *postingList, fp *fieldPostings, sc termScorer, cnt *scanCounters) {
	*m = memberCursor{list: list, fp: fp, sc: sc, cnt: cnt, posBlk: -1, ubMemo: m.ubMemo[:0]}
	m.ub = sc.upperBound(list.maxTF, fp.minLen)
	m.next()
}

// next advances to the following posting; on exhaustion doc becomes
// docSentinel.
func (m *memberCursor) next() bool {
	if m.i >= m.list.n {
		m.done = true
		m.doc = docSentinel
		return false
	}
	if m.i%postingBlockSize == 0 {
		m.blk = m.i / postingBlockSize
		m.doc = m.list.blocks[m.blk].firstDoc
		m.tfBefore = 0
	} else {
		m.tfBefore += m.tf
	}
	m.cnt.scored++
	// An entry of one-byte varints, most postings, decodes in place
	// without branching on its tf: e is 1 when a tf byte follows the
	// code, and when it does not, t rereads the code.
	b := m.list.docTF
	c := b[m.off]
	e := int(^c & 1)
	if t := b[m.off+e]; (c | t) < 0x80 {
		m.doc += int(c >> 1)
		m.tf = 1 + e*(int(t)-1)
		m.off += 1 + e
	} else {
		var gap int
		gap, m.tf, m.off = nextPosting(b, m.off)
		m.doc += gap
	}
	m.i++
	return true
}

// readPositions decodes the current posting's term positions into
// dst, seeking the position stream to the current block's anchor
// instead of streaming every preceding run in the list.
func (m *memberCursor) readPositions(dst []int) []int {
	if m.posBlk != m.blk {
		m.posIt = positionIter{buf: m.list.posBuf, off: m.list.blocks[m.blk].posOff}
		m.posBlk = m.blk
		m.posTFOff = 0
	}
	m.posIt.skip(m.tfBefore - m.posTFOff)
	dst = m.posIt.read(m.tf, dst)
	m.posTFOff = m.tfBefore + m.tf
	return dst
}

// seekGE positions the cursor at the first posting with ordinal >=
// target, jumping whole blocks via the skip entries. Cursors only
// move forward.
func (m *memberCursor) seekGE(target int) {
	if m.done || m.doc >= target {
		return
	}
	if target > m.list.lastDoc {
		m.cnt.skipped += uint64(m.list.n - m.i)
		m.done = true
		m.doc = docSentinel
		return
	}
	// Only pay blockFor's binary search when the target leaves the
	// current block; most seeks advance by one or two postings.
	if target > m.list.blockLastDoc(m.blk) {
		if b := m.list.blockFor(target); b > m.blk {
			m.cnt.skipped += uint64(b*postingBlockSize - m.i)
			m.blk = b
			m.i = b * postingBlockSize
			m.off = m.list.blocks[b].docOff
		}
	}
	for m.next() {
		if m.doc >= target {
			return
		}
	}
}

// ubFor returns upperBound(maxTF, minLen) through the per-maxTF memo.
// The memo buffer is recycled with the cursor, so a too-short one is
// re-extended (and cleared of the previous list's values) on first use.
func (m *memberCursor) ubFor(maxTF int) float64 {
	if n := m.list.maxTF + 1; len(m.ubMemo) < n {
		if cap(m.ubMemo) >= n {
			m.ubMemo = m.ubMemo[:n]
			clear(m.ubMemo)
		} else {
			m.ubMemo = make([]float64, n)
		}
	}
	v := m.ubMemo[maxTF]
	if v == 0 && maxTF > 0 {
		v = m.sc.upperBound(maxTF, m.fp.minLen)
		m.ubMemo[maxTF] = v
	}
	return v
}

// ffwd fast-forwards the cursor past every upcoming block whose bound
// stays below theta. The scan touches only block metadata — no posting
// decodes — which is what keeps a long list sublinear: the per-hop
// cost is one memoized bound compare. The caller has already rejected
// the current block.
func (m *memberCursor) ffwd(theta float64) {
	b := m.blk + 1
	for b < len(m.list.blocks) && m.ubFor(m.list.blocks[b].maxTF) < theta {
		b++
	}
	if b >= len(m.list.blocks) {
		m.cnt.skipped += uint64(m.list.n - m.i)
		m.done = true
		m.doc = docSentinel
		return
	}
	m.cnt.skipped += uint64(b*postingBlockSize - m.i)
	m.i = b * postingBlockSize
	m.off = m.list.blocks[b].docOff
	m.next()
}

// score computes the member's contribution at its current posting.
func (m *memberCursor) score() float64 {
	return m.sc.score(float64(m.tf), m.fp.lenAt(m.doc))
}

// topkScan is the pooled state of one block-max evaluation. Reuse
// keeps the cursor's ubMemo capacity; the counters live beside the
// cursor so pointing it at them costs no allocation.
type topkScan struct {
	cur memberCursor
	cnt scanCounters
}

var topkScanPool = sync.Pool{New: func() any { return new(topkScan) }}

// topkMember is a (field, term) posting list a query scores in a shard.
type topkMember struct {
	list *postingList
	fp   *fieldPostings
	sc   termScorer
}

// soleMember resolves q to the (field, term) posting lists it scores
// in this shard, returning the first and stopping at the second: n is
// 0, 1 or 2 (meaning "more than one"). ok=false means q is not a shape
// the block-max loop serves. Must be called with the shard read lock
// held.
func (s *shard) soleMember(q Query, st *searchStats) (first topkMember, n int, ok bool) {
	add := func(fp *fieldPostings, field, term string) {
		list := fp.lookup(term)
		if list == nil || list.n == 0 {
			return
		}
		sc, scored := s.scorerFor(fp, field, term, st)
		if !scored {
			return
		}
		if n == 0 {
			first = topkMember{list: list, fp: fp, sc: sc}
		}
		n++
	}
	switch t := q.(type) {
	case TermQuery:
		fp := s.fields[t.Field]
		if fp == nil {
			return first, 0, true
		}
		if terms := st.analyzedTerms(fp, t.Field, t.Term); len(terms) > 0 {
			add(fp, t.Field, terms[0])
		}
		return first, n, true
	case MatchQuery:
		if strings.EqualFold(t.Operator, "and") {
			return first, 0, false
		}
		fields := st.fieldsOf(t.Fields)
		if fields == nil {
			// Off the public query paths collectTerms never primed the
			// field memo; derive the shard-local list as MatchQuery.eval
			// does.
			fields = make([]string, 0, len(s.fields))
			for f := range s.fields {
				fields = append(fields, f)
			}
			sort.Strings(fields)
		}
		for _, raw := range st.rawTokens(t.Text) {
			for _, field := range fields {
				fp := s.fields[field]
				if fp == nil {
					continue
				}
				for _, term := range st.analyzedTerms(fp, field, raw) {
					add(fp, field, term)
					if n > 1 {
						return first, n, true
					}
				}
			}
		}
		return first, n, true
	default:
		return first, 0, false
	}
}

// searchTopK runs the block-max loop when q resolves in this shard to
// exactly one posting list; a query that resolves to none matches
// nothing here. ok=false sends every other query to the accumulator
// path. Must be called with the shard read lock held and k > 0.
func (s *shard) searchTopK(q Query, st *searchStats, k int) ([]Result, bool) {
	mem, n, ok := s.soleMember(q, st)
	if !ok || n > 1 {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	ts := topkScanPool.Get().(*topkScan)
	ts.cnt = scanCounters{}
	ts.cur.reset(mem.list, mem.fp, mem.sc, &ts.cnt)
	h := topkHeap{k: k, h: getShardHits()}
	s.wandSingle(&ts.cur, st, &h)
	s.ix.scanScored.Add(ts.cnt.scored)
	s.ix.scanSkipped.Add(ts.cnt.skipped)
	// Drop the list references so a pooled cursor pins no postings.
	ts.cur = memberCursor{ubMemo: ts.cur.ubMemo}
	topkScanPool.Put(ts)
	if st.canceled() {
		putShardHits(h.h)
		return nil, true
	}
	return h.sorted(), true
}

// wandSingle walks one cursor under the heap threshold: the whole-list
// bound ends the scan, the block bound fast-forwards through block
// metadata, and the memoized per-tf bound skips a posting's doc-table
// and doc-length lookups. Each decoded posting costs two uvarints and
// up to three memoized compares.
func (s *shard) wandSingle(m *memberCursor, st *searchStats, h *topkHeap) {
	n := 0
	for !m.done {
		if n++; n&(cancelStride-1) == 0 && st.canceled() {
			return
		}
		if h.full() {
			theta := h.threshold()
			if m.ub < theta {
				// Even a maximal posting cannot place: nothing further
				// in the list can qualify.
				return
			}
			if m.ubFor(m.list.blocks[m.blk].maxTF) < theta {
				m.ffwd(theta)
				continue
			}
			if m.ubFor(m.tf) < theta {
				m.next()
				continue
			}
		}
		if d := m.doc; s.liveAt(d) {
			h.offer(s, d, m.score())
		}
		m.next()
	}
}
