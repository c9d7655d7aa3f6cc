package index

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"sync"
)

// Block-max early exit: a document-at-a-time top-k evaluator that
// skips whole posting blocks whose score upper bound cannot beat the
// bounded heap's running threshold (Block-Max WAND). It is an
// alternative execution strategy for the accumulator evaluator in
// query.go, used only when a query is "streamable" — expressible as
// ordered term cursors — and the caller wants a top-k (k > 0; counts
// and facets need every match and keep the accumulator path).
//
// The contract is bit-identical rankings: for every candidate the
// score is assembled with exactly the accumulator path's float
// operation order (per-raw-term group max across fields, terms and
// bool entries summed left-to-right, Should totals folded in as one
// addition), and a document is only ever skipped when its upper bound
// is strictly below the heap threshold — a bound that also caps the
// true score, so the skipped document would have been rejected by the
// same heap comparison the accumulator path applies. Upper bounds are
// inflated by ubMargin so float rounding differences between the
// bound expression and the real scoring expression can never flip a
// skip decision the wrong way.

// ubMargin inflates every upper bound. The bound and the score
// evaluate the same monotone formula through different float paths;
// their divergence is a few ulps (~1e-16 relative), so a 1e-9 margin
// is six orders of magnitude of headroom and costs only a marginally
// conservative skip at the threshold boundary.
const ubMargin = 1 + 1e-9

// wandArena recycles every transient the plan builder creates for one
// shard evaluation: the cursor/group/entry objects and the small
// pointer slices that link them. Objects live in slab-of-pointer
// free-lists reused by index; link slices are carved off append-only
// slabs — each collection is built completely before the next starts,
// so a 3-index subslice of the slab is a stable view even if a later
// append grows the slab (the view keeps the old backing, whose
// pointers were already written and never mutate).
//
// Everything in the arena is strictly scoped to one searchTopK call:
// the only thing that escapes is the heap's hit buffer, which comes
// from shardHitsPool, not from here.
type wandArena struct {
	curs []*memberCursor
	nCur int
	grps []*planGroup
	nGrp int
	ents []*planEntry
	nEnt int

	memSlab []*memberCursor
	grpSlab []*planGroup
	entSlab []*planEntry
	byDoc   []*planEntry

	plan topkPlan
	heap topkHeap
}

var wandArenaPool = sync.Pool{New: func() any { return &wandArena{} }}

func getWandArena() *wandArena { return wandArenaPool.Get().(*wandArena) }

func putWandArena(ar *wandArena) {
	ar.nCur, ar.nGrp, ar.nEnt = 0, 0, 0
	clear(ar.memSlab)
	clear(ar.grpSlab)
	clear(ar.entSlab)
	clear(ar.byDoc)
	ar.memSlab = ar.memSlab[:0]
	ar.grpSlab = ar.grpSlab[:0]
	ar.entSlab = ar.entSlab[:0]
	ar.byDoc = ar.byDoc[:0]
	ar.plan = topkPlan{}
	ar.heap = topkHeap{}
	wandArenaPool.Put(ar)
}

// cursor returns a reset memberCursor from the object slab, keeping
// its ubMemo capacity.
func (ar *wandArena) cursor() *memberCursor {
	if ar.nCur == len(ar.curs) {
		ar.curs = append(ar.curs, new(memberCursor))
	}
	m := ar.curs[ar.nCur]
	ar.nCur++
	memo := m.ubMemo
	*m = memberCursor{ubMemo: memo[:0]}
	return m
}

func (ar *wandArena) group() *planGroup {
	if ar.nGrp == len(ar.grps) {
		ar.grps = append(ar.grps, new(planGroup))
	}
	g := ar.grps[ar.nGrp]
	ar.nGrp++
	*g = planGroup{}
	return g
}

func (ar *wandArena) entry() *planEntry {
	if ar.nEnt == len(ar.ents) {
		ar.ents = append(ar.ents, new(planEntry))
	}
	e := ar.ents[ar.nEnt]
	ar.nEnt++
	*e = planEntry{}
	return e
}

// oneGroup carves a single-element group list off the link slab.
func (ar *wandArena) oneGroup(g *planGroup) []*planGroup {
	start := len(ar.grpSlab)
	ar.grpSlab = append(ar.grpSlab, g)
	return ar.grpSlab[start:len(ar.grpSlab):len(ar.grpSlab)]
}

// oneEntry carves a single-element entry list off the link slab.
func (ar *wandArena) oneEntry(e *planEntry) []*planEntry {
	start := len(ar.entSlab)
	ar.entSlab = append(ar.entSlab, e)
	return ar.entSlab[start:len(ar.entSlab):len(ar.entSlab)]
}

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

func (ar *wandArena) newMemberCursor(list *postingList, fp *fieldPostings, sc termScorer, cnt *scanCounters) *memberCursor {
	m := ar.cursor()
	m.list, m.fp, m.sc, m.cnt = list, fp, sc, cnt
	m.posBlk = -1
	m.ub = sc.upperBound(list.maxTF, fp.minLen)
	m.next()
	return m
}

// newMemberCursor is the arena-free constructor for paths outside
// searchTopK (phrase evaluation walks cursors but builds no plan).
func newMemberCursor(list *postingList, fp *fieldPostings, sc termScorer, cnt *scanCounters) *memberCursor {
	m := &memberCursor{list: list, fp: fp, sc: sc, cnt: cnt, posBlk: -1}
	m.ub = sc.upperBound(list.maxTF, fp.minLen)
	m.next()
	return m
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
	delta, n := binary.Uvarint(m.list.docTF[m.off:])
	m.off += n
	m.doc += int(delta)
	tf, n := binary.Uvarint(m.list.docTF[m.off:])
	m.off += n
	m.tf = int(tf)
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
// The memo buffer is arena-recycled, so a too-short one is re-extended
// (and cleared of the previous list's values) on first use.
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

// blockUB returns an inflated upper bound on this member's score for
// any document inside its current block.
func (m *memberCursor) blockUB() float64 {
	if m.done {
		return 0
	}
	return m.ubFor(m.list.blocks[m.blk].maxTF)
}

// ffwd fast-forwards the cursor past every upcoming block whose bound
// plus base (the caller's Should-entry bound, added with the exact
// float op order the generic skip branch uses) stays below theta. The
// scan touches only block metadata — no posting decodes, no repeated
// pivot machinery — which is what keeps a long single-term list
// sublinear: the per-hop cost is one memoized bound compare.
// The caller has already rejected the current block.
func (m *memberCursor) ffwd(theta, base float64) {
	b := m.blk + 1
	for b < len(m.list.blocks) && base+m.ubFor(m.list.blocks[b].maxTF) < theta {
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

// planGroup is the cursor form of one raw query term: every (field,
// analyzed term) member it expands to in this shard. Its score at a
// document is the max over members present there — the accumulator
// path's mergeMax across fields, which is order-independent and
// float-exact.
type planGroup struct {
	members []*memberCursor
	ub      float64 // max member ub
	doc     int     // min member doc; docSentinel when all exhausted
}

func (ar *wandArena) newPlanGroup(members []*memberCursor) *planGroup {
	g := ar.group()
	g.members = members
	for _, m := range members {
		if m.ub > g.ub {
			g.ub = m.ub
		}
	}
	g.updateDoc()
	return g
}

func (g *planGroup) updateDoc() {
	d := docSentinel
	for _, m := range g.members {
		if m.doc < d {
			d = m.doc
		}
	}
	g.doc = d
}

func (g *planGroup) seekGE(target int) {
	if g.doc >= target {
		return
	}
	for _, m := range g.members {
		m.seekGE(target)
	}
	g.updateDoc()
}

// scoreAt returns the group's contribution at d == g.doc.
func (g *planGroup) scoreAt(d int) float64 {
	best := 0.0
	for _, m := range g.members {
		if m.doc == d {
			if v := m.score(); v > best {
				best = v
			}
		}
	}
	return best
}

// blockBound returns an upper bound on the group's contribution to
// any document in [g.doc, end]: each member's posting in that range
// lies inside the member's current block (end is the minimum of the
// members' current-block last ordinals), so the max of the members'
// block bounds dominates.
func (g *planGroup) blockBound() (ub float64, end int) {
	end = docSentinel
	for _, m := range g.members {
		if m.done {
			continue
		}
		if u := m.blockUB(); u > ub {
			ub = u
		}
		if be := m.list.blockLastDoc(m.blk); be < end {
			end = be
		}
	}
	return ub, end
}

// planEntry is one scoring unit of a normalized query: a Must/Should
// sub-query (or a single raw term promoted to a unit). conj entries
// require every group (match "and"); disjunctive entries require at
// least one. An entry's total at a document is its groups' ordered
// float sum — computed locally, exactly as the accumulator path sums
// each sub-query into its own scratch accumulator before combining.
type planEntry struct {
	conj   bool
	groups []*planGroup
	ub     float64 // ordered float sum of group ubs
	doc    int     // current candidate ordinal; docSentinel when exhausted
}

func (ar *wandArena) newPlanEntry(conj bool, groups []*planGroup) *planEntry {
	e := ar.entry()
	e.conj = conj
	e.groups = groups
	for _, g := range groups {
		e.ub += g.ub
	}
	e.updateDoc()
	return e
}

func (e *planEntry) updateDoc() {
	if e.conj {
		e.alignFrom(0)
		return
	}
	d := docSentinel
	for _, g := range e.groups {
		if g.doc < d {
			d = g.doc
		}
	}
	e.doc = d
}

// alignFrom leapfrogs every group to the first common ordinal >= t.
func (e *planEntry) alignFrom(t int) {
	d := t
	for {
		changed := false
		for _, g := range e.groups {
			g.seekGE(d)
			if g.doc == docSentinel {
				e.doc = docSentinel
				return
			}
			if g.doc > d {
				d = g.doc
				changed = true
			}
		}
		if !changed {
			e.doc = d
			return
		}
	}
}

func (e *planEntry) seekGE(target int) {
	if e.doc >= target {
		return
	}
	if e.conj {
		e.alignFrom(target)
		return
	}
	for _, g := range e.groups {
		g.seekGE(target)
	}
	e.updateDoc()
}

// scoreAt returns the entry's total at d == e.doc: the ordered float
// sum over its groups present at d (for conj entries all of them),
// matching the accumulator path's left-to-right summation.
func (e *planEntry) scoreAt(d int) float64 {
	total := 0.0
	for _, g := range e.groups {
		if g.doc == d {
			total += g.scoreAt(d)
		}
	}
	return total
}

// sizeHint estimates how many documents this entry can match, for
// the density fallback in searchTopK: a conjunctive entry's
// intersection is bounded by its rarest group, a disjunctive entry's
// union reaches at least its largest. Group size is the sum of its
// member list lengths (an upper bound on the group union).
func (e *planEntry) sizeHint() int {
	best := 0
	if e.conj {
		best = math.MaxInt
	}
	for _, g := range e.groups {
		n := 0
		for _, m := range g.members {
			n += m.list.n
		}
		if e.conj {
			if n < best {
				best = n
			}
		} else if n > best {
			best = n
		}
	}
	return best
}

// blockBound returns an upper bound on the entry's contribution to
// any document in [e.doc, end], from its groups' current blocks.
func (e *planEntry) blockBound() (ub float64, end int) {
	end = docSentinel
	for _, g := range e.groups {
		u, ge := g.blockBound()
		ub += u
		if ge < end {
			end = ge
		}
	}
	return ub, end
}

// topkPlan is a query normalized to cursor form.
//
//   - drive: disjunctive scoring units; candidates are the union of
//     their documents (a plain or-match's term groups, or a pure-
//     Should bool's entries).
//   - req: conjunctive scoring units; candidates are the intersection
//     (match "and", bool Must entries). drive and req are mutually
//     exclusive.
//   - opt: additive units that never generate candidates on their own
//     (bool Should entries under a Must).
//   - not: exclusion units (bool MustNot), presence-checked only.
type topkPlan struct {
	drive []*planEntry
	req   []*planEntry
	opt   []*planEntry
	not   []*planEntry
	optUB float64 // ordered float sum of opt entry ubs
	empty bool    // streamable, but provably matches nothing in this shard
}

// buildTopkPlan normalizes q into cursor form, or reports ok=false
// when q is not streamable (phrase, prefix, all, nested bool, empty
// bool) and the accumulator path must run instead. Must be called
// with the shard read lock held.
func (s *shard) buildTopkPlan(ar *wandArena, q Query, st *searchStats, cnt *scanCounters) (*topkPlan, bool) {
	plan := &ar.plan
	*plan = topkPlan{}
	switch t := q.(type) {
	case TermQuery:
		e, ok := s.buildEntry(ar, t, st, cnt)
		if !ok {
			return nil, false
		}
		if e == nil {
			plan.empty = true
			return plan, true
		}
		plan.drive = ar.oneEntry(e)
		return plan, true
	case MatchQuery:
		e, ok := s.buildEntry(ar, t, st, cnt)
		if !ok {
			return nil, false
		}
		if e == nil {
			plan.empty = true
			return plan, true
		}
		if e.conj {
			plan.req = ar.oneEntry(e)
		} else {
			plan.drive = ar.splitGroups(e)
		}
		return plan, true
	case BoolQuery:
		if len(t.Must) == 0 && len(t.Should) == 0 {
			// Browse base (all live docs): not cursor-streamable.
			return nil, false
		}
		mustStart := len(ar.entSlab)
		for _, sub := range t.Must {
			e, ok := s.buildEntry(ar, sub, st, cnt)
			if !ok {
				return nil, false
			}
			if e == nil {
				plan.empty = true
				return plan, true
			}
			ar.entSlab = append(ar.entSlab, e)
		}
		must := ar.entSlab[mustStart:len(ar.entSlab):len(ar.entSlab)]
		shouldStart := len(ar.entSlab)
		for _, sub := range t.Should {
			e, ok := s.buildEntry(ar, sub, st, cnt)
			if !ok {
				return nil, false
			}
			if e != nil {
				ar.entSlab = append(ar.entSlab, e)
			}
		}
		should := ar.entSlab[shouldStart:len(ar.entSlab):len(ar.entSlab)]
		notStart := len(ar.entSlab)
		for _, sub := range t.MustNot {
			e, ok := s.buildEntry(ar, sub, st, cnt)
			if !ok {
				return nil, false
			}
			if e != nil {
				ar.entSlab = append(ar.entSlab, e)
			}
		}
		not := ar.entSlab[notStart:len(ar.entSlab):len(ar.entSlab)]
		plan.not = not
		if len(must) == 0 {
			// Pure Should: candidates are the union of the Should
			// entries, and the gate replaces the zero browse base with
			// the Should total — entry order preserved.
			if len(should) == 0 {
				plan.empty = true
				return plan, true
			}
			plan.drive = should
			return plan, true
		}
		plan.opt = should
		for _, e := range should {
			plan.optUB += e.ub
		}
		if len(must) == 1 && !must[0].conj {
			// A single disjunctive Must drives best as WAND over its
			// groups: same ordered sum, better pivot skipping.
			plan.drive = ar.splitGroups(must[0])
		} else {
			plan.req = must
		}
		return plan, true
	default:
		return nil, false
	}
}

// splitGroups promotes each group of a disjunctive entry to its own
// single-group entry so the WAND pivot can reason per group. The
// ordered sum over the split entries equals the original entry total.
func (ar *wandArena) splitGroups(e *planEntry) []*planEntry {
	start := len(ar.entSlab)
	for _, g := range e.groups {
		ar.entSlab = append(ar.entSlab, ar.newPlanEntry(false, ar.oneGroup(g)))
	}
	return ar.entSlab[start:len(ar.entSlab):len(ar.entSlab)]
}

// buildEntry converts one streamable sub-query (Term or Match) to an
// entry. A nil entry with ok=true means the sub-query provably
// matches nothing in this shard (unknown field, term absent, a
// required term missing locally).
func (s *shard) buildEntry(ar *wandArena, q Query, st *searchStats, cnt *scanCounters) (*planEntry, bool) {
	switch t := q.(type) {
	case TermQuery:
		fp := s.fields[t.Field]
		if fp == nil {
			return nil, true
		}
		terms := st.analyzedTerms(fp, t.Field, t.Term)
		if len(terms) == 0 {
			return nil, true
		}
		start := len(ar.memSlab)
		ar.appendMember(s, fp, t.Field, terms[0], st, cnt)
		members := ar.memSlab[start:len(ar.memSlab):len(ar.memSlab)]
		if len(members) == 0 {
			return nil, true
		}
		return ar.newPlanEntry(false, ar.oneGroup(ar.newPlanGroup(members))), true
	case MatchQuery:
		fields := st.fieldsOf(t.Fields)
		if fields == nil {
			// Off the public query paths collectTerms never primed the
			// field memo; derive the shard-local list as before.
			fields = make([]string, 0, len(s.fields))
			for f := range s.fields {
				fields = append(fields, f)
			}
			sort.Strings(fields)
		}
		rawTerms := st.rawTokens(t.Text)
		if len(rawTerms) == 0 {
			return nil, true
		}
		and := strings.EqualFold(t.Operator, "and")
		start := len(ar.grpSlab)
		for _, raw := range rawTerms {
			g := s.buildRawGroup(ar, st, fields, raw, cnt)
			if g == nil {
				if and {
					// A required term with no postings here empties the
					// intersection for the whole shard.
					return nil, true
				}
				continue
			}
			ar.grpSlab = append(ar.grpSlab, g)
		}
		groups := ar.grpSlab[start:len(ar.grpSlab):len(ar.grpSlab)]
		if len(groups) == 0 {
			return nil, true
		}
		return ar.newPlanEntry(and, groups), true
	default:
		return nil, false
	}
}

// buildRawGroup builds the member set one raw match term expands to
// across fields: each (field, analyzed term) with local postings and a
// non-zero global document frequency. nil when the term scores
// nothing in this shard.
func (s *shard) buildRawGroup(ar *wandArena, st *searchStats, fields []string, raw string, cnt *scanCounters) *planGroup {
	start := len(ar.memSlab)
	for _, field := range fields {
		fp := s.fields[field]
		if fp == nil {
			continue
		}
		for _, term := range st.analyzedTerms(fp, field, raw) {
			ar.appendMember(s, fp, field, term, st, cnt)
		}
	}
	members := ar.memSlab[start:len(ar.memSlab):len(ar.memSlab)]
	if len(members) == 0 {
		return nil
	}
	return ar.newPlanGroup(members)
}

func (ar *wandArena) appendMember(s *shard, fp *fieldPostings, field, term string, st *searchStats, cnt *scanCounters) {
	list := fp.lookup(term)
	if list == nil || list.n == 0 {
		return
	}
	sc, ok := s.scorerFor(fp, field, term, st)
	if !ok {
		return
	}
	ar.memSlab = append(ar.memSlab, ar.newMemberCursor(list, fp, sc, cnt))
}

// searchTopK runs the block-max evaluator for q when it is
// streamable; ok=false sends the caller to the accumulator path.
// Must be called with the shard read lock held and k > 0.
func (s *shard) searchTopK(q Query, st *searchStats, filters map[string]string, k int) ([]shardHit, bool) {
	var cnt scanCounters
	ar := getWandArena()
	defer putWandArena(ar)
	plan, ok := s.buildTopkPlan(ar, q, st, &cnt)
	if !ok {
		return nil, false
	}
	defer func() {
		s.ix.scanScored.Add(cnt.scored)
		s.ix.scanSkipped.Add(cnt.skipped)
	}()
	if plan.empty {
		return nil, true
	}
	single := len(plan.drive) == 1 && len(plan.drive[0].groups) == 1 &&
		len(plan.drive[0].groups[0].members) == 1
	if !single && !s.ix.wandDenseForce.Load() {
		// Density fallback: when even the rarest candidate-generating
		// entry averages a posting per block, no 128-ordinal gaps
		// exist for seekGE to jump and the cursor machinery decodes
		// everything the accumulator would, slower. Hand the query
		// back (results identical either way — only the evaluation
		// strategy differs). The single-cursor case is exempt: it
		// prunes on per-block maxTF variance, which needs no gaps.
		gen := plan.drive
		if len(gen) == 0 {
			gen = plan.req
		}
		minN := math.MaxInt
		for _, e := range gen {
			if n := e.sizeHint(); n < minN {
				minN = n
			}
		}
		if len(gen) > 0 && minN > s.live/postingBlockSize {
			return nil, false
		}
	}
	h := &ar.heap
	*h = topkHeap{k: k, h: getShardHits()}
	switch {
	case len(plan.drive) == 1 && len(plan.drive[0].groups) == 1 && len(plan.drive[0].groups[0].members) == 1:
		s.wandSingle(plan, st, h, filters)
	case len(plan.drive) > 0:
		s.wandDisjunctive(ar, plan, st, h, filters)
	default:
		s.wandConjunctive(plan, st, h, filters)
	}
	if st.canceled() {
		putShardHits(h.h)
		return nil, true
	}
	return h.sorted(), true
}

// excludedAt reports whether any MustNot entry matches d. Entries
// advance monotonically; candidates are visited in ascending order,
// so lazy forward seeks are sufficient.
func excludedAt(not []*planEntry, d int) bool {
	for _, e := range not {
		e.seekGE(d)
		if e.doc == d {
			return true
		}
	}
	return false
}

// scoreCandidate assembles the full score at d in the accumulator
// path's operation order: the driving/required totals summed
// left-to-right, then the Should total folded in as one addition.
func scoreCandidate(units []*planEntry, opt []*planEntry, d int) float64 {
	sc := 0.0
	for _, e := range units {
		if e.doc == d {
			sc += e.scoreAt(d)
		}
	}
	return addShould(sc, opt, d)
}

// addShould folds the Should entries' total at d into sc as one
// addition, exactly as the accumulator path combines them.
func addShould(sc float64, opt []*planEntry, d int) float64 {
	if len(opt) == 0 {
		return sc
	}
	anyTot := 0.0
	seen := false
	for _, e := range opt {
		e.seekGE(d)
		if e.doc == d {
			anyTot += e.scoreAt(d)
			seen = true
		}
	}
	if seen {
		sc += anyTot
	}
	return sc
}

// wandSingle is wandDisjunctive specialized to one driving cursor —
// the lone-term query that dominates real traffic and the classic
// block-max case. It applies the exact decision sequence the generic
// loop would (whole-list bound, block bound, per-tf bound, offer),
// with identical float expressions, but walks the cursor directly so
// each decoded posting costs two uvarints and two memoized compares
// instead of the pivot/sort machinery.
func (s *shard) wandSingle(plan *topkPlan, st *searchStats, h *topkHeap, filters map[string]string) {
	m := plan.drive[0].groups[0].members[0]
	n := 0
	for !m.done {
		if n++; n&(cancelStride-1) == 0 && st.canceled() {
			return
		}
		if h.full() {
			theta := h.threshold()
			if plan.optUB+m.ub < theta {
				// Even a maximal posting cannot place: nothing further
				// in the list can qualify.
				return
			}
			if plan.optUB+m.blockUB() < theta {
				m.ffwd(theta, plan.optUB)
				continue
			}
			if plan.optUB+m.ubFor(m.tf) < theta {
				m.next()
				continue
			}
		}
		// The entry/group wrappers are not advanced in this loop, so
		// score the member directly; a single member's contribution is
		// float-equal to the generic drive sum (0 + max(0, v) = v).
		if d := m.doc; s.liveAt(d) && !excludedAt(plan.not, d) {
			h.offer(s, d, addShould(m.score(), plan.opt, d), filters)
		}
		m.next()
	}
}

// wandDisjunctive runs WAND over the driving entries: sort by current
// ordinal, find the pivot (first prefix whose upper-bound sum reaches
// the heap threshold), and either advance the pre-pivot entries or
// evaluate the pivot document — first checking the tighter block-max
// bound, which can skip a whole aligned block range without decoding.
func (s *shard) wandDisjunctive(ar *wandArena, plan *topkPlan, st *searchStats, h *topkHeap, filters map[string]string) {
	byDoc := append(ar.byDoc[:0], plan.drive...)
	ar.byDoc = byDoc // keep the (possibly regrown) backing for reuse
	n := 0
	for {
		if n++; n&(cancelStride-1) == 0 && st.canceled() {
			return
		}
		alive := byDoc[:0]
		for _, e := range byDoc {
			if e.doc != docSentinel {
				alive = append(alive, e)
			}
		}
		byDoc = alive
		if len(byDoc) == 0 {
			return
		}
		// Between iterations only the advanced entries moved, so the
		// slice is nearly sorted; insertion sort keeps the hot loop
		// free of sort.Slice's per-call reflection allocations.
		for i := 1; i < len(byDoc); i++ {
			e := byDoc[i]
			j := i - 1
			for j >= 0 && byDoc[j].doc > e.doc {
				byDoc[j+1] = byDoc[j]
				j--
			}
			byDoc[j+1] = e
		}
		pivot := 0
		if h.full() {
			theta := h.threshold()
			acc := plan.optUB
			pivot = -1
			for i, e := range byDoc {
				acc += e.ub
				if acc >= theta {
					pivot = i
					break
				}
			}
			if pivot < 0 {
				// Even all remaining entries together stay strictly
				// below the threshold: no further doc can place.
				return
			}
		}
		pivotDoc := byDoc[pivot].doc
		if byDoc[0].doc != pivotDoc {
			// Documents before the pivot are covered only by the
			// pre-pivot prefix, whose bound sum is below the threshold
			// by pivot minimality — skip them.
			for _, e := range byDoc[:pivot] {
				e.seekGE(pivotDoc)
			}
			continue
		}
		last := pivot
		for last+1 < len(byDoc) && byDoc[last+1].doc == pivotDoc {
			last++
		}
		if h.full() {
			theta := h.threshold()
			bub := plan.optUB
			end := docSentinel
			for _, e := range byDoc[:last+1] {
				u, be := e.blockBound()
				bub += u
				if be < end {
					end = be
				}
			}
			if bub < theta {
				if len(byDoc) == 1 && len(byDoc[0].groups) == 1 && len(byDoc[0].groups[0].members) == 1 {
					// Single-cursor plan (the common lone-term query):
					// fast-forward through block metadata instead of
					// re-entering the loop once per rejected block.
					g := byDoc[0].groups[0]
					g.members[0].ffwd(theta, plan.optUB)
					g.updateDoc()
					byDoc[0].updateDoc()
					continue
				}
				// The aligned entries' current blocks cannot produce a
				// qualifying score anywhere in [pivotDoc, end]; jump
				// past the range (capped at the next entry's ordinal,
				// which the bound does not cover).
				t := end + 1
				if last+1 < len(byDoc) && byDoc[last+1].doc < t {
					t = byDoc[last+1].doc
				}
				if t <= pivotDoc {
					t = pivotDoc + 1
				}
				for _, e := range byDoc[:last+1] {
					e.seekGE(t)
				}
				continue
			}
		}
		if h.full() && last == 0 && len(byDoc[0].groups) == 1 && len(byDoc[0].groups[0].members) == 1 {
			// Single-cursor candidate: the memoized per-tf bound caps
			// the true score, so a posting whose bound stays under the
			// threshold would be rejected by the same strict heap
			// comparison — skip the doc-table and doc-length lookups.
			m := byDoc[0].groups[0].members[0]
			if plan.optUB+m.ubFor(m.tf) < h.threshold() {
				byDoc[0].seekGE(pivotDoc + 1)
				continue
			}
		}
		if s.liveAt(pivotDoc) && !excludedAt(plan.not, pivotDoc) {
			h.offer(s, pivotDoc, scoreCandidate(plan.drive, plan.opt, pivotDoc), filters)
		}
		for _, e := range byDoc[:last+1] {
			e.seekGE(pivotDoc + 1)
		}
	}
}

// wandConjunctive leapfrogs the required entries to their next common
// ordinal; at each aligned candidate the block-max bound (required
// entries' current blocks plus the Should entries' global bounds) can
// skip the whole aligned block range.
func (s *shard) wandConjunctive(plan *topkPlan, st *searchStats, h *topkHeap, filters map[string]string) {
	d := 0
	n := 0
	for {
		if n++; n&(cancelStride-1) == 0 && st.canceled() {
			return
		}
		for {
			changed := false
			for _, e := range plan.req {
				e.seekGE(d)
				if e.doc == docSentinel {
					return
				}
				if e.doc > d {
					d = e.doc
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		if h.full() {
			bub := plan.optUB
			end := docSentinel
			for _, e := range plan.req {
				u, be := e.blockBound()
				bub += u
				if be < end {
					end = be
				}
			}
			if bub < h.threshold() {
				d = end + 1
				continue
			}
		}
		if s.liveAt(d) && !excludedAt(plan.not, d) {
			h.offer(s, d, scoreCandidate(plan.req, plan.opt, d), filters)
		}
		d++
	}
}
