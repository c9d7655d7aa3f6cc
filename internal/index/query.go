package index

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
)

// Query is the interface implemented by all query node types. A query
// evaluates to a set of matching ordinals with scores; composition is
// by the usual boolean operators.
type Query interface {
	// eval scores this node's live matches in s into out, which the
	// caller supplies zeroed and sized to the shard's ordinal space.
	// Corpus-wide statistics come from st.
	eval(s *shard, st *searchStats, out *accum)
}

// MatchQuery analyzes Text with each field's analyzer and matches
// documents containing any resulting term (disjunctive max across
// fields, sum across terms) — the standard free-text search box query.
type MatchQuery struct {
	// Fields to search. Empty means all indexed fields.
	Fields []string
	Text   string
	// Operator "and" requires every analyzed term to appear (in any of
	// the fields); the default "or" requires at least one.
	Operator string
}

// TermQuery matches documents whose field contains the exact analyzed
// term.
type TermQuery struct {
	Field string
	Term  string
}

// PhraseQuery matches documents where the analyzed terms of Text occur
// at consecutive positions in Field.
type PhraseQuery struct {
	Field string
	Text  string
}

// PrefixQuery matches documents whose field has a term with the given
// prefix (post-analysis). Used by suggestion features.
type PrefixQuery struct {
	Field  string
	Prefix string
}

// BoolQuery combines sub-queries: all Must match (scores summed), at
// least one Should matches if any are present (scores added), none of
// MustNot may match.
type BoolQuery struct {
	Must    []Query
	Should  []Query
	MustNot []Query
}

// AllQuery matches every live document with score 1. It is the primary
// query for browse-style applications with filters only.
type AllQuery struct{}

// Result is one search hit.
type Result struct {
	ID     string
	Score  float64
	Stored map[string]string
	// Snippet holds a highlighted fragment when SearchOptions.Snippet
	// was requested.
	Snippet string
}

// SearchOptions controls Search behaviour.
type SearchOptions struct {
	Limit  int
	Offset int
	// SnippetField, when non-empty, generates a highlighted snippet
	// from that field for each hit using the query's match terms.
	SnippetField string
}

// SearchContext evaluates q and returns ranked results. Evaluation
// runs in two phases: corpus statistics are aggregated across shards
// (one shard lock at a time), then every shard evaluates the query in
// its own goroutine and the ranked partials are k-way merged. Ties
// break on ascending ID, so ordering is deterministic for any shard
// count. The ring is loaded once, so statistics and evaluation see
// one consistent shard layout even while a reshard rebuilds.
//
// Cancelling ctx stops evaluation within one posting block per shard
// and returns ctx.Err(); partial results are discarded, never
// returned.
func (ix *Index) SearchContext(ctx context.Context, q Query, opts SearchOptions) ([]Result, error) {
	if q == nil {
		q = AllQuery{}
	}
	return serpAnswers.read(ctx, ix, q,
		func() (string, bool) { return serpKey(q, opts) },
		func(r *ring, st *searchStats) ([]Result, error) { return ix.searchWith(ctx, r, st, q, opts) })
}

func (ix *Index) searchWith(ctx context.Context, r *ring, st *searchStats, q Query, opts SearchOptions) ([]Result, error) {
	defer putSearchStats(st)
	// A page that starts at or past the last live document is empty
	// whatever matches: answer it without evaluating. Past this point
	// a huge offset would make the top-k heap too deep to ever fill,
	// so every shard would rank and decode every match.
	if opts.Offset > 0 && opts.Offset >= r.live() {
		return nil, nil
	}
	want := 0
	if opts.Limit > 0 {
		want = satAdd(opts.Offset, opts.Limit)
	}
	parts := partsPool.get(len(r.shards))
	defer func() {
		for _, p := range parts {
			putShardHits(p)
		}
		partsPool.put(parts)
	}()
	// The generation stamp catches a stale task reference outliving its
	// query (see scratch.go): runShards joins before returning, so the
	// check can only fail if that contract is broken — in which case
	// skipping the shard is the safe failure.
	gen := st.gen.Load()
	ix.runShards(st, r, func(i int, s *shard) {
		if st.gen.Load() != gen {
			return
		}
		parts[i] = s.search(ctx, q, st, want)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := mergeHits(parts, want)
	defer mergedPool.put(merged)
	page := merged
	if opts.Offset > 0 {
		if opts.Offset >= len(page) {
			return nil, nil
		}
		page = page[opts.Offset:]
	}
	if opts.Limit > 0 && len(page) > opts.Limit {
		page = page[:opts.Limit]
	}
	hits := slices.Clone(page)
	if opts.SnippetField != "" {
		// The index keeps no field text: a snippet is cut from the
		// hit's own Stored value of the field.
		terms := ix.queryTerms(q, opts.SnippetField)
		for i := range hits {
			hits[i].Snippet = makeSnippet(hits[i].Stored[opts.SnippetField], terms, 160)
		}
	}
	return hits, nil
}

// satAdd is a + b for non-negative operands, saturating at
// math.MaxInt: a page reaching past every possible hit asks for all of
// them, never for a wrapped, non-positive count that would mean "no
// limit".
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// CountContext returns how many live documents match q, honoring ctx
// like SearchContext.
func (ix *Index) CountContext(ctx context.Context, q Query) (int, error) {
	if q == nil {
		q = AllQuery{}
	}
	return countAnswers.read(ctx, ix, q,
		func() (string, bool) { return countKey(q) },
		func(r *ring, st *searchStats) (int, error) { return ix.countWith(ctx, r, st, q) })
}

func (ix *Index) countWith(ctx context.Context, r *ring, st *searchStats, q Query) (int, error) {
	defer putSearchStats(st)
	counts := countsPool.get(len(r.shards))
	defer countsPool.put(counts)
	gen := st.gen.Load()
	ix.runShards(st, r, func(i int, s *shard) {
		if st.gen.Load() != gen {
			return
		}
		counts[i] = s.count(ctx, q, st)
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	return n, nil
}

func (AllQuery) eval(s *shard, st *searchStats, out *accum) {
	n := 0
	nDocs := s.numDocs()
	for ord := 0; ord < nDocs; ord++ {
		if n++; n&(cancelStride-1) == 0 && st.canceled() {
			return
		}
		if s.liveAt(ord) {
			out.scores[ord] = 1
			out.seen[ord] = true
		}
	}
}

func (q TermQuery) eval(s *shard, st *searchStats, out *accum) {
	fp := s.fields[q.Field]
	if fp == nil {
		return
	}
	terms := st.analyzedTerms(fp, q.Field, q.Term)
	if len(terms) == 0 {
		return
	}
	s.scoreTermInto(fp, q.Field, terms[0], st, out, false)
}

func (q MatchQuery) eval(s *shard, st *searchStats, out *accum) {
	fields := st.fieldsOf(q.Fields)
	if fields == nil {
		// Stats built without this query in scope (defensive; every
		// public path runs collectTerms first): fall back to the
		// per-shard field expansion.
		fields = make([]string, 0, len(s.fields))
		for f := range s.fields {
			fields = append(fields, f)
		}
		sort.Strings(fields)
	}
	// Terms may analyze differently per field; evaluate per raw token
	// (union keyed by pre-analysis text) so "and" semantics can
	// require each term somewhere, taking the max across fields.
	rawTerms := st.rawTokens(q.Text)
	if len(rawTerms) == 0 {
		return
	}
	and := strings.EqualFold(q.Operator, "and")
	var tmp *accum
	for i, raw := range rawTerms {
		dst := out
		if i > 0 {
			if tmp == nil {
				tmp = getAccum(s.numDocs())
			} else {
				tmp.clear()
			}
			dst = tmp
		}
		for _, field := range fields {
			fp := s.fields[field]
			if fp == nil {
				continue
			}
			for _, t := range st.analyzedTerms(fp, field, raw) {
				s.scoreTermInto(fp, field, t, st, dst, true)
			}
		}
		if i == 0 {
			continue
		}
		if and {
			out.intersectAdd(tmp)
		} else {
			out.unionAdd(tmp)
		}
	}
	if tmp != nil {
		putAccum(tmp)
	}
}

func (q PhraseQuery) eval(s *shard, st *searchStats, out *accum) {
	fp := s.fields[q.Field]
	if fp == nil {
		return
	}
	toks := st.analyzedToks(fp, q.Field, q.Text)
	if len(toks) == 0 {
		return
	}
	if len(toks) == 1 {
		s.scoreTermInto(fp, q.Field, toks[0].Term, st, out, false)
		return
	}
	// Gather positions per doc for each term, honoring the analyzed
	// position gaps (stopword holes count). Only this query type pays
	// for position decoding — and only for candidate blocks: after the
	// anchor term fixes the candidate set, later terms seek their doc
	// cursors block-to-block and jump the position stream to each
	// block's posOff anchor, never length-walking non-candidate
	// blocks' positions.
	base := toks[0].Position
	first := fp.lookup(toks[0].Term)
	if first == nil {
		return
	}
	var cnt scanCounters
	defer func() {
		s.ix.scanScored.Add(cnt.scored)
		s.ix.scanSkipped.Add(cnt.skipped)
	}()
	type phraseCand struct {
		ord    int
		starts []int
	}
	cand := make([]phraseCand, 0, first.n) // ascending ord, surviving start positions
	cur := newMemberCursor(first, fp, termScorer{}, &cnt)
	nc := 0
	for !cur.done {
		if nc++; nc&(cancelStride-1) == 0 && st.canceled() {
			return
		}
		if s.liveAt(cur.doc) {
			cand = append(cand, phraseCand{ord: cur.doc, starts: cur.readPositions(nil)})
		}
		cur.next()
	}
	var scratch []int
	for _, tok := range toks[1:] {
		gap := tok.Position - base
		list := fp.lookup(tok.Term)
		if list == nil {
			return
		}
		cur := newMemberCursor(list, fp, termScorer{}, &cnt)
		kept := cand[:0]
		for _, c := range cand {
			if nc++; nc&(cancelStride-1) == 0 && st.canceled() {
				return
			}
			cur.seekGE(c.ord)
			if cur.doc != c.ord {
				continue
			}
			scratch = cur.readPositions(scratch)
			// Both position runs ascend, so a two-pointer sweep
			// replaces the per-doc position set of the old evaluator.
			surv := c.starts[:0]
			j := 0
			for _, start := range c.starts {
				wantPos := start + gap
				for j < len(scratch) && scratch[j] < wantPos {
					j++
				}
				if j < len(scratch) && scratch[j] == wantPos {
					surv = append(surv, start)
				}
			}
			if len(surv) > 0 {
				kept = append(kept, phraseCand{ord: c.ord, starts: surv})
			}
		}
		cand = kept
		if len(cand) == 0 {
			return
		}
	}
	// One scorer for the anchor term; per candidate only the (tf,
	// docLen) lookup and the formula itself run.
	sc, ok := s.scorerFor(fp, q.Field, toks[0].Term, st)
	if !ok {
		return
	}
	for _, c := range cand {
		var base float64
		if tf, ok := first.tfAt(c.ord); ok {
			base = sc.score(float64(tf), fp.lenAt(c.ord))
		}
		out.scores[c.ord] = base * (1 + 0.5*float64(len(c.starts)))
		out.seen[c.ord] = true
	}
}

func (q PrefixQuery) eval(s *shard, st *searchStats, out *accum) {
	fp := s.fields[q.Field]
	if fp == nil {
		return
	}
	prefix := strings.ToLower(q.Prefix)
	// The sorted term dictionary turns the full term-map scan of the
	// old evaluator into a binary-search range scan.
	dict := fp.sortedTermsAll()
	i := sort.SearchStrings(dict, prefix)
	n := 0
	for ; i < len(dict) && strings.HasPrefix(dict[i], prefix); i++ {
		list := fp.lookup(dict[i])
		if list == nil {
			continue
		}
		it := list.iter()
		for it.next() {
			if n++; n&(cancelStride-1) == 0 && st.canceled() {
				return
			}
			if s.liveAt(it.doc) {
				out.add(it.doc, 1)
			}
		}
	}
}

func (q BoolQuery) eval(s *shard, st *searchStats, out *accum) {
	n := s.numDocs()
	if len(q.Must) > 0 {
		q.Must[0].eval(s, st, out)
		if len(q.Must) > 1 {
			tmp := getAccum(n)
			for i, sub := range q.Must[1:] {
				if i > 0 {
					tmp.clear()
				}
				sub.eval(s, st, tmp)
				out.intersectAdd(tmp)
			}
			putAccum(tmp)
		}
	} else {
		// No Must: start from every live doc at score 0 (browse base).
		for ord := 0; ord < n; ord++ {
			if s.liveAt(ord) {
				out.seen[ord] = true
			}
		}
	}
	if len(q.Should) > 0 {
		any := getAccum(n)
		tmp := getAccum(n)
		for i, sub := range q.Should {
			if i > 0 {
				tmp.clear()
			}
			sub.eval(s, st, tmp)
			any.unionAdd(tmp)
		}
		if len(q.Must) == 0 {
			// Pure should: must match at least one.
			out.gate(any)
		} else {
			out.addSeen(any)
		}
		putAccum(tmp)
		putAccum(any)
	}
	if len(q.MustNot) > 0 {
		tmp := getAccum(n)
		for i, sub := range q.MustNot {
			if i > 0 {
				tmp.clear()
			}
			sub.eval(s, st, tmp)
			out.subtract(tmp)
		}
		putAccum(tmp)
	}
}

// queryTerms extracts the raw match terms a query would highlight in
// the given field, analyzed with the field's registered analyzer.
func (ix *Index) queryTerms(q Query, field string) []string {
	opts, ok := ix.fieldOpts(field)
	if !ok {
		return nil
	}
	an := opts.Analyzer
	var out []string
	var walk func(Query)
	walk = func(q Query) {
		switch t := q.(type) {
		case MatchQuery:
			out = append(out, an.AnalyzeTerms(t.Text)...)
		case TermQuery:
			out = append(out, an.AnalyzeTerms(t.Term)...)
		case PhraseQuery:
			out = append(out, an.AnalyzeTerms(t.Text)...)
		case PrefixQuery:
			out = append(out, strings.ToLower(t.Prefix))
		case BoolQuery:
			for _, sub := range t.Must {
				walk(sub)
			}
			for _, sub := range t.Should {
				walk(sub)
			}
		}
	}
	walk(q)
	return out
}
