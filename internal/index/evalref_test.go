package index

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file keeps the pre-iterator, map-based query evaluator alive
// as a test-only reference. It reproduces the old evaluation pipeline
// — one map[int]float64 per query node, full sort of every match in
// shard.search — on top of the block-compressed posting storage, so
// TestEvalEquivalence can pin the production iterator/accumulator
// pipeline bit-identical to it: same scores (float equality, not
// tolerance), same ordering, for every query type and shard count.

// refSearch is the old Index.Search: reference evaluation per shard,
// full sort, k-way merge, pagination.
func refSearch(ix *Index, q Query, opts SearchOptions) []Result {
	if q == nil {
		q = AllQuery{}
	}
	r := ix.ring.Load()
	st := ix.gatherStats(context.Background(), r, nil, ix.stampFor(r), q)
	want := 0
	if opts.Limit > 0 {
		want = opts.Offset + opts.Limit
	}
	parts := make([][]Result, len(r.shards))
	eachShard(r, func(i int, s *shard) {
		parts[i] = refSearchShard(s, q, st, want)
	})
	merged := mergeHits(parts, want)
	if opts.Offset > 0 {
		if opts.Offset >= len(merged) {
			return nil
		}
		merged = merged[opts.Offset:]
	}
	if opts.Limit > 0 && len(merged) > opts.Limit {
		merged = merged[:opts.Limit]
	}
	return slices.Clone(merged)
}

func refCount(ix *Index, q Query) int {
	if q == nil {
		q = AllQuery{}
	}
	r := ix.ring.Load()
	st := ix.gatherStats(context.Background(), r, nil, ix.stampFor(r), q)
	n := 0
	for _, s := range r.shards {
		s.mu.RLock()
		for ord := range refEval(q, s, st) {
			if s.docAt(ord).ID != "" {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

func refFacets(ix *Index, q Query, field string) []FacetCount {
	if q == nil {
		q = AllQuery{}
	}
	r := ix.ring.Load()
	st := ix.gatherStats(context.Background(), r, nil, ix.stampFor(r), q)
	parts := make([]map[string]int, 0, len(r.shards))
	for _, s := range r.shards {
		s.mu.RLock()
		counts := make(map[string]int)
		for ord := range refEval(q, s, st) {
			doc := s.docAt(ord)
			if doc.ID == "" {
				continue
			}
			if v := doc.Stored[field]; v != "" {
				counts[v]++
			}
		}
		s.mu.RUnlock()
		parts = append(parts, counts)
	}
	return mergeFacets(parts)
}

// refSearchShard is the old shard.search: score everything, sort
// everything, truncate.
func refSearchShard(s *shard, q Query, st *searchStats, cap int) []Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	scores := refEval(q, s, st)
	hits := make([]Result, 0, len(scores))
	for ord, score := range scores {
		doc := s.docAt(ord)
		if doc.ID == "" {
			continue
		}
		hits = append(hits, Result{ID: doc.ID, Score: score, Stored: doc.Stored})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if cap > 0 && len(hits) > cap {
		hits = hits[:cap]
	}
	return hits
}

// refEval dispatches to the old per-node map evaluators.
func refEval(q Query, s *shard, st *searchStats) map[int]float64 {
	switch t := q.(type) {
	case AllQuery:
		return refEvalAll(s)
	case TermQuery:
		return refEvalTerm(t, s, st)
	case MatchQuery:
		return refEvalMatch(t, s, st)
	case PhraseQuery:
		return refEvalPhrase(t, s, st)
	case PrefixQuery:
		return refEvalPrefix(t, s)
	case BoolQuery:
		return refEvalBool(t, s, st)
	}
	return nil
}

func refEvalAll(s *shard) map[int]float64 {
	out := make(map[int]float64, s.live)
	for ord, n := 0, s.numDocs(); ord < n; ord++ {
		if s.liveAt(ord) {
			out[ord] = 1
		}
	}
	return out
}

// refScoreTerm is the old shard.scoreTerm: materialize a score map
// for every live doc in the posting list.
func refScoreTerm(s *shard, field, term string, st *searchStats) map[int]float64 {
	fp := s.fields[field]
	if fp == nil {
		return nil
	}
	list := fp.lookup(term)
	if list == nil || list.n == 0 {
		return nil
	}
	df := st.df[fieldTerm{field, term}]
	if df == 0 {
		return nil
	}
	idf := math.Log(1 + (float64(st.live)-float64(df)+0.5)/(float64(df)+0.5))
	avgLen := st.avgLen[field]
	if avgLen == 0 {
		avgLen = 1
	}
	boost := fp.opts.Boost
	if boost == 0 {
		boost = 1
	}
	out := make(map[int]float64, list.n)
	it := list.iter()
	for it.next() {
		if !s.liveAt(it.doc) {
			continue
		}
		tf := float64(it.tf)
		var score float64
		switch st.ranker {
		case RankerTFIDF:
			score = (1 + math.Log(tf)) * math.Log(float64(st.live+1)/float64(df))
		default: // BM25
			dl := float64(fp.lenAt(it.doc))
			denom := tf + st.k1*(1-st.b+st.b*dl/avgLen)
			score = idf * (tf * (st.k1 + 1)) / denom
		}
		out[it.doc] = boost * score
	}
	return out
}

func refEvalTerm(q TermQuery, s *shard, st *searchStats) map[int]float64 {
	fp := s.fields[q.Field]
	if fp == nil {
		return nil
	}
	terms := st.analyzedTerms(fp, q.Field, q.Term)
	if len(terms) == 0 {
		return nil
	}
	return refScoreTerm(s, q.Field, terms[0], st)
}

func refEvalMatch(q MatchQuery, s *shard, st *searchStats) map[int]float64 {
	fields := q.Fields
	if len(fields) == 0 {
		for f := range s.fields {
			fields = append(fields, f)
		}
		sort.Strings(fields)
	}
	type termScores = map[int]float64
	var perTerm []termScores
	rawTerms := strings.Fields(strings.ToLower(q.Text))
	if len(rawTerms) == 0 {
		return nil
	}
	for _, raw := range rawTerms {
		acc := make(termScores)
		for _, field := range fields {
			fp := s.fields[field]
			if fp == nil {
				continue
			}
			for _, t := range st.analyzedTerms(fp, field, raw) {
				for ord, sc := range refScoreTerm(s, field, t, st) {
					if sc > acc[ord] {
						acc[ord] = sc // max across fields
					}
				}
			}
		}
		perTerm = append(perTerm, acc)
	}
	out := make(map[int]float64)
	if strings.EqualFold(q.Operator, "and") {
		first := perTerm[0]
	outer:
		for ord, sc := range first {
			total := sc
			for _, ts := range perTerm[1:] {
				s2, ok := ts[ord]
				if !ok {
					continue outer
				}
				total += s2
			}
			out[ord] = total
		}
		return out
	}
	for _, ts := range perTerm {
		for ord, sc := range ts {
			out[ord] += sc
		}
	}
	return out
}

func refEvalPhrase(q PhraseQuery, s *shard, st *searchStats) map[int]float64 {
	fp := s.fields[q.Field]
	if fp == nil {
		return nil
	}
	toks := st.analyzedToks(fp, q.Field, q.Text)
	if len(toks) == 0 {
		return nil
	}
	if len(toks) == 1 {
		return refScoreTerm(s, q.Field, toks[0].Term, st)
	}
	// decodePostings inflates a compressed list back to the old
	// in-memory shape: (doc, positions) pairs.
	decodePostings := func(list *postingList) map[int][]int {
		out := make(map[int][]int)
		if list == nil {
			return out
		}
		it := list.iter()
		pi := list.positions()
		for it.next() {
			out[it.doc] = pi.read(it.tf, nil)
		}
		return out
	}
	base := toks[0].Position
	cand := make(map[int][]int)
	for doc, positions := range decodePostings(fp.lookup(toks[0].Term)) {
		if s.liveAt(doc) {
			cand[doc] = positions
		}
	}
	for _, tok := range toks[1:] {
		gap := tok.Position - base
		next := make(map[int][]int)
		for doc, positions := range decodePostings(fp.lookup(tok.Term)) {
			starts, ok := cand[doc]
			if !ok {
				continue
			}
			posSet := make(map[int]bool, len(positions))
			for _, pos := range positions {
				posSet[pos] = true
			}
			var kept []int
			for _, start := range starts {
				if posSet[start+gap] {
					kept = append(kept, start)
				}
			}
			if len(kept) > 0 {
				next[doc] = kept
			}
		}
		cand = next
		if len(cand) == 0 {
			return nil
		}
	}
	out := make(map[int]float64, len(cand))
	for ord, starts := range cand {
		base := refScoreTerm(s, q.Field, toks[0].Term, st)[ord]
		out[ord] = base * (1 + 0.5*float64(len(starts)))
	}
	return out
}

func refEvalPrefix(q PrefixQuery, s *shard) map[int]float64 {
	fp := s.fields[q.Field]
	if fp == nil {
		return nil
	}
	prefix := strings.ToLower(q.Prefix)
	out := make(map[int]float64)
	for _, term := range fp.sortedTermsAll() {
		if !strings.HasPrefix(term, prefix) {
			continue
		}
		list := fp.lookup(term)
		if list == nil {
			continue
		}
		it := list.iter()
		for it.next() {
			if s.liveAt(it.doc) {
				out[it.doc] += 1
			}
		}
	}
	return out
}

func refEvalBool(q BoolQuery, s *shard, st *searchStats) map[int]float64 {
	var out map[int]float64
	if len(q.Must) > 0 {
		out = refEval(q.Must[0], s, st)
		for _, sub := range q.Must[1:] {
			s2 := refEval(sub, s, st)
			merged := make(map[int]float64)
			for ord, sc := range out {
				if extra, ok := s2[ord]; ok {
					merged[ord] = sc + extra
				}
			}
			out = merged
		}
	} else {
		out = refEvalAll(s)
		for ord := range out {
			out[ord] = 0
		}
	}
	if len(q.Should) > 0 {
		any := make(map[int]float64)
		for _, sub := range q.Should {
			for ord, sc := range refEval(sub, s, st) {
				any[ord] += sc
			}
		}
		if len(q.Must) == 0 {
			merged := make(map[int]float64)
			for ord, sc := range any {
				if _, ok := out[ord]; ok {
					merged[ord] = sc
				}
			}
			out = merged
		} else {
			for ord := range out {
				out[ord] += any[ord]
			}
		}
	}
	for _, sub := range q.MustNot {
		for ord := range refEval(sub, s, st) {
			delete(out, ord)
		}
	}
	return out
}
