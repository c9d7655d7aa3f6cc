package engine

import (
	"sort"
	"strings"

	"repro/internal/textproc"
)

// RelatedQueries returns queries from the log that share analyzed
// terms with q, ranked by (shared terms, frequency) — the "related
// searches" strip a hosted application can show under its results,
// another use of the per-application usage data the paper's
// conclusion highlights.
func (e *Engine) RelatedQueries(q string, limit int) []string {
	if limit <= 0 {
		limit = 5
	}
	qTerms := map[string]bool{}
	for _, t := range textproc.DefaultAnalyzer.AnalyzeTerms(q) {
		qTerms[t] = true
	}
	if len(qTerms) == 0 {
		return nil
	}
	norm := strings.ToLower(strings.TrimSpace(q))

	e.mu.Lock()
	freq := make(map[string]int)
	for _, entries := range [][]loggedEntry{e.queries, e.clicks} {
		for _, entry := range entries {
			lq := strings.ToLower(strings.TrimSpace(entry.Query))
			if lq != "" && lq != norm {
				freq[lq]++
			}
		}
	}
	e.mu.Unlock()

	type cand struct {
		q       string
		overlap int
		n       int
	}
	var cands []cand
	for lq, n := range freq {
		overlap := 0
		for _, t := range textproc.DefaultAnalyzer.AnalyzeTerms(lq) {
			if qTerms[t] {
				overlap++
			}
		}
		if overlap > 0 {
			cands = append(cands, cand{lq, overlap, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].overlap != cands[j].overlap {
			return cands[i].overlap > cands[j].overlap
		}
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].q < cands[j].q
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.q
	}
	return out
}
