package engine

import (
	"sort"
	"strings"
	"sync"
)

// Query suggestion: the paper's conclusion observes that per-app
// query logs become topic-specific relevance signals. Suggest powers
// the search-box autocomplete the design interface offers: prefix
// completion ranked by how often the continuation was issued, with
// the tie broken lexicographically for determinism.

// suggester maintains a prefix-count structure over logged queries.
// It is rebuilt lazily from the engine log and invalidated on write.
type suggester struct {
	mu     sync.Mutex
	counts map[string]int
	built  uint64 // log sequence number the structure was built at
}

// Suggest returns up to limit previously issued queries that extend
// prefix (case-insensitive), most frequent first. The prefix itself
// is never returned.
func (e *Engine) Suggest(prefix string, limit int) []string {
	if limit <= 0 {
		limit = 5
	}
	prefix = strings.ToLower(strings.TrimSpace(prefix))
	if prefix == "" {
		return nil
	}
	e.mu.Lock()
	if e.sugg == nil {
		e.sugg = &suggester{}
	}
	sg := e.sugg
	if sg.counts == nil || sg.built != e.seq {
		counts := make(map[string]int, len(e.queries)+len(e.clicks))
		for _, entries := range [][]loggedEntry{e.queries, e.clicks} {
			for _, entry := range entries {
				q := strings.ToLower(strings.TrimSpace(entry.Query))
				if q != "" {
					counts[q]++
				}
			}
		}
		sg.counts = counts
		sg.built = e.seq
	}
	counts := sg.counts
	e.mu.Unlock()

	type cand struct {
		q string
		n int
	}
	var cands []cand
	for q, n := range counts {
		if q != prefix && strings.HasPrefix(q, prefix) {
			cands = append(cands, cand{q, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
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
