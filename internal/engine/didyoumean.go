package engine

import (
	"strings"

	"repro/internal/webcorpus"
)

// DidYouMean corrects a query against the web vertical's title terms:
// each token with no hits is replaced by its best spell suggestion.
// It returns the corrected query and whether anything changed, the
// "did you mean" line a hosted application shows above empty results.
// The first call indexes the web vertical if nothing has read it yet.
func (e *Engine) DidYouMean(query string) (string, bool) {
	ix := e.index(webcorpus.VerticalWeb)
	words := strings.Fields(query)
	changed := false
	for i, w := range words {
		sugs := ix.SuggestTerms("title", w, 1)
		if len(sugs) > 0 {
			words[i] = sugs[0]
			changed = true
		}
	}
	if !changed {
		return query, false
	}
	return strings.Join(words, " "), true
}
