package index

import (
	"sync"

	"repro/internal/textproc"
)

// snippetScratch holds the per-call working set of makeSnippet so the
// hot path — one call per returned hit, dozens per query — reuses its
// buffers instead of reallocating them. The stem memo deliberately
// survives across requests: Stem is pure, so a term→stem entry never
// goes stale, and the map is size-capped so an adversarial vocabulary
// cannot grow it without bound.
// snipTok is the per-token state the window scan needs: byte offsets
// plus whether the stemmed term is a query match. Term strings are
// never materialized on this path.
type snipTok struct {
	start, end int
	match      bool
}

type snippetScratch struct {
	toks  []snipTok
	want  map[string]bool
	out   []byte
	stems map[string]string
}

const snippetStemMemoMax = 8192

var snippetPool = sync.Pool{New: func() any {
	return &snippetScratch{
		want:  make(map[string]bool, 8),
		stems: make(map[string]string, 512),
	}
}}

// matchTerm reports whether the stem of term is a wanted query term.
// The string(term) conversions inside map lookups do not allocate; the
// warm path (memo hit) is allocation-free.
func (sc *snippetScratch) matchTerm(term []byte) bool {
	if s, ok := sc.stems[string(term)]; ok {
		return sc.want[s]
	}
	t := string(term)
	s := textproc.Stem(t)
	if len(sc.stems) < snippetStemMemoMax {
		sc.stems[t] = s
	}
	return sc.want[s]
}

// makeSnippet returns a fragment of text of roughly maxLen bytes
// centered on the densest window of match terms, with matches wrapped
// in <b>...</b>. Terms are compared post-stemming so "reviews"
// highlights for query "review".
//
// It must stay byte-identical to the seed implementation, which
// snippet_test.go keeps verbatim as the oracle for
// TestMakeSnippetEquivalence: it stems each token once and slides the
// window count instead of rescanning up to 25 tokens per position.
func makeSnippet(text string, matchTerms []string, maxLen int) string {
	if text == "" {
		return ""
	}
	sc := snippetPool.Get().(*snippetScratch)
	defer snippetPool.Put(sc)
	clear(sc.want)
	for _, t := range matchTerms {
		sc.want[t] = true
	}
	toks := sc.toks[:0]
	textproc.TokenizeFunc(text, func(term []byte, _, start, end int) {
		toks = append(toks, snipTok{start, end, sc.matchTerm(term)})
	})
	sc.toks = toks
	if len(toks) == 0 {
		// Punctuation-only text: no window to center on, plain prefix.
		if maxLen < len(text) {
			return text[:maxLen] + "…"
		}
		return text
	}

	const window = 25
	// count tracks matches inside toks[i : i+window) as i advances.
	count := 0
	for j := 0; j < len(toks) && j < window; j++ {
		if toks[j].match {
			count++
		}
	}
	bestStart, bestCount := 0, -1
	for i := range toks {
		if i > 0 {
			if toks[i-1].match {
				count--
			}
			if i+window-1 < len(toks) && toks[i+window-1].match {
				count++
			}
		}
		if count > bestCount {
			bestStart, bestCount = i, count
		}
		if i > 0 && toks[i].start > maxLen && bestCount > 0 {
			break
		}
	}
	start := toks[bestStart].start
	end := len(text)
	if start+maxLen < end {
		end = start + maxLen
	}
	frag := text[start:end]

	out := sc.out[:0]
	if start > 0 {
		out = append(out, "…"...)
	}
	// Highlight matched tokens inside the fragment. The fragment is
	// re-tokenized (it is at most maxLen bytes, so this is cheap)
	// because its last token may be a truncation of a body token and
	// stem differently.
	last := 0
	textproc.TokenizeFunc(frag, func(term []byte, _, tstart, tend int) {
		if !sc.matchTerm(term) {
			return
		}
		out = append(out, frag[last:tstart]...)
		out = append(out, "<b>"...)
		out = append(out, frag[tstart:tend]...)
		out = append(out, "</b>"...)
		last = tend
	})
	out = append(out, frag[last:]...)
	if end < len(text) {
		out = append(out, "…"...)
	}
	sc.out = out
	return string(out)
}
