package index

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// TestMakeSnippetEquivalence pins the pooled sliding-window snippet
// generator to the seed implementation byte-for-byte across randomized
// texts: stemmed-suffix vocabulary, punctuation, unicode, truncation
// at every fragment boundary, and zero/partial/dense match mixes.
func TestMakeSnippetEquivalence(t *testing.T) {
	vocab := []string{
		"game", "games", "gaming", "gamed", "review", "reviews", "reviewing",
		"wine", "wines", "winery", "player", "plays", "running", "ran",
		"ponies", "caresses", "möbius", "東京", "x", "a1b2",
	}
	seps := []string{" ", ", ", "! ", " — ", "\n", "'", "...", "  "}
	rng := rand.New(rand.NewSource(99))

	for iter := 0; iter < 3000; iter++ {
		var b strings.Builder
		nWords := rng.Intn(120)
		for w := 0; w < nWords; w++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		text := b.String()
		var terms []string
		for n := rng.Intn(4); n > 0; n-- {
			terms = append(terms, textproc.Stem(vocab[rng.Intn(len(vocab))]))
		}
		maxLen := []int{1, 20, 160, 4096}[rng.Intn(4)]

		want := makeSnippetRef(text, terms, maxLen)
		got := makeSnippet(text, terms, maxLen)
		if got != want {
			t.Fatalf("iter %d: snippet mismatch for terms %v maxLen %d\ntext: %q\n got: %q\nwant: %q",
				iter, terms, maxLen, text, got, want)
		}
	}

	// Degenerate inputs the random sweep cannot hit deterministically.
	for _, tc := range []struct {
		text   string
		terms  []string
		maxLen int
	}{
		{"", []string{"game"}, 160},
		{"!!! ... ???", []string{"game"}, 160},
		{"!!! ... ??? and much more punctuation follows here", nil, 8},
		{"word", nil, 160},
		{strings.Repeat("review ", 200), []string{"review"}, 160},
	} {
		want := makeSnippetRef(tc.text, tc.terms, tc.maxLen)
		got := makeSnippet(tc.text, tc.terms, tc.maxLen)
		if got != want {
			t.Fatalf("degenerate case %q: got %q want %q", tc.text, got, want)
		}
	}
}

func BenchmarkMakeSnippet(b *testing.B) {
	var sb strings.Builder
	rng := rand.New(rand.NewSource(3))
	words := []string{"game", "review", "wine", "player", "strategy", "vintage", "score", "level"}
	for w := 0; w < 400; w++ {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	text := sb.String()
	terms := []string{"review", "vintag"}
	for _, mode := range []struct {
		name string
		fn   func(string, []string, int) string
	}{{"ref", makeSnippetRef}, {"pooled", makeSnippet}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mode.fn(text, terms, 160)
			}
		})
	}
}

// makeSnippetRef is the seed snippet generator, unchanged. It rescans
// the token window at every position (stemming each token up to 25
// times) and is O(tokens × window); makeSnippet is the O(tokens)
// replacement that must produce byte-identical output.
func makeSnippetRef(text string, matchTerms []string, maxLen int) string {
	if text == "" {
		return ""
	}
	want := make(map[string]bool, len(matchTerms))
	for _, t := range matchTerms {
		want[t] = true
	}
	toks := textproc.Tokenize(text)
	if len(toks) == 0 {
		// Punctuation-only text: no window to center on, plain prefix.
		if maxLen < len(text) {
			return text[:maxLen] + "…"
		}
		return text
	}
	// Find the window of up to 25 tokens with the most matches.
	bestStart, bestCount := 0, -1
	const window = 25
	for i := range toks {
		count := 0
		for j := i; j < len(toks) && j < i+window; j++ {
			if want[textproc.Stem(toks[j].Term)] {
				count++
			}
		}
		if count > bestCount {
			bestStart, bestCount = i, count
		}
		if i > 0 && toks[i].Start > maxLen && bestCount > 0 {
			break
		}
	}
	start := toks[bestStart].Start
	end := len(text)
	if start+maxLen < end {
		end = start + maxLen
	}
	frag := text[start:end]

	// Highlight matched tokens inside the fragment.
	var b strings.Builder
	last := 0
	for _, tok := range textproc.Tokenize(frag) {
		if !want[textproc.Stem(tok.Term)] {
			continue
		}
		b.WriteString(frag[last:tok.Start])
		b.WriteString("<b>")
		b.WriteString(frag[tok.Start:tok.End])
		b.WriteString("</b>")
		last = tok.End
	}
	b.WriteString(frag[last:])
	out := b.String()
	if start > 0 {
		out = "…" + out
	}
	if end < len(text) {
		out += "…"
	}
	return out
}
