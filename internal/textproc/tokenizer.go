// Package textproc provides the text analysis pipeline used by the
// Symphony search substrate: tokenization, case folding, stopword
// removal, stemming and n-gram generation.
//
// The pipeline is deliberately small and allocation-conscious: the
// inverted index in internal/index calls Analyze on every document
// field and every query, so the hot path avoids regexp and keeps
// per-token garbage low.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single analyzed term together with its position in the
// source text. Positions are term positions (0, 1, 2, ...), not byte
// offsets; they are what phrase queries match against.
type Token struct {
	Term     string
	Position int
	// Start and End are byte offsets into the original text, used by
	// snippet generation and highlighting.
	Start int
	End   int
}

// Tokenize splits text into lower-cased word tokens. A word is a
// maximal run of letters or digits; everything else is a separator.
// Apostrophes inside words are dropped ("Ann's" -> "anns") so that
// possessives match their stem.
func Tokenize(text string) []Token {
	return TokenizeAppend(make([]Token, 0, len(text)/6+1), text)
}

// TokenizeAppend is Tokenize appending into dst, so repeat callers
// can recycle one slice instead of allocating a fresh token buffer per
// document.
func TokenizeAppend(dst []Token, text string) []Token {
	TokenizeFunc(text, func(term []byte, position, start, end int) {
		// One exact-size allocation per token; the scratch buffer the
		// term was lowered into is reused for the next one.
		dst = append(dst, Token{Term: string(term), Position: position, Start: start, End: end})
	})
	return dst
}

// TokenizeFunc streams the tokens of text to fn without materializing
// a string per token: term is the lowered term bytes in a scratch
// buffer that is reused for the next token, so it is only valid during
// the call (copy it to retain it). Position, start and end carry the
// same meaning as in Token. Tokenization rules are identical to
// Tokenize; snippet generation uses this to stay allocation-free on
// the per-hit path.
func TokenizeFunc(text string, fn func(term []byte, position, start, end int)) {
	var scratch [48]byte
	term := scratch[:0]
	pos := 0
	start := -1
	flush := func(end int) {
		if len(term) == 0 {
			return
		}
		fn(term, pos, start, end)
		pos++
		term = term[:0]
		start = -1
	}
	for i, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = i
			}
			term = utf8.AppendRune(term, unicode.ToLower(r))
		case r == '\'':
			// swallow apostrophes inside words
		default:
			flush(i)
		}
	}
	flush(len(text))
}

// Terms is a convenience wrapper returning just the token terms.
func Terms(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Term
	}
	return out
}

// NGrams returns the character n-grams of a term, used for fuzzy
// prefix suggestions. For n larger than the term it returns the term
// itself.
func NGrams(term string, n int) []string {
	if n <= 0 {
		return nil
	}
	runes := []rune(term)
	if len(runes) <= n {
		return []string{term}
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}

// Shingles returns word w-shingles joined by a single space. Shingles
// power the near-duplicate detection in the crawler.
func Shingles(terms []string, w int) []string {
	if w <= 0 || len(terms) == 0 {
		return nil
	}
	if len(terms) <= w {
		return []string{strings.Join(terms, " ")}
	}
	out := make([]string, 0, len(terms)-w+1)
	for i := 0; i+w <= len(terms); i++ {
		out = append(out, strings.Join(terms[i:i+w], " "))
	}
	return out
}
