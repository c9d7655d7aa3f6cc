// Package textproc provides the text analysis pipeline used by the
// Symphony search substrate: tokenization, case folding, stopword
// removal, stemming and n-gram generation.
//
// The pipeline is deliberately small and allocation-conscious: the
// inverted index in internal/index analyzes every document field and
// every query, so the hot path avoids regexp and keeps per-token
// garbage low. The tokenizer classifies ASCII bytes with a table and
// copies runs of lower-case letters and digits whole; only a non-ASCII
// byte takes the rune path through the unicode tables, and the two
// paths tokenize alike (FuzzTokenize holds them to the rune-at-a-time
// reference). For batch indexing, a Memo analyzes each distinct token
// once per batch — one stopword lookup and one Stem — and numbers the
// resulting terms, so the index groups a document's tokens by term
// without a map and every occurrence of a term shares one string
// (FuzzAnalyzeBatch holds it to Analyze). A Memo belongs to one batch
// and one goroutine; nothing is cached across batches.
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
	var scratch [48]byte
	t := tokenizer{text: text, buf: scratch[:0]}
	for {
		term, position, start, end, ok := t.next()
		if !ok {
			return dst
		}
		// One exact-size allocation per token; the scratch buffer the
		// term was lowered into is reused for the next one.
		dst = append(dst, Token{Term: string(term), Position: position, Start: start, End: end})
	}
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
	t := tokenizer{text: text, buf: scratch[:0]}
	for {
		term, position, start, end, ok := t.next()
		if !ok {
			return
		}
		fn(term, position, start, end)
	}
}

// tokenizer walks text one token at a time. ASCII bytes are classified
// by a table; a byte at or above utf8.RuneSelf starts a rune that is
// decoded and classified with the unicode tables, so an invalid byte
// decodes to utf8.RuneError and separates words exactly as ranging
// over the string would.
type tokenizer struct {
	text string
	i    int // next byte to read
	pos  int // position of the next token
	buf  []byte
}

// The classes of a byte: a separator, a lower-case ASCII letter or a
// digit (kept as is), an upper-case ASCII letter (lowered), an
// apostrophe (dropped, so it neither ends a word nor joins it), or
// the first byte of anything else.
const (
	byteSep = iota
	byteKeep
	byteUpper
	byteApostrophe
	byteRune
)

var byteClass = func() (c [256]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		c[b] = byteKeep
		c[b-'a'+'A'] = byteUpper
	}
	for b := '0'; b <= '9'; b++ {
		c[b] = byteKeep
	}
	c['\''] = byteApostrophe
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = byteRune
	}
	return c
}()

// next returns the next token: its term lowered into t.buf, valid
// until the following call, its position and its byte span in text.
// ok is false once text is exhausted.
func (t *tokenizer) next() (term []byte, position, start, end int, ok bool) {
	text, buf := t.text, t.buf[:0]
	start = -1
	i := t.i
	for i < len(text) {
		size := 1
		switch byteClass[text[i]] {
		case byteKeep:
			// Copy the whole run of bytes kept as they are.
			if start < 0 {
				start = i
			}
			j := i + 1
			for j < len(text) && byteClass[text[j]] == byteKeep {
				j++
			}
			buf = append(buf, text[i:j]...)
			i = j
			continue
		case byteUpper:
			if start < 0 {
				start = i
			}
			buf = append(buf, text[i]+'a'-'A')
			i++
			continue
		case byteApostrophe:
			i++
			continue
		case byteRune:
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				if start < 0 {
					start = i
				}
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
				i += size
				continue
			}
		}
		// A separator: it ends the current word, if there is one.
		if len(buf) > 0 {
			t.i, t.buf = i+size, buf
			t.pos++
			return buf, t.pos - 1, start, i, true
		}
		i += size
	}
	t.i, t.buf = i, buf
	if len(buf) == 0 {
		return nil, 0, 0, 0, false
	}
	t.pos++
	return buf, t.pos - 1, start, len(text), true
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
