package textproc

import "slices"

// Analyzer turns raw text into index terms. Index-time and query-time
// analysis must use the same Analyzer; the engine and the store each
// hold one and pass it to internal/index.
type Analyzer struct {
	// KeepStopwords disables stopword removal. Catalog fields such as
	// product titles often want stopwords kept ("The Last of Us").
	KeepStopwords bool
	// NoStem disables stemming, used for keyword/identifier fields.
	NoStem bool
	// Stopwords overrides DefaultStopwords when non-nil.
	Stopwords map[string]bool
}

// DefaultAnalyzer is the analyzer used for free-text fields: lower
// cased, stopworded, stemmed.
var DefaultAnalyzer = &Analyzer{}

// KeywordAnalyzer keeps every token verbatim (no stopwords removed,
// no stemming); used for fields like URLs, SKUs and site names.
var KeywordAnalyzer = &Analyzer{KeepStopwords: true, NoStem: true}

// Analyze runs the full pipeline. Token positions are preserved from
// tokenization even when stopwords are removed, so phrase queries see
// the original gaps ("president of france" matches with a position gap
// at "of").
func (a *Analyzer) Analyze(text string) []Token {
	if a == nil {
		a = DefaultAnalyzer
	}
	toks := Tokenize(text)
	out := toks[:0]
	for _, t := range toks {
		var ok bool
		if t.Term, ok = a.term(t.Term); ok {
			out = append(out, t)
		}
	}
	return out
}

// term analyzes one lowered token: the index term it becomes, or ok
// false when it is a stopword a drops.
func (a *Analyzer) term(tok string) (term string, ok bool) {
	if !a.KeepStopwords {
		stop := a.Stopwords
		if stop == nil {
			stop = DefaultStopwords
		}
		if stop[tok] {
			return "", false
		}
	}
	if !a.NoStem {
		tok = Stem(tok)
	}
	return tok, true
}

// AnalyzeTerms returns just the terms of Analyze.
func (a *Analyzer) AnalyzeTerms(text string) []string {
	toks := a.Analyze(text)
	terms := make([]string, len(toks))
	for i, t := range toks {
		terms[i] = t.Term
	}
	return terms
}

// Memo analyzes a batch of documents with each distinct token's
// stopword check and stem run once: it records, per analyzer and per
// lowered token, the term the token becomes or that the analyzer drops
// it. It also numbers the terms, so a caller can group tokens by term
// with a slice instead of a map and refer to a term by a small
// integer, and every occurrence of a term shares one string. A Memo
// lives as long as the batch it serves and is not safe for concurrent
// use; the zero value is ready.
type Memo struct {
	// by holds one entry per analyzer the batch uses: a document has
	// one or two, so a scan beats a map.
	by    []analyzerMemo
	terms []string // id -> term
	buf   []byte
	// size is the table size Reserve asked for, 0 for none.
	size int
}

// Reserve sizes the tables of the analyzers the memo has not seen yet
// for n bytes of text, so a batch whose first text is not its longest
// does not grow them.
func (m *Memo) Reserve(n int) { m.size = n/6 + 1 }

// analyzerMemo is one analyzer's share of a Memo.
type analyzerMemo struct {
	a      *Analyzer
	tokens map[string]memoTerm // lowered token -> its analysis
	ids    map[string]int      // term -> id
}

// memoTerm is one token's analysis; keep is false for a dropped
// stopword.
type memoTerm struct {
	term string
	id   int
	keep bool
}

// AnalyzeAppend appends a.Analyze(text) to dst and each kept token's
// term id to ids. Two tokens get the same id exactly when an analyzer
// turned them into the same term; ids count up from 0 across the memo
// in the order their terms were first seen.
func (m *Memo) AnalyzeAppend(dst []Token, ids []int, a *Analyzer, text string) ([]Token, []int) {
	if a == nil {
		a = DefaultAnalyzer
	}
	// Room for as many tokens as Tokenize allows for, so the outputs
	// of a short batch do not grow token by token. The analyzer's
	// tables are sized by the same bound from the first text it sees,
	// or from what Reserve asked for if that is more, so a batch of one
	// document does not grow them either.
	bound := len(text)/6 + 1
	var am *analyzerMemo
	for i := range m.by {
		if m.by[i].a == a {
			am = &m.by[i]
			break
		}
	}
	if am == nil {
		size := max(bound, m.size)
		m.by = append(m.by, analyzerMemo{a: a, tokens: make(map[string]memoTerm, size), ids: make(map[string]int, size)})
		am = &m.by[len(m.by)-1]
		if m.terms == nil {
			m.terms = make([]string, 0, size)
		}
	}
	dst, ids = slices.Grow(dst, bound), slices.Grow(ids, bound)
	t := tokenizer{text: text, buf: m.buf}
	for {
		tok, position, start, end, ok := t.next()
		if !ok {
			break
		}
		mt, seen := am.tokens[string(tok)]
		if !seen {
			key := string(tok)
			mt.term, mt.keep = a.term(key)
			if mt.keep {
				id, known := am.ids[mt.term]
				if !known {
					id = len(m.terms)
					am.ids[mt.term] = id
					m.terms = append(m.terms, mt.term)
				}
				mt.term, mt.id = m.terms[id], id
			}
			am.tokens[key] = mt
		}
		if mt.keep {
			dst = append(dst, Token{Term: mt.term, Position: position, Start: start, End: end})
			ids = append(ids, mt.id)
		}
	}
	m.buf = t.buf
	return dst, ids
}

// Terms returns the term of every id handed out so far, indexed by id.
// The caller must not modify it; later calls append to the memo's
// table without changing what an earlier result holds.
func (m *Memo) Terms() []string { return m.terms[:len(m.terms):len(m.terms)] }
