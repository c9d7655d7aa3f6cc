package textproc

import (
	"reflect"
	"testing"
	"unicode"
	"unicode/utf8"
)

// tokenizeRef is the rune-at-a-time tokenizer the ASCII byte path
// replaced, kept as the reference FuzzTokenize holds it to.
func tokenizeRef(text string) []Token {
	var out []Token
	var term []byte
	pos := 0
	start := -1
	flush := func(end int) {
		if len(term) == 0 {
			return
		}
		out = append(out, Token{Term: string(term), Position: pos, Start: start, End: end})
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
	return out
}

// analyzeRef is the Analyze pipeline as it stood before the batch
// memo, over the reference tokenizer.
func analyzeRef(a *Analyzer, text string) []Token {
	if a == nil {
		a = DefaultAnalyzer
	}
	stop := a.Stopwords
	if stop == nil {
		stop = DefaultStopwords
	}
	toks := tokenizeRef(text)
	out := toks[:0]
	for _, t := range toks {
		if !a.KeepStopwords && stop[t.Term] {
			continue
		}
		if !a.NoStem {
			t.Term = Stem(t.Term)
		}
		out = append(out, t)
	}
	return out
}

// tokenizerSeeds covers the byte path's edges: mixed case, digits,
// apostrophes at word edges and alone, non-ASCII letters and digits,
// letters whose lower case differs in width, and invalid UTF-8.
var tokenizerSeeds = []string{
	"",
	"Hello, World! 42",
	"Ann's 'quoted' O'Brien '' ' x'",
	"The Legend of Zelda: Breath-of-the-Wild (2017)",
	"café Pokémon NAÏVE Ünïcödé",
	"ΣΊΣΥΦΟΣ İstanbul Kelvin\u212a ǅemal",
	"١٢٣ digits ٤٥ and ⅷ roman",
	"bad \xff\xfe bytes\xc3 mid\xe2\x82word \xed\xa0\x80 end\xf0",
	"\ufffd replacement\ufffdchar",
	"tab\tnew\nline\r\x00nul",
	"MiXeD cAsE wOrDs123abc",
}

func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := tokenizeRef(text)
		if got := Tokenize(text); !tokensEqual(got, want) {
			t.Fatalf("Tokenize(%q):\n got %#v\nwant %#v", text, got, want)
		}
		var streamed []Token
		TokenizeFunc(text, func(term []byte, position, start, end int) {
			streamed = append(streamed, Token{Term: string(term), Position: position, Start: start, End: end})
		})
		if !tokensEqual(streamed, want) {
			t.Fatalf("TokenizeFunc(%q):\n got %#v\nwant %#v", text, streamed, want)
		}
	})
}

// fuzzAnalyzers are the analyzer shapes FuzzAnalyzeBatch memoizes
// side by side in one memo.
var fuzzAnalyzers = []*Analyzer{
	DefaultAnalyzer,
	KeywordAnalyzer,
	{Stopwords: map[string]bool{"zelda": true, "café": true, "review": true}},
	nil,
}

func FuzzAnalyzeBatch(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s, "the reviews of the games")
	}
	f.Add("Reviewing the reviewed reviews", "Zelda zelda ZELDA café")
	// One memo for every input the fuzzer feeds this worker, so later
	// inputs hit entries earlier ones created, under every analyzer.
	var memo Memo
	// idOf holds every id the memo has handed out, per analyzer and
	// term: a term must always get the same id, and a new term the
	// next one, whichever analyzer made it.
	idOf := map[*Analyzer]map[string]int{}
	issued := 0
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, text := range []string{a, b, a} {
			for _, an := range fuzzAnalyzers {
				want := analyzeRef(an, text)
				got, ids := memo.AnalyzeAppend(nil, nil, an, text)
				if !tokensEqual(got, want) {
					t.Fatalf("memoized %+v on %q:\n got %#v\nwant %#v", an, text, got, want)
				}
				if len(ids) != len(got) {
					t.Fatalf("%d ids for %d tokens", len(ids), len(got))
				}
				key := an
				if key == nil {
					key = DefaultAnalyzer
				}
				if idOf[key] == nil {
					idOf[key] = map[string]int{}
				}
				terms := memo.Terms()
				for i, tok := range got {
					id, ok := idOf[key][tok.Term]
					if !ok {
						id = issued
						issued++
						idOf[key][tok.Term] = id
					}
					if ids[i] != id || id >= len(terms) || terms[id] != tok.Term {
						t.Fatalf("term %q: id %d, want %d, of %d terms", tok.Term, ids[i], id, len(terms))
					}
				}
				if len(terms) != issued {
					t.Fatalf("memo holds %d terms, handed out %d ids", len(terms), issued)
				}
				if got := an.Analyze(text); !tokensEqual(got, want) {
					t.Fatalf("Analyze %+v on %q:\n got %#v\nwant %#v", an, text, got, want)
				}
			}
		}
	})
}

// tokensEqual treats nil and empty as equal.
func tokensEqual(a, b []Token) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
