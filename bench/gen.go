package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"repro/internal/webcorpus"
	"repro/internal/workload"
)

// Everything the platform sees — CSV bodies, query strings, the
// pacing schedule — comes from this file and is a pure function of
// the seed. Each consumer draws from its own stream so that, say,
// lengthening a phase does not change the catalog.
const (
	streamVocab = iota + 1
	streamItems
	streamBulk
	streamTail
	streamWriter
	streamGolden
	streamWarm
	streamPaced
	streamSat
	streamReader
	streamBurst
	streamReplay
	streamSchedule
)

func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919))
}

const (
	vocabWords    = 5000
	vocabZipfS    = 1.1
	titleTokens   = 3
	descTokens    = 40
	producers     = 7
	csvHeader     = "sku,title,producer,description,url\n"
	catalogTenant = "shop"
	catalogOwner  = "dana"
)

// vocabulary is the catalog's word list: pronounceable six-letter
// words, so the platform's analyzer keeps each as one token.
func vocabulary(seed int64) []string {
	const cons, vows = "bdfgklmnprstvz", "aeiou"
	rng := streamRNG(seed, streamVocab)
	seen := make(map[string]bool, vocabWords)
	out := make([]string, 0, vocabWords)
	for len(out) < vocabWords {
		var b [6]byte
		for i := 0; i < 6; i += 2 {
			b[i] = cons[rng.Intn(len(cons))]
			b[i+1] = vows[rng.Intn(len(vows))]
		}
		if w := string(b[:]); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// words draws Zipf-distributed vocabulary words from one stream.
type words struct {
	vocab []string
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func newWords(vocab []string, seed int64, stream int) *words {
	rng := streamRNG(seed, stream)
	return &words{vocab: vocab, rng: rng, zipf: rand.NewZipf(rng, vocabZipfS, 1, uint64(len(vocab)-1))}
}

func (w *words) word() string { return w.vocab[w.zipf.Uint64()] }

func (w *words) phrase(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w.word())
	}
	return b.String()
}

// row is one catalog record as the designer's CSV carries it.
type row struct{ sku, title string }

func (w *words) csvRow(b *strings.Builder, sku string) row {
	title := w.phrase(titleTokens)
	fmt.Fprintf(b, "%s,%s,producer%d,%s,http://shop.example/items/%s\n",
		sku, title, w.rng.Intn(producers), w.phrase(descTokens), sku)
	return row{sku, title}
}

// batch renders rows [from, from+n) of a dataset whose SKUs carry
// prefix, as one CSV upload body.
func (w *words) batch(prefix string, from, n int) (string, []row) {
	var b strings.Builder
	b.Grow(n * 340)
	b.WriteString(csvHeader)
	rows := make([]row, n)
	for i := range rows {
		rows[i] = w.csvRow(&b, fmt.Sprintf("%s%06d", prefix, from+i))
	}
	return b.String(), rows
}

// rewrite renders new text for n existing items SKUs drawn uniformly
// from [0, items): the mixed-phase writer's upload.
func (w *words) rewrite(items, n int) (string, []row) {
	var b strings.Builder
	b.Grow(n * 340)
	b.WriteString(csvHeader)
	rows := make([]row, 0, n)
	seen := make(map[int]bool, n)
	for len(rows) < n {
		i := w.rng.Intn(items)
		if seen[i] {
			continue
		}
		seen[i] = true
		rows = append(rows, w.csvRow(&b, fmt.Sprintf("S%06d", i)))
	}
	return b.String(), rows
}

// queries yields request paths ("/query?app=...&q=...") for one
// client; every client owns one.
type queries interface{ next() string }

// catalogQueries asks the catalog app for 1-3 words from the same
// Zipf the rows were written with.
type catalogQueries struct{ w *words }

func (q catalogQueries) next() string {
	return "/query?app=catalog&q=" + url.QueryEscape(q.w.phrase(1+q.w.rng.Intn(3)))
}

// appQueries spreads requests 50/30/20 over the three demo apps, one
// request in ten as JSON. Each app's query texts are sampled from a
// pool taken from workload.Stream, which keeps the stream's entity
// skew and modifier rate while letting every client draw its own
// sequence.
type appQueries struct {
	rng   *rand.Rand
	pools *[3][]string
}

var demoApps = [3]struct {
	id    string
	topic webcorpus.Topic
}{
	{"gamerqueen", webcorpus.TopicGames},
	{"winefinder", webcorpus.TopicWine},
	{"videostore", webcorpus.TopicMovies},
}

const appPoolSize = 20000

// appPools draws the per-app query pools. workload.Stream derives its
// entities from its seed, which must be the daemon's so that queries
// name catalog titles; each client samples the pools with its own
// generator, seeded from the benchmark's seed.
func appPools() *[3][]string {
	var pools [3][]string
	for i, a := range demoApps {
		pools[i] = workload.New(workload.Config{
			Seed: daemonSeed, Topic: a.topic, Entities: demoCatalogRows, ZipfS: 1.2, ModifierRate: 0.5,
		}).Take(appPoolSize)
	}
	return &pools
}

func (q *appQueries) next() string {
	i := 0
	switch r := q.rng.Intn(10); {
	case r >= 8:
		i = 2
	case r >= 5:
		i = 1
	}
	path := "/query?app=" + demoApps[i].id + "&q=" + url.QueryEscape(q.pools[i][q.rng.Intn(appPoolSize)])
	if q.rng.Intn(10) == 0 {
		path += "&format=json"
	}
	return path
}

// schedule returns n arrival offsets at the given rate: evenly
// spaced, each moved by up to half a gap either way so that arrivals
// do not lock step with anything periodic in the platform.
func schedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	gap := float64(time.Second) / rate
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + rng.Float64()) * gap)
	}
	return due
}
