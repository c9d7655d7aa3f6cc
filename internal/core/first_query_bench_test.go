package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/demo"
	symrt "repro/internal/runtime"
)

// BenchmarkFirstWebQuery measures the first end-user query a freshly
// built platform answers: each iteration builds a new platform with
// the three demo apps published (not timed), then times only the first
// GamerQueen query. That query's review supplemental is the platform's
// first read of the web vertical, so the timed window holds the
// synthetic web's generation and the vertical's one-time build, which
// the engine's status splits out as corpus-ms and build-ms. Run with
// -benchmem.
func BenchmarkFirstWebQuery(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.StopTimer()
	var corpusMs, buildMs float64
	for i := 0; i < b.N; i++ {
		p := core.New(core.Config{Seed: 1})
		gq, err := demo.GamerQueen(p, 1, 60)
		if err != nil {
			b.Fatal(err)
		}
		wf, err := demo.WineFinder(p, 1, 60)
		if err != nil {
			b.Fatal(err)
		}
		vs, err := demo.VideoStore(p, 1, 60)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		resp, err := p.Query(ctx, "gamerqueen", symrt.Query{Text: gq.Titles[0]})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Blocks) == 0 || len(resp.Blocks[0].SupplementalByItem) == 0 || len(resp.Blocks[0].SupplementalByItem[0]["reviews"]) == 0 {
			b.Fatal("first query returned no reviews")
		}
		st := p.Engine.Status()
		corpusMs += st.CorpusMs
		buildMs += st.Verticals[0].BuildMs
		gq.Close()
		wf.Close()
		vs.Close()
	}
	b.ReportMetric(corpusMs/float64(b.N), "corpus-ms")
	b.ReportMetric(buildMs/float64(b.N), "build-ms")
}
