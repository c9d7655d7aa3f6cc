package webcorpus

import "testing"

// BenchmarkGenerate measures generating the default synthetic web, the
// serial first step of a fresh process's first engine query.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := Generate(Config{Seed: 1}); len(c.Pages) == 0 {
			b.Fatal("no pages")
		}
	}
}
