package ingest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wal"
)

// catalogCSV renders n catalog rows shaped like a designer's product
// upload: a key, a 3-word title, one of 7 producers, a 40-word
// description and a URL, words drawn Zipf-skewed from a fixed
// 5 000-word vocabulary.
func catalogCSV(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 5000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%c%d", 'a'+rune(i%26), i)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(vocab)-1))
	phrase := func(k int) string {
		ws := make([]string, k)
		for i := range ws {
			ws[i] = vocab[zipf.Uint64()]
		}
		return strings.Join(ws, " ")
	}
	var b strings.Builder
	b.WriteString("sku,title,producer,description,url\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "S%06d,%s,producer%d,%s,http://shop.example/items/S%06d\n",
			i, phrase(3), rng.Intn(7), phrase(40), i)
	}
	return b.String()
}

// BenchmarkUploadBatch measures the designer's upload path end to end
// below HTTP: parse a 1 000-row CSV, infer the schema, analyze and
// index every row, and wait for the group-committed WAL records. Each
// iteration loads into a fresh dataset so every batch does the same
// work. Run with -benchmem: bytes and allocs per batch are the
// numbers to watch, since the upload path's garbage sets the GC
// pressure that serving traffic shares.
func BenchmarkUploadBatch(b *testing.B) {
	s := store.New()
	if err := s.CreateTenant("shop", "dana"); err != nil {
		b.Fatal(err)
	}
	l, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.PolicyGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	s.AttachWAL(l)
	u := &Uploader{Store: s}
	body := catalogCSV(1, 1000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := u.Upload(Options{
			Tenant: "shop", Actor: "dana", Dataset: fmt.Sprintf("items%d", i),
			Format: FormatCSV, KeyField: "sku",
		}, strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Loaded != 1000 {
			b.Fatalf("loaded %d of 1000 rows", rep.Loaded)
		}
	}
}
