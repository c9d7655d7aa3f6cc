package webcorpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// corpusDigest hashes every generated field of c — sites and pages, in
// order — with length-prefixed strings, so any change to one RNG draw
// or to how a string is built moves it.
func corpusDigest(c *Corpus) string {
	h := sha256.New()
	str := func(h hash.Hash, s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	num := func(h hash.Hash, v uint64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	num(h, uint64(len(c.Sites)))
	for _, s := range c.Sites {
		str(h, s.Domain)
		str(h, string(s.Topic))
		num(h, math.Float64bits(s.Quality))
	}
	num(h, uint64(len(c.Pages)))
	for _, p := range c.Pages {
		str(h, p.URL)
		str(h, p.Site)
		str(h, p.Title)
		str(h, p.Body)
		str(h, string(p.Vertical))
		str(h, string(p.Topic))
		str(h, p.Entity)
		num(h, uint64(len(p.Links)))
		for _, l := range p.Links {
			str(h, l)
		}
		num(h, uint64(p.PublishedDay))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigestPinned pins the seed-1 corpus — the one every
// platform, demo and benchmark reads — byte for byte, so an
// optimization of Generate cannot change one page unnoticed.
func TestGenerateDigestPinned(t *testing.T) {
	const want = "160da16f4ec2602244132a31b6cbeabd694adabbb8eefca857fe36fa945b1f85"
	if got := corpusDigest(Generate(Config{Seed: 1})); got != want {
		t.Fatalf("seed-1 corpus digest = %s, want %s", got, want)
	}
}
