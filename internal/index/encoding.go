package index

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Shared uvarint codec. The same primitives encode both the snapshot
// format (persist.go) and the hot in-memory posting lists below, so
// the on-disk and resident representations cannot drift: a posting
// decoded from a snapshot re-encodes to identical bytes.

// binWriter accumulates a uvarint binary payload.
type binWriter struct{ buf []byte }

func (w *binWriter) uvarint(x int) { w.buf = binary.AppendUvarint(w.buf, uint64(x)) }
func (w *binWriter) str(s string)  { w.uvarint(len(s)); w.buf = append(w.buf, s...) }

func (w *binWriter) strmap(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.uvarint(len(keys))
	for _, k := range keys {
		w.str(k)
		w.str(m[k])
	}
}

// Fixed-width little-endian integers for the offset directories:
// directories are random-accessed straight out of mapped bytes, so
// their entries cannot be varints.
func (w *binWriter) u32(x uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, x)
}

// reserve appends n zero bytes and returns their offset, for
// directories whose entries are patched in after the sections they
// point at have been written.
func (w *binWriter) reserve(n int) int {
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, n)...)
	return off
}

// patchU32 writes x, an offset or count below 2^32, at off.
func (w *binWriter) patchU32(off int, x int) {
	binary.LittleEndian.PutUint32(w.buf[off:], uint32(x))
}

// binReader decodes a uvarint binary payload with bounds checking.
type binReader struct {
	buf []byte
	off int
}

var errShardPayload = fmt.Errorf("index: corrupt shard payload")

func (r *binReader) uvarint() (int, error) {
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || x > 1<<56 {
		return 0, errShardPayload
	}
	r.off += n
	return int(x), nil
}

// count reads an element count: every counted element occupies at
// least one payload byte, so a count beyond the remaining bytes is
// corruption, caught before it can size an allocation.
func (r *binReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > len(r.buf)-r.off {
		return 0, errShardPayload
	}
	return n, nil
}

func (r *binReader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

// bytes reads a length-prefixed byte string as a view into buf.
func (r *binReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n < 0 || r.off+n > len(r.buf) {
		return nil, errShardPayload
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// strmap decodes a map; an empty one decodes to nil, allocating
// nothing.
func (r *binReader) strmap() (map[string]string, error) {
	n, err := r.count()
	if err != nil || n == 0 {
		return nil, err
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.str()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// skipStrmap steps over a strmap without decoding it.
func (r *binReader) skipStrmap() error {
	n, err := r.count()
	if err != nil {
		return err
	}
	for i := 0; i < 2*n; i++ {
		if _, err := r.bytes(); err != nil {
			return err
		}
	}
	return nil
}

// Block-compressed posting lists: the in-memory representation of one
// (field, term)'s postings. Document ordinals are strictly increasing
// per shard, so they delta+uvarint encode into a byte stream split
// into blocks of postingBlockSize entries; each block's skip entry
// records its first ordinal and byte offset, so point lookups (tfAt,
// the phrase anchor scorer) decode one block instead of the whole
// list.
//
// Scoring needs only (ordinal, term frequency); term positions —
// needed by PhraseQuery alone — live in a separate byte stream that
// scoring never touches, decoded lazily in lockstep with the doc
// stream only when a phrase asks for them.
const postingBlockSize = 128

// blockMeta is the skip entry for one block of postings. Besides the
// decode anchors (first ordinal, byte offsets into both streams) it
// carries the block's maximum term frequency — the input to the
// Block-Max early-exit bound: a ranker's per-(field,term) scorer turns
// maxTF into an upper bound on any document's score inside the block,
// so the top-k loop can skip the whole block without decoding it when
// that bound cannot beat the running threshold. posOff is the byte
// offset of the block's first position run, so phrase evaluation
// seeks straight to a candidate block's positions instead of
// length-walking every run before it.
type blockMeta struct {
	firstDoc int // ordinal of the block's first posting
	docOff   int // byte offset of the block in docTF
	posOff   int // byte offset of the block's first position run in posBuf
	maxTF    int // maximum term frequency within the block
}

type postingList struct {
	n       int // posting (document) count
	lastDoc int // last appended ordinal, for delta appends
	maxTF   int // maximum term frequency across the whole list
	// docTF holds one entry per posting: the uvarint delta<<1|1 when
	// tf is 1, else delta<<1 followed by the uvarint tf (the fold
	// Lucene's postings format uses; most postings have tf 1, so most
	// entries are one byte). A block's first entry encodes delta 0
	// relative to its skip entry's firstDoc, so blocks decode
	// independently.
	docTF []byte
	// posBuf holds each posting's tf positions: first absolute, then
	// deltas. Consumed only by phrase evaluation and persistence.
	posBuf []byte
	blocks []blockMeta
}

// appendPosting adds a posting for doc to l with the given term
// positions (tf = len(positions)). Ordinals must arrive strictly
// increasing; positions must be non-decreasing.
func appendPosting[P int | int32](l *postingList, doc int, positions []P) {
	prev := l.lastDoc
	if l.n%postingBlockSize == 0 {
		l.blocks = append(l.blocks, blockMeta{firstDoc: doc, docOff: len(l.docTF), posOff: len(l.posBuf)})
		prev = doc
	}
	if gap := uint64(doc - prev); len(positions) == 1 {
		l.docTF = binary.AppendUvarint(l.docTF, gap<<1|1)
	} else {
		l.docTF = binary.AppendUvarint(l.docTF, gap<<1)
		l.docTF = binary.AppendUvarint(l.docTF, uint64(len(positions)))
	}
	var pp P
	for i, p := range positions {
		if i == 0 {
			l.posBuf = binary.AppendUvarint(l.posBuf, uint64(p))
		} else {
			l.posBuf = binary.AppendUvarint(l.posBuf, uint64(p-pp))
		}
		pp = p
	}
	if tf := len(positions); tf > 0 {
		b := &l.blocks[len(l.blocks)-1]
		if tf > b.maxTF {
			b.maxTF = tf
		}
		if tf > l.maxTF {
			l.maxTF = tf
		}
	}
	l.lastDoc = doc
	l.n++
}

// numBlocks returns the number of posting blocks in the list.
func (l *postingList) numBlocks() int { return len(l.blocks) }

// blockEnd returns the index one past the last posting of block b.
func (l *postingList) blockEnd(b int) int {
	end := (b + 1) * postingBlockSize
	if end > l.n {
		end = l.n
	}
	return end
}

// blockLastDoc returns the last document ordinal covered by block b:
// lastDoc for the final block, one less than the next block's first
// ordinal otherwise. (The true last ordinal of a non-final block is
// not recorded, but any doc beyond this bound lives in a later
// block, which is all the skip logic needs.)
func (l *postingList) blockLastDoc(b int) int {
	if b+1 < len(l.blocks) {
		return l.blocks[b+1].firstDoc - 1
	}
	return l.lastDoc
}

// blockFor returns the index of the last block whose firstDoc <= doc.
func (l *postingList) blockFor(doc int) int {
	return sort.Search(len(l.blocks), func(i int) bool { return l.blocks[i].firstDoc > doc }) - 1
}

// postingIter streams (doc, tf) pairs out of a list. Positions are
// not decoded; pair it with a positionIter when they are needed.
type postingIter struct {
	l   *postingList
	i   int // index of the next posting
	off int // byte offset of the next posting in docTF
	doc int
	tf  int
}

func (l *postingList) iter() postingIter { return postingIter{l: l} }

func (it *postingIter) next() bool {
	if it.i >= it.l.n {
		return false
	}
	if it.i%postingBlockSize == 0 {
		it.doc = it.l.blocks[it.i/postingBlockSize].firstDoc
	}
	// An entry of one-byte varints, most postings, decodes in place
	// without branching on its tf: e is 1 when a tf byte follows the
	// code, and when it does not, t rereads the code.
	b := it.l.docTF
	c := b[it.off]
	e := int(^c & 1)
	if t := b[it.off+e]; (c | t) < 0x80 {
		it.doc += int(c >> 1)
		it.tf = 1 + e*(int(t)-1)
		it.off += 1 + e
	} else {
		var gap int
		gap, it.tf, it.off = nextPosting(b, it.off)
		it.doc += gap
	}
	it.i++
	return true
}

// nextPosting decodes the docTF entry at off: the posting's ordinal
// gap, its tf and the offset of the next entry.
func nextPosting(docTF []byte, off int) (gap, tf, next int) {
	code, n := binary.Uvarint(docTF[off:])
	off += n
	if code&1 != 0 {
		return int(code >> 1), 1, off
	}
	f, n := binary.Uvarint(docTF[off:])
	return int(code >> 1), int(f), off + n
}

// positionIter streams position runs out of posBuf. It must advance
// in lockstep with a postingIter: for every posting, call exactly one
// of read (tf positions, decoded) or skip (tf positions, scanned
// without decoding).
type positionIter struct {
	buf []byte
	off int
}

func (l *postingList) positions() positionIter { return positionIter{buf: l.posBuf} }

func (p *positionIter) read(tf int, dst []int) []int {
	dst = dst[:0]
	cur := 0
	for k := 0; k < tf; k++ {
		d, n := binary.Uvarint(p.buf[p.off:])
		p.off += n
		if k == 0 {
			cur = int(d)
		} else {
			cur += int(d)
		}
		dst = append(dst, cur)
	}
	return dst
}

func (p *positionIter) skip(tf int) {
	for k := 0; k < tf; k++ {
		for p.buf[p.off]&0x80 != 0 {
			p.off++
		}
		p.off++
	}
}

// tfAt returns the term frequency for ordinal doc, decoding only the
// block that can contain it. ok is false when the list has no posting
// for doc.
func (l *postingList) tfAt(doc int) (tf int, ok bool) {
	if l.n == 0 || doc < l.blocks[0].firstDoc || doc > l.lastDoc {
		return 0, false
	}
	// Last block whose firstDoc <= doc.
	b := sort.Search(len(l.blocks), func(i int) bool { return l.blocks[i].firstDoc > doc }) - 1
	cur := l.blocks[b].firstDoc
	off := l.blocks[b].docOff
	end := b*postingBlockSize + postingBlockSize
	if end > l.n {
		end = l.n
	}
	for i := b * postingBlockSize; i < end; i++ {
		gap, f, next := nextPosting(l.docTF, off)
		off = next
		cur += gap
		if cur == doc {
			return f, true
		}
		if cur > doc {
			return 0, false
		}
	}
	return 0, false
}

// checkPostings walks both streams of a list decoded from snapshot
// bytes once, so the iterators, tfAt and the block-max cursor — which
// decode without bounds checks — can never index past a stream, land
// on an ordinal outside [0, nDocs) or read a block maximum the list
// maximum does not cover. It holds the list to what appendPosting
// writes: each block's anchors match the walk, ordinals ascend
// strictly (a block's first entry is delta 0), lastDoc is the last
// ordinal (so an empty list is rejected: the writer never emits one),
// a tf of 1 is folded into its delta (never written out), the block
// and list maxima are the true maxima, and the streams end exactly
// where the last posting does.
func (l *postingList) checkPostings(nDocs int) error {
	docTF, posBuf := l.docTF, l.posBuf
	docOff, posOff, doc, listMax := 0, 0, -1, 0
	for b, bm := range l.blocks {
		if bm.docOff != docOff || bm.posOff != posOff || bm.firstDoc <= doc || bm.firstDoc >= nDocs {
			return errShardPayload
		}
		doc = bm.firstDoc
		blockMax := 0
		for i := b * postingBlockSize; i < l.blockEnd(b); i++ {
			code, n := binary.Uvarint(docTF[docOff:])
			if n <= 0 {
				return errShardPayload
			}
			docOff += n
			delta, tf := code>>1, uint64(1)
			if code&1 == 0 {
				if tf, n = binary.Uvarint(docTF[docOff:]); n <= 0 || tf == 1 {
					return errShardPayload
				}
				docOff += n
			}
			if (i%postingBlockSize == 0) != (delta == 0) || delta >= uint64(nDocs-doc) {
				return errShardPayload
			}
			doc += int(delta)
			blockMax = max(blockMax, int(tf))
			for range tf {
				if posOff < len(posBuf) && posBuf[posOff] < 0x80 {
					posOff++ // the common one-byte position
					continue
				}
				if _, n = binary.Uvarint(posBuf[posOff:]); n <= 0 {
					return errShardPayload
				}
				posOff += n
			}
		}
		if bm.maxTF != blockMax {
			return errShardPayload
		}
		listMax = max(listMax, blockMax)
	}
	if doc != l.lastDoc || l.maxTF != listMax || docOff != len(docTF) || posOff != len(posBuf) {
		return errShardPayload
	}
	return nil
}
