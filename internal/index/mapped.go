package index

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Mapped shards: snapshot format v4 lays a shard out so it can be
// served directly from the snapshot file's bytes (mmap'd by the
// caller) instead of being decoded onto the heap. The payload carries
// fixed-width offset directories — doc table, ID order, per-field
// term dictionaries — so every lookup the query path needs is a
// binary search plus a bounds-checked uvarint decode over the raw
// bytes. The block iterators and the block-max cursor already consume
// plain []byte posting streams, so a decoded "view" posting list
// whose docTF/posBuf point into the mapped payload evaluates through
// the exact same code as a heap-built one, bit-identically.
//
// A shard is an immutable mapped base plus a heap overlay:
//
//   - the doc table: ordinals below base are the mapped payload's and
//     are never rewritten; docs/byID hold only ordinals from base up,
//     the documents written since attach. Deleting or replacing a
//     base document sets its bit in a lazily allocated dead bitset
//     and takes its lengths out of the fields that carried it, which
//     attach recorded from the field sections. A heap-built shard is
//     the empty-base case, so there is one representation and a write
//     costs O(documents written), never a decode of the whole table;
//   - posting lists copy per term: a write that touches one term
//     decodes only that term's bytes onto the heap, so a lightly
//     written tenant keeps almost all of its index off-heap.
//
// Nothing folds the base into the heap in place: a rebuild
// (CompactContext, a reshard) regroups a source shard's postings,
// mapped or not, into a new heap shard, and compaction moves a shard
// without tombstones over as it is. The encoder writes a clean shard's payload verbatim
// and a written one by copying the surviving base doc entries and
// still-mapped term entries verbatim around the overlay — the same
// bytes a decode of everything followed by a fresh encode produces.
//
// View slices are cap-clamped (buf[a:b:b]), so an append through a
// promoted posting list reallocates instead of scribbling on the
// mapping. Mapped payloads are never unmapped while the index lives
// (see internal/mmapio); decode errors on lazy paths — impossible
// after the frame CRC unless the writer was buggy — are counted on
// the index and degrade to "term/document absent" rather than panic.
// A term entry's posting streams are walked once when the term is
// first decoded (checkPostings), so the query path's unchecked
// decoders only ever see lists whose anchors and ordinals are sound.

// v4 shard payload layout. It holds nothing a reader can rebuild from
// the rest: offsets are absolute within the payload and 32-bit (a
// payload is one frame, at most frameio.MaxFrame bytes).
//
//	header: 7 x u32 LE
//	  [0] nDocs  [1] live  [2] dead  [3] nFields
//	  [4] docDirOff  [5] idSortedOff  [6] fieldDirOff
//	doc entries: per live doc: str ID, strmap Stored. Which fields a
//	  document carried is not repeated here: the field sections'
//	  (ordinal, length) lists say it.
//	docDir   at docDirOff:   nDocs x u32 entry offset (^0 = tombstone)
//	idSorted at idSortedOff: live x u32 ordinals sorted by doc ID
//	fieldDir at fieldDirOff: nFields x u32 field section offset
//	field section (fields in strictly ascending name order):
//	  str name, uvarint totalLen, docCount, minLen,
//	  uvarint nLens, nLens x (uvarint ord, uvarint len) — one entry
//	    per live document that carried the field, empty ones included,
//	    ascending by ordinal,
//	  uvarint nTerms, termDir: nTerms x u32 entry offset
//	  (entries sorted by term), then the term entries
//	term entry:
//	  str term, uvarint n, lastDoc, maxTF, nBlocks,
//	  nBlocks x (uvarint firstDoc, docOff, posOff, maxTF),
//	  uvarint len + raw docTF (tf 1 folded into the delta, see
//	  postingList), uvarint len + raw posBuf

const (
	shardHeaderLen = 7 * 4
	// dirTombstone marks a dead ordinal in the doc directory.
	dirTombstone = ^uint32(0)
)

// u32At reads the little-endian u32 at byte offset off of b.
func u32At(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

// mappedShard is the view side of a shard attached from a v4 payload.
type mappedShard struct {
	payload  []byte
	nDocs    int
	docDir   []byte // nDocs * 4
	idSorted []byte // live * 4
	// fields are the base's field dictionaries in ascending name
	// order, one slab for the shard; each records which base
	// documents carried it.
	fields []mappedField
	// gone marks base ordinals deleted or replaced since attach. nil
	// until the first such write; guarded by the shard lock.
	gone []uint64
}

// mappedField is the view side of one field's term dictionary.
type mappedField struct {
	name    string
	payload []byte
	termDir []byte // nTerms * 4
	nTerms  int
	// lens is the field's (ordinal, length) list for the base: one
	// entry per base document that carried the field at snapshot
	// time, ascending by ordinal. The encoder re-emits it filtered by
	// liveness.
	lens  []byte
	nLens int
	// has marks the base ordinals whose documents carried the field
	// when the snapshot was written, an empty value included: the doc
	// entries do not name their fields.
	has []uint64
	// lazy caches decoded view posting lists by term. Pointer
	// identity matters: the cross-request cache keys decoded postings
	// by *postingList, so repeated lookups must return the same list.
	lazy sync.Map // term -> *postingList
	// names caches the decoded term dictionary (sorted).
	names atomic.Pointer[[]string]
	// nDocs is the shard's base ordinal count: every posting of a
	// mapped term names an ordinal below it.
	nDocs int
	ix    *Index
}

// MMapStats reports where an index's bytes live: still mapped, or
// copied onto the heap. MaterializedTerms/Bytes count posting lists
// writes copied; documents written land in the heap overlay.
type MMapStats struct {
	MappedShards      int   `json:"mappedShards"`
	MappedBytes       int64 `json:"mappedBytes"`
	MaterializedTerms int64 `json:"materializedTerms"`
	MaterializedBytes int64 `json:"materializedBytes"`
	LazyDecodeErrors  int64 `json:"lazyDecodeErrors"`
}

// MMapStats reports the index's mapped-vs-heap residency counters.
// MappedShards and MappedBytes describe the current ring, so a reshard
// or restore that replaces mapped shards drops them from both.
func (ix *Index) MMapStats() MMapStats {
	st := MMapStats{
		MaterializedTerms: ix.mmMatTerms.Load(),
		MaterializedBytes: ix.mmMatBytes.Load(),
		LazyDecodeErrors:  ix.mmLazyErrs.Load(),
	}
	r := ix.ring.Load()
	for _, s := range r.shards {
		s.mu.RLock()
		if s.ms != nil {
			st.MappedShards++
			st.MappedBytes += int64(len(s.ms.payload))
		}
		s.mu.RUnlock()
	}
	return st
}

func (ix *Index) lazyErr() { ix.mmLazyErrs.Add(1) }

// attachShard builds a shard whose reads serve from a v4 payload.
// The eager part — field registry, doc lengths, which base documents
// carry each field, counts — is O(docs) tiny integers; postings and
// the doc table stay views. Structural bounds are validated here so
// query-time decodes start from sane offsets.
func (ix *Index) attachShard(payload []byte, optsFor func(string) (FieldOptions, bool)) (*shard, error) {
	fail := func(err error) (*shard, error) {
		return nil, fmt.Errorf("index: attaching shard: %w", err)
	}
	if len(payload) < shardHeaderLen {
		return fail(fmt.Errorf("payload %d bytes, header needs %d", len(payload), shardHeaderLen))
	}
	hdr := func(i int) int { return int(u32At(payload, i*4)) }
	nDocs, live, dead, nFields := hdr(0), hdr(1), hdr(2), hdr(3)
	docDirOff, idSortedOff, fieldDirOff := hdr(4), hdr(5), hdr(6)
	// Counts are bounded by the payload itself: every doc costs at
	// least one directory entry, every field at least one.
	if nDocs > len(payload) || live+dead != nDocs || nFields > len(payload) {
		return fail(fmt.Errorf("implausible header counts docs=%d live=%d dead=%d fields=%d", nDocs, live, dead, nFields))
	}
	// A directory lies past the header and inside the payload.
	section := func(off, n int) ([]byte, error) {
		if off < shardHeaderLen || off > len(payload) || n > len(payload)-off {
			return nil, fmt.Errorf("directory [%d,+%d) outside payload of %d bytes", off, n, len(payload))
		}
		return payload[off : off+n : off+n], nil
	}
	docDir, err := section(docDirOff, nDocs*4)
	if err != nil {
		return fail(err)
	}
	idSorted, err := section(idSortedOff, live*4)
	if err != nil {
		return fail(err)
	}
	fieldDir, err := section(fieldDirOff, nFields*4)
	if err != nil {
		return fail(err)
	}
	s := newShard(ix)
	s.live, s.dead = live, dead
	ms := &mappedShard{payload: payload, nDocs: nDocs, docDir: docDir, idSorted: idSorted,
		fields: make([]mappedField, nFields)}
	s.ms = ms
	s.base = nDocs
	// Every field's presence bits share one slab, sized up front for
	// a few fields: a header claiming many cannot make attach allocate
	// more than the payload's size before its sections are read.
	words := (nDocs + 63) / 64
	bits := make([]uint64, 0, words*min(nFields, 8))
	for i := range ms.fields {
		mf := &ms.fields[i]
		off := int(u32At(fieldDir, i*4))
		if off > len(payload) {
			return fail(fmt.Errorf("field %d section offset %d outside payload", i, off))
		}
		br := &binReader{buf: payload, off: off}
		name, err := br.str()
		if err != nil {
			return fail(err)
		}
		if i > 0 && name <= ms.fields[i-1].name {
			return fail(fmt.Errorf("field %q out of order after %q", name, ms.fields[i-1].name))
		}
		fp := &fieldPostings{terms: make(map[string]*postingList), docLen: make([]int, nDocs)}
		if fp.totalLen, err = br.uvarint(); err != nil {
			return fail(err)
		}
		if fp.docCount, err = br.uvarint(); err != nil {
			return fail(err)
		}
		if fp.minLen, err = br.uvarint(); err != nil {
			return fail(err)
		}
		nLens, err := br.count()
		if err != nil {
			return fail(err)
		}
		// The list names each document counted in docCount and
		// totalLen once, in ascending order, so deletes can never
		// take either below zero.
		if nLens != fp.docCount {
			return fail(fmt.Errorf("field %q lists %d doc lengths for a doc count of %d", name, nLens, fp.docCount))
		}
		bits = append(bits, make([]uint64, words)...)
		has := bits[i*words:]
		lensOff := br.off
		prev, sum := -1, 0
		for j := 0; j < nLens; j++ {
			ord, err := br.uvarint()
			if err != nil {
				return fail(err)
			}
			if ord >= nDocs || ord <= prev {
				return fail(fmt.Errorf("field %q doc length for ordinal %d of %d after %d", name, ord, nDocs, prev))
			}
			if fp.docLen[ord], err = br.uvarint(); err != nil {
				return fail(err)
			}
			prev, sum = ord, sum+fp.docLen[ord]
			has[ord>>6] |= 1 << (ord & 63)
		}
		if sum != fp.totalLen {
			return fail(fmt.Errorf("field %q doc lengths sum to %d, its total is %d", name, sum, fp.totalLen))
		}
		lens := payload[lensOff:br.off:br.off]
		nTerms, err := br.count()
		if err != nil {
			return fail(err)
		}
		termDir, err := section(br.off, nTerms*4)
		if err != nil {
			return fail(fmt.Errorf("field %q: %w", name, err))
		}
		mf.name, mf.payload, mf.termDir, mf.nTerms, mf.ix = name, payload, termDir, nTerms, ix
		mf.lens, mf.nLens, mf.nDocs = lens, nLens, nDocs
		fp.mapped = mf
		if opts, ok := optsFor(name); ok {
			fp.opts = opts
		}
		s.fields[name] = fp
	}
	for i := range ms.fields {
		ms.fields[i].has = bits[i*words : (i+1)*words : (i+1)*words]
	}
	return s, nil
}

// termAt returns the term bytes of dictionary slot i as a view into
// the payload.
func (mf *mappedField) termAt(i int) ([]byte, error) {
	off := int(u32At(mf.termDir, i*4))
	if off > len(mf.payload) {
		return nil, errShardPayload
	}
	br := binReader{buf: mf.payload, off: off}
	return br.bytes()
}

// find binary-searches the mapped term dictionary. Probes compare the
// payload bytes in place, so a lookup allocates nothing.
func (mf *mappedField) find(term string) (slot int, ok bool) {
	lo, hi := 0, mf.nTerms
	for lo < hi {
		mid := (lo + hi) / 2
		t, err := mf.termAt(mid)
		if err != nil {
			mf.ix.lazyErr()
			return 0, false
		}
		if string(t) < term {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < mf.nTerms {
		t, err := mf.termAt(lo)
		if err != nil {
			mf.ix.lazyErr()
			return 0, false
		}
		if string(t) == term {
			return lo, true
		}
	}
	return 0, false
}

// slotBytes returns dictionary slot i's term and its whole term
// entry as views into the payload, for verbatim re-encoding. It checks
// the entry's framing only: like the verbatim copy of a clean shard,
// it carries the posting streams over as they are, and decodeSlot
// judges them when the term is read.
func (mf *mappedField) slotBytes(i int) (term, entry []byte, err error) {
	off := int(u32At(mf.termDir, i*4))
	if off > len(mf.payload) {
		return nil, nil, errShardPayload
	}
	br := &binReader{buf: mf.payload, off: off}
	if term, err = br.bytes(); err != nil {
		return nil, nil, err
	}
	n, err := br.uvarint()
	if err != nil {
		return nil, nil, err
	}
	for range 2 { // lastDoc, maxTF
		if _, err = br.uvarint(); err != nil {
			return nil, nil, err
		}
	}
	nBlocks, err := br.count()
	if err != nil {
		return nil, nil, err
	}
	if nBlocks != (n+postingBlockSize-1)/postingBlockSize {
		return nil, nil, errShardPayload
	}
	for range 4 * nBlocks {
		if _, err = br.uvarint(); err != nil {
			return nil, nil, err
		}
	}
	for range 2 { // docTF, posBuf
		if _, err = br.bytes(); err != nil {
			return nil, nil, err
		}
	}
	return term, mf.payload[off:br.off:br.off], nil
}

// decodeSlot builds a view posting list for dictionary slot i: block
// metadata on the heap (it is decoded integers either way), byte
// streams as cap-clamped views into the payload. A list whose streams
// fail checkPostings is rejected.
func (mf *mappedField) decodeSlot(i int) (*postingList, error) {
	off := int(u32At(mf.termDir, i*4))
	if off > len(mf.payload) {
		return nil, errShardPayload
	}
	br := &binReader{buf: mf.payload, off: off}
	if _, err := br.bytes(); err != nil { // term, already known to callers
		return nil, err
	}
	l := &postingList{}
	var err error
	if l.n, err = br.uvarint(); err != nil {
		return nil, err
	}
	if l.lastDoc, err = br.uvarint(); err != nil {
		return nil, err
	}
	if l.maxTF, err = br.uvarint(); err != nil {
		return nil, err
	}
	nBlocks, err := br.count()
	if err != nil {
		return nil, err
	}
	if want := (l.n + postingBlockSize - 1) / postingBlockSize; nBlocks != want {
		return nil, errShardPayload
	}
	l.blocks = make([]blockMeta, nBlocks)
	for b := range l.blocks {
		bm := &l.blocks[b]
		if bm.firstDoc, err = br.uvarint(); err != nil {
			return nil, err
		}
		if bm.docOff, err = br.uvarint(); err != nil {
			return nil, err
		}
		if bm.posOff, err = br.uvarint(); err != nil {
			return nil, err
		}
		if bm.maxTF, err = br.uvarint(); err != nil {
			return nil, err
		}
	}
	view := func() ([]byte, error) {
		n, err := br.count()
		if err != nil {
			return nil, err
		}
		end := br.off + n
		v := br.buf[br.off:end:end]
		br.off = end
		return v, nil
	}
	if l.docTF, err = view(); err != nil {
		return nil, err
	}
	if l.posBuf, err = view(); err != nil {
		return nil, err
	}
	if err := l.checkPostings(mf.nDocs); err != nil {
		return nil, err
	}
	return l, nil
}

// lookup resolves a term's posting list: heap map first (new and
// materialized terms), then the lazy view cache, then a decode from
// the mapped dictionary. Callers hold the shard lock (read suffices).
// nil means the field has no such term.
func (fp *fieldPostings) lookup(term string) *postingList {
	if l, ok := fp.terms[term]; ok {
		return l
	}
	mf := fp.mapped
	if mf == nil {
		return nil
	}
	if v, ok := mf.lazy.Load(term); ok {
		return v.(*postingList)
	}
	slot, ok := mf.find(term)
	if !ok {
		return nil
	}
	l, err := mf.decodeSlot(slot)
	if err != nil {
		mf.ix.lazyErr()
		return nil
	}
	// LoadOrStore keeps pointer identity stable under concurrent
	// first lookups — the postings cache keys on the pointer.
	actual, _ := mf.lazy.LoadOrStore(term, l)
	return actual.(*postingList)
}

// promoteTermLocked resolves a term for appending: a mapped term is
// first copied onto the heap (copy-on-write at term granularity) and
// installed in the heap map, so the mutation cannot touch the
// mapping. Returns nil when the term does not exist yet anywhere.
// Callers hold the write lock.
func (fp *fieldPostings) promoteTermLocked(term string) *postingList {
	if l, ok := fp.terms[term]; ok {
		return l
	}
	mf := fp.mapped
	if mf == nil {
		return nil
	}
	slot, ok := mf.find(term)
	if !ok {
		return nil
	}
	return fp.promoteSlotLocked(term, slot)
}

// promoteSlotLocked decodes dictionary slot i straight into a heap
// posting list for term: the block metadata decodeSlot allocates is
// kept, the byte streams are copied off the mapping.
func (fp *fieldPostings) promoteSlotLocked(term string, slot int) *postingList {
	mf := fp.mapped
	l, err := mf.decodeSlot(slot)
	if err != nil {
		mf.ix.lazyErr()
		return nil
	}
	l.docTF = append([]byte(nil), l.docTF...)
	l.posBuf = append([]byte(nil), l.posBuf...)
	fp.terms[term] = l
	// Drop a view a reader may have cached; the heap list shadows it.
	mf.lazy.Delete(term)
	mf.ix.mmMatTerms.Add(1)
	mf.ix.mmMatBytes.Add(int64(len(l.docTF) + len(l.posBuf)))
	return l
}

// mappedTermNames returns the sorted mapped dictionary, decoding and
// caching it on first use.
func (mf *mappedField) mappedTermNames() []string {
	if p := mf.names.Load(); p != nil {
		return *p
	}
	names := make([]string, 0, mf.nTerms)
	for i := 0; i < mf.nTerms; i++ {
		t, err := mf.termAt(i)
		if err != nil {
			mf.ix.lazyErr()
			break
		}
		names = append(names, string(t))
	}
	mf.names.Store(&names)
	return names
}

// sortedTermsAll is sortedTerms for fields that may have a mapped
// dictionary: the union of mapped terms and heap terms (new terms
// from writes; materialized terms exist in both and dedup away).
func (fp *fieldPostings) sortedTermsAll() []string {
	if fp.mapped == nil {
		return fp.sortedTerms()
	}
	if p := fp.dict.Load(); p != nil {
		return *p
	}
	mappedNames := fp.mapped.mappedTermNames()
	merged := make([]string, 0, len(mappedNames)+len(fp.terms))
	merged = append(merged, mappedNames...)
	for t := range fp.terms {
		i := sort.SearchStrings(mappedNames, t)
		if i >= len(mappedNames) || mappedNames[i] != t {
			merged = append(merged, t)
		}
	}
	sort.Strings(merged)
	fp.dict.Store(&merged)
	return merged
}

// numDocs returns the shard's ordinal-space size: the base's
// ordinals, then the overlay's.
func (s *shard) numDocs() int { return s.base + len(s.docs) }

// liveAt reports whether ordinal ord holds a live document. O(1) on
// both halves: the overlay checks its doc table, the base its doc
// directory's tombstone sentinel and the dead bitset.
func (s *shard) liveAt(ord int) bool {
	if ord >= s.base {
		return s.docs[ord-s.base].ID != ""
	}
	return s.ms.liveAt(ord)
}

// liveAt reports whether base ordinal ord was live in the snapshot
// and has not been deleted or replaced since attach.
func (ms *mappedShard) liveAt(ord int) bool {
	if ms.gone != nil && ms.gone[ord>>6]&(1<<(ord&63)) != 0 {
		return false
	}
	return u32At(ms.docDir, ord*4) != dirTombstone
}

// kill marks base ordinal ord deleted or replaced.
func (ms *mappedShard) kill(ord int) {
	if ms.gone == nil {
		ms.gone = make([]uint64, (ms.nDocs+63)/64)
	}
	ms.gone[ord>>6] |= 1 << (ord & 63)
}

// entryAt positions a reader at the doc entry of base ordinal ord,
// whatever its liveness; ok=false for a snapshot tombstone or a
// corrupt offset (counted).
func (ms *mappedShard) entryAt(ix *Index, ord int) (binReader, bool) {
	off := u32At(ms.docDir, ord*4)
	if off == dirTombstone {
		return binReader{}, false
	}
	if int(off) > len(ms.payload) {
		ix.lazyErr()
		return binReader{}, false
	}
	return binReader{buf: ms.payload, off: int(off)}, true
}

// idBytesAt returns the ID of base ordinal ord's entry as a view into
// the payload (nil for tombstones and corrupt entries).
func (ms *mappedShard) idBytesAt(ix *Index, ord int) []byte {
	br, ok := ms.entryAt(ix, ord)
	if !ok {
		return nil
	}
	id, err := br.bytes()
	if err != nil || len(id) == 0 {
		ix.lazyErr()
		return nil
	}
	return id
}

// carries reports whether base ordinal ord's document carried the
// field when the snapshot was written.
func (mf *mappedField) carries(ord int) bool {
	return mf.has[ord>>6]&(1<<(ord&63)) != 0
}

// docEntryAt decodes the doc entry at base ordinal ord into a row;
// ok=false for tombstones and corrupt entries.
func (ms *mappedShard) docEntryAt(ix *Index, ord int) (docRow, bool) {
	return ms.rowAt(ix, ord, nil)
}

// rowAt is docEntryAt for a walk over many entries. The row's field
// names come from the per-field presence attach recorded, and they
// share prev when they are the same names, so a run of documents
// carrying one set of fields allocates them once. The ID and Stored
// map are freshly decoded, a per-call allocation.
func (ms *mappedShard) rowAt(ix *Index, ord int, prev []string) (docRow, bool) {
	id, stored := ms.hitAt(ix, ord)
	if id == "" {
		return docRow{}, false
	}
	row := docRow{ID: id, Stored: stored}
	n, same := 0, true
	for i := range ms.fields {
		mf := &ms.fields[i]
		if !mf.carries(ord) {
			continue
		}
		name := mf.name
		if same && n < len(prev) && prev[n] == name {
			n++
			continue
		}
		if same {
			same = false
			row.Fields = append(make([]string, 0, len(ms.fields)), prev[:n]...)
		}
		row.Fields = append(row.Fields, name)
	}
	if same {
		// Rows never write to their names, so a prefix of prev is
		// shared too.
		row.Fields = prev[:n:n]
	}
	return row, true
}

// hitAt decodes what a search result needs from base ordinal ord's
// entry: the ID and the Stored map. An empty Stored map decodes to
// nil without allocating.
func (ms *mappedShard) hitAt(ix *Index, ord int) (string, map[string]string) {
	br, ok := ms.entryAt(ix, ord)
	if !ok {
		return "", nil
	}
	id, err := br.str()
	if err == nil && id != "" {
		var stored map[string]string
		if stored, err = br.strmap(); err == nil {
			return id, stored
		}
	}
	ix.lazyErr()
	return "", nil
}

// entryBytes returns the whole encoded entry of base ordinal ord — ID
// and Stored — as a view into the payload, for verbatim re-encoding;
// nil for tombstones and corrupt entries.
func (ms *mappedShard) entryBytes(ix *Index, ord int) []byte {
	br, ok := ms.entryAt(ix, ord)
	if !ok {
		return nil
	}
	start := br.off
	id, err := br.bytes()
	if err == nil && len(id) > 0 {
		if err = br.skipStrmap(); err == nil {
			return br.buf[start:br.off:br.off]
		}
	}
	ix.lazyErr()
	return nil
}

// find binary-searches the ID-sorted ordinal permutation for id,
// comparing payload bytes in place: a probe allocates nothing. The
// result may be a base ordinal that has since died; callers check
// liveAt.
func (ms *mappedShard) find(ix *Index, id string) (int, bool) {
	n := len(ms.idSorted) / 4
	ordAt := func(i int) (int, bool) {
		ord := int(u32At(ms.idSorted, i*4))
		if ord >= ms.nDocs {
			ix.lazyErr()
			return 0, false
		}
		return ord, true
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		ord, ok := ordAt(mid)
		if !ok {
			return 0, false
		}
		if string(ms.idBytesAt(ix, ord)) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n {
		if ord, ok := ordAt(lo); ok && string(ms.idBytesAt(ix, ord)) == id {
			return ord, true
		}
	}
	return 0, false
}

// idAt returns the document ID at ord ("" for tombstones).
func (s *shard) idAt(ord int) string {
	if ord >= s.base {
		return s.docs[ord-s.base].ID
	}
	if !s.ms.liveAt(ord) {
		return ""
	}
	return string(s.ms.idBytesAt(s.ix, ord))
}

// idAfter reports whether the live document at ord has an ID ordering
// after id, comparing mapped bytes in place.
func (s *shard) idAfter(ord int, id string) bool {
	if ord >= s.base {
		return s.docs[ord-s.base].ID > id
	}
	return string(s.ms.idBytesAt(s.ix, ord)) > id
}

// docAt returns the row at ord (the zero row for tombstones).
func (s *shard) docAt(ord int) docRow {
	if ord >= s.base {
		return s.docs[ord-s.base]
	}
	if !s.ms.liveAt(ord) {
		return docRow{}
	}
	row, _ := s.ms.docEntryAt(s.ix, ord)
	return row
}

// hitAt returns the ID and Stored map of the document at ord ("" and
// nil for tombstones), without decoding a base entry's Fields.
func (s *shard) hitAt(ord int) (string, map[string]string) {
	if ord >= s.base {
		row := &s.docs[ord-s.base]
		return row.ID, row.Stored
	}
	if !s.ms.liveAt(ord) {
		return "", nil
	}
	return s.ms.hitAt(s.ix, ord)
}

// findOrd resolves a live document ID to its ordinal: the overlay's
// map first (it holds every document written since attach, including
// replacements of base documents), then the base's ID permutation.
func (s *shard) findOrd(id string) (int, bool) {
	if ord, ok := s.byID[id]; ok {
		return ord, true
	}
	if s.ms == nil {
		return 0, false
	}
	ord, ok := s.ms.find(s.ix, id)
	if !ok || !s.ms.liveAt(ord) {
		return 0, false
	}
	return ord, true
}
