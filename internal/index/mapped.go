package index

import (
	"encoding/binary"
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
)

// Mapped shards: snapshot format v3 lays a shard out so it can be
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
//     and decodes that one entry's field keys to adjust the field
//     lengths. A heap-built shard is the empty-base case, so there is
//     one representation and a write costs O(documents written),
//     never a decode of the whole table;
//   - posting lists copy per term: a write that touches one term
//     decodes only that term's bytes onto the heap, so a lightly
//     written tenant keeps almost all of its index off-heap.
//
// Only compaction folds the base into the heap (materializeAllLocked);
// a reshard regroups each source shard's postings, mapped or not, into
// new heap shards. The v3 encoder writes a clean shard's payload
// verbatim and a written one by copying the surviving base doc entries
// and still-mapped term entries verbatim around the overlay — the same
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

// v3 shard payload layout (all offsets absolute within the payload):
//
//	header: 8 x u64 LE
//	  [0] nDocs  [1] live  [2] dead  [3] nFields
//	  [4] docDirOff  [5] idSortedOff  [6] fieldDirOff  [7] reserved
//	doc entries: per live doc: str ID, strmap Fields, strmap Stored;
//	  Fields names the fields the document carried, every value
//	  written empty: the index keeps no field text. (Values are
//	  skipped, never read, so an entry with text in them still
//	  attaches, and a verbatim copy of it keeps the text.)
//	docDir   at docDirOff:   nDocs x u64 entry offset (^0 = tombstone)
//	idSorted at idSortedOff: live x u32 ordinals sorted by doc ID
//	fieldDir at fieldDirOff: nFields x u64 field section offset
//	field section (fields sorted by name):
//	  str name, uvarint totalLen, docCount, minLen,
//	  uvarint nLens, nLens x (uvarint ord, uvarint len),
//	  uvarint nTerms, termDir: nTerms x u64 entry offset
//	  (entries sorted by term), then the term entries
//	term entry:
//	  str term, uvarint n, lastDoc, maxTF, nBlocks,
//	  nBlocks x (uvarint firstDoc, docOff, posOff, maxTF),
//	  uvarint len + raw docTF, uvarint len + raw posBuf

const (
	v3HeaderLen = 64
	// v3Tombstone marks a dead ordinal in the doc directory.
	v3Tombstone = ^uint64(0)
)

// mappedShard is the view side of a shard attached from a v3 payload.
type mappedShard struct {
	payload  []byte
	nDocs    int
	docDir   []byte // nDocs * 8
	idSorted []byte // live * 4
	// gone marks base ordinals deleted or replaced since attach. nil
	// until the first such write; guarded by the shard lock.
	gone []uint64
}

// mappedField is the view side of one field's term dictionary.
type mappedField struct {
	payload []byte
	termDir []byte // nTerms * 8
	nTerms  int
	// lens is the field's (ordinal, length) list for the base: one
	// entry per base document that carried the field at snapshot
	// time, ascending by ordinal. The encoder re-emits it filtered by
	// liveness.
	lens  []byte
	nLens int
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
// writes copied; MaterializedDocTabs counts whole-shard conversions,
// which only compaction performs — writes land in the overlay.
type MMapStats struct {
	MappedShards        int   `json:"mappedShards"`
	MappedBytes         int64 `json:"mappedBytes"`
	MaterializedTerms   int64 `json:"materializedTerms"`
	MaterializedBytes   int64 `json:"materializedBytes"`
	MaterializedDocTabs int64 `json:"materializedDocTables"`
	LazyDecodeErrors    int64 `json:"lazyDecodeErrors"`
}

// MMapStats reports the index's mapped-vs-heap residency counters.
// MappedShards and MappedBytes describe the current ring, so a reshard
// or restore that replaces mapped shards drops them from both.
func (ix *Index) MMapStats() MMapStats {
	st := MMapStats{
		MaterializedTerms:   ix.mmMatTerms.Load(),
		MaterializedBytes:   ix.mmMatBytes.Load(),
		MaterializedDocTabs: ix.mmMatDocTabs.Load(),
		LazyDecodeErrors:    ix.mmLazyErrs.Load(),
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

// attachShardV3 builds a shard whose reads serve from payload. The
// eager part — field registry, doc lengths, counts — is O(docs) tiny
// integers; postings and the doc table stay views. Structural bounds
// are validated here so query-time decodes start from sane offsets.
func (ix *Index) attachShardV3(payload []byte, optsFor func(string) (FieldOptions, bool)) (*shard, error) {
	fail := func(err error) (*shard, error) {
		return nil, fmt.Errorf("index: attaching v3 shard: %w", err)
	}
	if len(payload) < v3HeaderLen {
		return fail(fmt.Errorf("payload %d bytes, header needs %d", len(payload), v3HeaderLen))
	}
	u64At := func(i int) uint64 { return binary.LittleEndian.Uint64(payload[i*8:]) }
	nDocs, live, dead, nFields := int(u64At(0)), int(u64At(1)), int(u64At(2)), int(u64At(3))
	docDirOff, idSortedOff, fieldDirOff := u64At(4), u64At(5), u64At(6)
	// Counts are bounded by the payload itself: every doc costs at
	// least one directory entry, every field at least one.
	if nDocs < 0 || nDocs > len(payload) || live < 0 || dead < 0 || live+dead != nDocs ||
		nFields < 0 || nFields > len(payload) {
		return fail(fmt.Errorf("implausible header counts docs=%d live=%d dead=%d fields=%d", nDocs, live, dead, nFields))
	}
	section := func(off uint64, n int) ([]byte, error) {
		end := off + uint64(n)
		if off > uint64(len(payload)) || end > uint64(len(payload)) {
			return nil, fmt.Errorf("directory [%d,%d) outside payload of %d bytes", off, end, len(payload))
		}
		return payload[off:end:end], nil
	}
	docDir, err := section(docDirOff, nDocs*8)
	if err != nil {
		return fail(err)
	}
	idSorted, err := section(idSortedOff, live*4)
	if err != nil {
		return fail(err)
	}
	fieldDir, err := section(fieldDirOff, nFields*8)
	if err != nil {
		return fail(err)
	}
	s := newShard(ix)
	s.live, s.dead = live, dead
	s.ms = &mappedShard{payload: payload, nDocs: nDocs, docDir: docDir, idSorted: idSorted}
	s.base = nDocs
	for i := 0; i < nFields; i++ {
		off := binary.LittleEndian.Uint64(fieldDir[i*8:])
		if off > uint64(len(payload)) {
			return fail(fmt.Errorf("field %d section offset %d outside payload", i, off))
		}
		br := &binReader{buf: payload, off: int(off)}
		name, err := br.str()
		if err != nil {
			return fail(err)
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
		lensOff := br.off
		for j := 0; j < nLens; j++ {
			ord, err := br.uvarint()
			if err != nil {
				return fail(err)
			}
			if ord >= nDocs {
				return fail(fmt.Errorf("field %q doc length for ordinal %d of %d", name, ord, nDocs))
			}
			if fp.docLen[ord], err = br.uvarint(); err != nil {
				return fail(err)
			}
		}
		lens := payload[lensOff:br.off:br.off]
		nTerms, err := br.count()
		if err != nil {
			return fail(err)
		}
		termDir, err := section(uint64(br.off), nTerms*8)
		if err != nil {
			return fail(fmt.Errorf("field %q: %w", name, err))
		}
		fp.mapped = &mappedField{payload: payload, termDir: termDir, nTerms: nTerms, ix: ix,
			lens: lens, nLens: nLens, nDocs: nDocs}
		if opts, ok := optsFor(name); ok {
			fp.opts = opts
		}
		s.fields[name] = fp
	}
	return s, nil
}

// termAt returns the term bytes of dictionary slot i as a view into
// the payload.
func (mf *mappedField) termAt(i int) ([]byte, error) {
	off := binary.LittleEndian.Uint64(mf.termDir[i*8:])
	if off > uint64(len(mf.payload)) {
		return nil, errShardPayload
	}
	br := binReader{buf: mf.payload, off: int(off)}
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
	off := binary.LittleEndian.Uint64(mf.termDir[i*8:])
	if off > uint64(len(mf.payload)) {
		return nil, nil, errShardPayload
	}
	br := &binReader{buf: mf.payload, off: int(off)}
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
	off := binary.LittleEndian.Uint64(mf.termDir[i*8:])
	if off > uint64(len(mf.payload)) {
		return nil, errShardPayload
	}
	br := &binReader{buf: mf.payload, off: int(off)}
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
	return binary.LittleEndian.Uint64(ms.docDir[ord*8:]) != v3Tombstone
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
	off := binary.LittleEndian.Uint64(ms.docDir[ord*8:])
	if off == v3Tombstone {
		return binReader{}, false
	}
	if off > uint64(len(ms.payload)) {
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

// docEntryAt decodes the doc entry at base ordinal ord into a row;
// ok=false for tombstones and corrupt entries.
func (ms *mappedShard) docEntryAt(ix *Index, ord int) (docRow, bool) {
	return ms.rowAt(ix, ord, nil)
}

// rowAt is docEntryAt for a walk over many entries: the row shares
// prev as its field names when the entry names the same fields, so a
// run of documents carrying one set of fields decodes them once. The
// ID and Stored map are freshly decoded, a per-call allocation.
func (ms *mappedShard) rowAt(ix *Index, ord int, prev []string) (docRow, bool) {
	br, ok := ms.entryAt(ix, ord)
	if !ok {
		return docRow{}, false
	}
	fail := func() (docRow, bool) {
		ix.lazyErr()
		return docRow{}, false
	}
	var row docRow
	var err error
	if row.ID, err = br.str(); err != nil || row.ID == "" {
		return fail()
	}
	n, err := br.count()
	if err != nil {
		return fail()
	}
	same := n == len(prev)
	for i := range n {
		k, err := br.bytes()
		if err == nil {
			_, err = br.bytes()
		}
		if err != nil {
			return fail()
		}
		if same && string(k) == prev[i] {
			continue
		}
		if same {
			same = false
			row.Fields = append(make([]string, 0, n), prev[:i]...)
		}
		row.Fields = append(row.Fields, string(k))
	}
	if same {
		row.Fields = prev[:n:n]
	}
	if row.Stored, err = br.strmap(); err != nil {
		return fail()
	}
	return row, true
}

// hitAt decodes what a search result needs from base ordinal ord's
// entry — the ID and the Stored map — stepping over Fields in place.
// An empty Stored map decodes to nil without allocating.
func (ms *mappedShard) hitAt(ix *Index, ord int) (string, map[string]string) {
	br, ok := ms.entryAt(ix, ord)
	if !ok {
		return "", nil
	}
	id, err := br.str()
	if err == nil && id != "" {
		if err = br.skipStrmap(); err == nil {
			var stored map[string]string
			if stored, err = br.strmap(); err == nil {
				return id, stored
			}
		}
	}
	ix.lazyErr()
	return "", nil
}

// fieldKeys yields the Fields keys of base ordinal ord's entry as
// views into the payload, in entry order, decoding nothing else. A
// corrupt entry yields what precedes the damage and is counted.
func (ms *mappedShard) fieldKeys(ix *Index, ord int) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		br, ok := ms.entryAt(ix, ord)
		if !ok {
			return
		}
		if _, err := br.bytes(); err != nil {
			ix.lazyErr()
			return
		}
		n, err := br.count()
		if err != nil {
			ix.lazyErr()
			return
		}
		for i := 0; i < n; i++ {
			k, err := br.bytes()
			if err == nil {
				_, err = br.bytes()
			}
			if err != nil {
				ix.lazyErr()
				return
			}
			if !yield(k) {
				return
			}
		}
	}
}

// entryBytes returns the whole encoded entry of base ordinal ord —
// ID, Fields, Stored — as a view into the payload, for verbatim
// re-encoding; nil for tombstones and corrupt entries.
func (ms *mappedShard) entryBytes(ix *Index, ord int) []byte {
	br, ok := ms.entryAt(ix, ord)
	if !ok {
		return nil
	}
	start := br.off
	id, err := br.bytes()
	if err == nil && len(id) > 0 {
		if err = br.skipStrmap(); err == nil {
			if err = br.skipStrmap(); err == nil {
				return br.buf[start:br.off:br.off]
			}
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
		ord := int(binary.LittleEndian.Uint32(ms.idSorted[i*4:]))
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

// materializeAllLocked converts the whole shard to the heap
// representation and detaches the mapping: the base doc table folds
// in under the overlay, then every still-mapped term is copied. Only
// compaction, which rewrites every list, needs it.
func (s *shard) materializeAllLocked() {
	if s.ms == nil {
		return
	}
	s.ix.mmMatDocTabs.Add(1)
	s.materializeDocsLocked()
	for _, fp := range s.fields {
		mf := fp.mapped
		if mf == nil {
			continue
		}
		for slot := 0; slot < mf.nTerms; slot++ {
			t, err := mf.termAt(slot)
			if err != nil {
				mf.ix.lazyErr()
				break
			}
			if _, ok := fp.terms[string(t)]; !ok {
				fp.promoteSlotLocked(string(t), slot)
			}
		}
		fp.mapped = nil
		fp.dict.Store(nil)
	}
	s.ms = nil
}

// materializeDocsLocked decodes the live base entries onto the heap
// ahead of the overlay, so ordinals keep their meaning and the base
// becomes empty. Corrupt entries — unreachable after the frame CRC —
// are counted and land as tombstones.
func (s *shard) materializeDocsLocked() {
	docs := make([]docRow, s.base, s.base+len(s.docs))
	if len(s.byID) == 0 {
		s.byID = make(map[string]int, s.live)
	}
	var prev []string
	for ord := range s.base {
		if !s.ms.liveAt(ord) {
			continue
		}
		if row, ok := s.ms.rowAt(s.ix, ord, prev); ok {
			docs[ord] = row
			s.byID[row.ID] = ord
			prev = row.Fields
		}
	}
	s.docs = append(docs, s.docs...)
	s.base = 0
}
