package index

import (
	"encoding/binary"
	"fmt"
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
// Mutability is copy-on-write with two granularities:
//
//   - the doc table (docs, byID) materializes onto the heap as a
//     whole on the shard's first mutation — every write needs the
//     ordinal space anyway;
//   - posting lists materialize per term: a write that touches one
//     term copies only that term's bytes to the heap, so a lightly
//     written tenant keeps almost all of its index off-heap.
//
// The invariant the v3 encoder relies on: a dirty shard (any
// mutation since attach) always has its doc table materialized, so
// re-encoding walks heap docs; a clean mapped shard re-encodes by
// writing its payload bytes verbatim.
//
// View slices are cap-clamped (buf[a:b:b]), so an append through a
// promoted posting list reallocates instead of scribbling on the
// mapping. Mapped payloads are never unmapped while the index lives
// (see internal/mmapio); decode errors on lazy paths — impossible
// after the frame CRC unless the writer was buggy — are counted on
// the index and degrade to "term/document absent" rather than panic.

// v3 shard payload layout (all offsets absolute within the payload):
//
//	header: 8 x u64 LE
//	  [0] nDocs  [1] live  [2] dead  [3] nFields
//	  [4] docDirOff  [5] idSortedOff  [6] fieldDirOff  [7] reserved
//	doc entries: per live doc: str ID, strmap Fields, strmap Stored
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
	// docsMat flips once when the doc table has been materialized
	// into s.docs/s.byID; after that the heap table is authoritative.
	docsMat bool
}

// mappedField is the view side of one field's term dictionary.
type mappedField struct {
	payload []byte
	termDir []byte // nTerms * 8
	nTerms  int
	// lazy caches decoded view posting lists by term. Pointer
	// identity matters: the cross-request cache keys decoded postings
	// by *postingList, so repeated lookups must return the same list.
	lazy sync.Map // term -> *postingList
	// names caches the decoded term dictionary (sorted).
	names atomic.Pointer[[]string]
	ix    *Index
}

// MMapStats reports where an index's bytes live: still mapped, or
// materialized onto the heap by writes.
type MMapStats struct {
	MappedShards        int   `json:"mappedShards"`
	MappedBytes         int64 `json:"mappedBytes"`
	MaterializedTerms   int64 `json:"materializedTerms"`
	MaterializedBytes   int64 `json:"materializedBytes"`
	MaterializedDocTabs int64 `json:"materializedDocTables"`
	LazyDecodeErrors    int64 `json:"lazyDecodeErrors"`
}

// MMapStats reports the index's mapped-vs-heap residency counters.
func (ix *Index) MMapStats() MMapStats {
	st := MMapStats{
		MappedBytes:         ix.mmMappedBytes.Load(),
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
	ix.mmMappedBytes.Add(int64(len(payload)))
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
		nTerms, err := br.count()
		if err != nil {
			return fail(err)
		}
		termDir, err := section(uint64(br.off), nTerms*8)
		if err != nil {
			return fail(fmt.Errorf("field %q: %w", name, err))
		}
		fp.mapped = &mappedField{payload: payload, termDir: termDir, nTerms: nTerms, ix: ix}
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

// decodeSlot builds a view posting list for dictionary slot i: block
// metadata on the heap (it is decoded integers either way), byte
// streams as cap-clamped views into the payload.
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

// lookupForWrite resolves a term for appending: a mapped term is
// first copied onto the heap (copy-on-write at term granularity) so
// the mutation cannot touch the mapping. Returns nil when the term
// does not exist yet anywhere. Callers hold the write lock.
func (fp *fieldPostings) lookupForWrite(term string) *postingList {
	return fp.promoteTermLocked(term, true)
}

// promoteTermLocked copies a mapped term's bytes onto the heap and
// installs the copy in the heap map. count selects whether the
// copy-on-write counters record it: writes do, a wholesale heap
// restore does not (there the heap is the chosen representation, not
// a mutation cost).
func (fp *fieldPostings) promoteTermLocked(term string, count bool) *postingList {
	if l, ok := fp.terms[term]; ok {
		return l
	}
	mf := fp.mapped
	if mf == nil {
		return nil
	}
	view := fp.lookup(term)
	if view == nil {
		return nil
	}
	heap := &postingList{
		n:       view.n,
		lastDoc: view.lastDoc,
		maxTF:   view.maxTF,
		docTF:   append([]byte(nil), view.docTF...),
		posBuf:  append([]byte(nil), view.posBuf...),
		blocks:  append([]blockMeta(nil), view.blocks...),
	}
	fp.terms[term] = heap
	mf.lazy.Delete(term)
	if count {
		mf.ix.mmMatTerms.Add(1)
		mf.ix.mmMatBytes.Add(int64(len(heap.docTF) + len(heap.posBuf)))
	}
	return heap
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

// numDocs returns the shard's ordinal-space size.
func (s *shard) numDocs() int {
	if s.ms != nil && !s.ms.docsMat {
		return s.ms.nDocs
	}
	return len(s.docs)
}

// liveAt reports whether ordinal ord holds a live document. O(1) on
// both representations: heap checks the doc table, mapped checks the
// doc directory's tombstone sentinel.
func (s *shard) liveAt(ord int) bool {
	if s.ms != nil && !s.ms.docsMat {
		return binary.LittleEndian.Uint64(s.ms.docDir[ord*8:]) != v3Tombstone
	}
	return s.docs[ord].ID != ""
}

// docEntryAt decodes the mapped doc entry at ordinal ord; ok=false
// for tombstones. The returned Document's maps are freshly decoded —
// a per-call allocation, so callers on hot paths should only reach it
// for actual hits.
func (ms *mappedShard) docEntryAt(ix *Index, ord int) (Document, bool) {
	off := binary.LittleEndian.Uint64(ms.docDir[ord*8:])
	if off == v3Tombstone {
		return Document{}, false
	}
	if off > uint64(len(ms.payload)) {
		ix.lazyErr()
		return Document{}, false
	}
	br := &binReader{buf: ms.payload, off: int(off)}
	doc := Document{}
	var err error
	if doc.ID, err = br.str(); err != nil || doc.ID == "" {
		ix.lazyErr()
		return Document{}, false
	}
	if doc.Fields, err = br.strmap(); err != nil {
		ix.lazyErr()
		return Document{}, false
	}
	if doc.Stored, err = br.strmap(); err != nil {
		ix.lazyErr()
		return Document{}, false
	}
	return doc, true
}

// idAt returns the document ID at ord ("" for tombstones).
func (s *shard) idAt(ord int) string {
	if s.ms != nil && !s.ms.docsMat {
		off := binary.LittleEndian.Uint64(s.ms.docDir[ord*8:])
		if off == v3Tombstone {
			return ""
		}
		if off > uint64(len(s.ms.payload)) {
			s.ix.lazyErr()
			return ""
		}
		br := &binReader{buf: s.ms.payload, off: int(off)}
		id, err := br.str()
		if err != nil {
			s.ix.lazyErr()
			return ""
		}
		return id
	}
	return s.docs[ord].ID
}

// docAt returns the document at ord (zero Document for tombstones).
func (s *shard) docAt(ord int) Document {
	if s.ms != nil && !s.ms.docsMat {
		doc, _ := s.ms.docEntryAt(s.ix, ord)
		return doc
	}
	return s.docs[ord]
}

// findOrd resolves a document ID to its ordinal. The mapped path
// binary-searches the ID-sorted ordinal permutation.
func (s *shard) findOrd(id string) (int, bool) {
	if s.ms == nil || s.ms.docsMat {
		ord, ok := s.byID[id]
		return ord, ok
	}
	ms := s.ms
	n := len(ms.idSorted) / 4
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		ord := int(binary.LittleEndian.Uint32(ms.idSorted[mid*4:]))
		if s.idAt(ord) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n {
		ord := int(binary.LittleEndian.Uint32(ms.idSorted[lo*4:]))
		if s.idAt(ord) == id {
			return ord, true
		}
	}
	return 0, false
}

// materializeDocsLocked decodes the mapped doc table into the heap
// representation (docs, byID). Corrupt entries — unreachable after
// the frame CRC — are counted and land as tombstones.
func (s *shard) materializeDocsLocked() {
	ms := s.ms
	if ms == nil || ms.docsMat {
		return
	}
	s.docs = make([]Document, ms.nDocs)
	s.byID = make(map[string]int, s.live)
	for ord := 0; ord < ms.nDocs; ord++ {
		doc, ok := ms.docEntryAt(s.ix, ord)
		if !ok {
			continue
		}
		s.docs[ord] = doc
		s.byID[doc.ID] = ord
	}
	ms.docsMat = true
}

// prepareWriteLocked is the copy-on-write hook every mutation runs
// first: materialize the doc table and mark the shard dirty, so the
// encoder knows this shard can no longer be written verbatim.
func (s *shard) prepareWriteLocked() {
	if s.ms != nil && !s.ms.docsMat {
		s.materializeDocsLocked()
		s.ix.mmMatDocTabs.Add(1)
	}
	s.dirty = true
}

// materializeAllLocked converts the whole shard to the heap
// representation and detaches the mapping: doc table, then every
// still-mapped term. Used by whole-shard rewrites (compaction,
// reshard migration) and by the heap restore path, where the "mapped"
// payload is a heap frame that should not stay referenced.
func (s *shard) materializeAllLocked(count bool) {
	if s.ms == nil {
		return
	}
	if count && !s.ms.docsMat {
		s.ix.mmMatDocTabs.Add(1)
	}
	s.materializeDocsLocked()
	for _, fp := range s.fields {
		mf := fp.mapped
		if mf == nil {
			continue
		}
		for _, term := range mf.mappedTermNames() {
			fp.promoteTermLocked(term, count)
		}
		fp.mapped = nil
		fp.dict.Store(nil)
	}
	s.ix.mmMappedBytes.Add(-int64(len(s.ms.payload)))
	s.ms = nil
}
