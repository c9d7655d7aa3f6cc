package index

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/frameio"
)

// Per-shard persistence: each shard serializes its postings, doc
// table and ordinal space directly, so restoring an index reattaches
// the inverted structures instead of reindexing every document.
// The index-level format is framed — a header frame describing the
// configuration, then one frame per shard — so Snapshot can encode
// shards concurrently and still write a deterministic byte stream,
// and restore can hand whole shard payloads to a decoding pool.
// Snapshot writes v4 and Restore reads only v4.
//
// The uvarint codec lives in encoding.go and is shared with the
// in-memory posting lists: snapshot encode streams postings straight
// out of the block-compressed resident representation, and decode
// appends straight back into it, with no intermediate slices.
//
// BM25 statistics need no separate persistence: queries aggregate
// live counts, field lengths and document frequencies across shards
// at evaluation time, and all of those integers are serialized
// exactly, so a restored index scores bit-identically to the index
// that was snapshotted (and to a fresh build of the same live docs).
//
// Analyzers are code, not data: they are never serialized. Restore
// keeps the analyzers registered on the receiving index and applies
// the snapshot's boosts, so the caller must configure field analyzers
// (SetFieldOptions) before restoring, exactly as before indexing.

// indexSnapshotMagic/indexSnapshotVersion guard the framed format.
// Version 4 is the mmap-friendly layout (mapped.go): 32-bit offset
// directories plus the raw block-compressed byte streams, so a shard
// attaches as a read-only view over the file instead of being decoded,
// and no per-document field names. It is the only version Restore
// reads; versions 1 to 3 are refused with frameio.ErrUnsupportedFormat.
const (
	indexSnapshotMagic   = "SYMIDX1\n"
	indexSnapshotVersion = 4
)

// indexHeader is the header frame: everything shard-independent.
type indexHeader struct {
	Version int                `json:"version"`
	Shards  int                `json:"shards"`
	Ranker  int                `json:"ranker"`
	K1      float64            `json:"k1"`
	B       float64            `json:"b"`
	Boosts  map[string]float64 `json:"boosts"`
}

// Shard payloads are binary, not JSON: postings dominate snapshot
// size, and uvarint encoding keeps them a fraction of the equivalent
// JSON while encoding several times faster. Map keys are sorted
// wherever maps are walked, so identical state encodes to identical
// bytes.

// snapshotShard serializes this shard in the mmap-friendly v4 layout
// (see mapped.go for the full map). A shard that is still an
// untouched mapped view writes its payload bytes verbatim — the
// incremental-checkpoint fast path that makes re-checkpointing a
// mapped, read-mostly corpus byte-copy cheap. A written mapped shard
// copies its surviving base doc entries and still-mapped term entries
// verbatim and encodes only the overlay; the bytes are the ones a
// decode of the whole shard followed by a fresh encode would write.
func (s *shard) snapshotShard(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ms != nil && !s.dirty {
		_, err := w.Write(s.ms.payload)
		return err
	}
	bw := &binWriter{}
	nDocs := s.numDocs()
	bw.reserve(shardHeaderLen)
	// Doc entries first, recording each live doc's offset; the
	// directory and ID permutation follow.
	docOff := make([]uint32, nDocs)
	for ord := 0; ord < s.base; ord++ {
		var e []byte
		if s.ms.liveAt(ord) {
			e = s.ms.entryBytes(s.ix, ord)
		}
		if e == nil {
			docOff[ord] = dirTombstone
			continue
		}
		docOff[ord] = uint32(len(bw.buf))
		bw.buf = append(bw.buf, e...)
	}
	type idOrd struct {
		id  string
		ord int
	}
	overlay := make([]idOrd, 0, len(s.byID))
	for i := range s.docs {
		row, ord := &s.docs[i], s.base+i
		if row.ID == "" {
			docOff[ord] = dirTombstone
			continue
		}
		docOff[ord] = uint32(len(bw.buf))
		bw.str(row.ID)
		bw.strmap(row.Stored)
		overlay = append(overlay, idOrd{row.ID, ord})
	}
	docDirOff := len(bw.buf)
	for _, off := range docOff {
		bw.u32(off)
	}
	// The ID permutation merges the base's (already ID-sorted, minus
	// the dead) with the sorted overlay; the two share no live ID.
	slices.SortFunc(overlay, func(a, b idOrd) int { return strings.Compare(a.id, b.id) })
	idSortedOff := len(bw.buf)
	j := 0
	if s.ms != nil {
		for i := 0; i < len(s.ms.idSorted)/4; i++ {
			ord := int(u32At(s.ms.idSorted, i*4))
			if ord >= s.base || docOff[ord] == dirTombstone {
				continue
			}
			id := s.ms.idBytesAt(s.ix, ord)
			for ; j < len(overlay) && overlay[j].id < string(id); j++ {
				bw.u32(uint32(overlay[j].ord))
			}
			bw.u32(uint32(ord))
		}
	}
	for ; j < len(overlay); j++ {
		bw.u32(uint32(overlay[j].ord))
	}
	names := make([]string, 0, len(s.fields))
	for name := range s.fields {
		names = append(names, name)
	}
	sort.Strings(names)
	fieldOffs := make([]uint32, len(names))
	for fi, name := range names {
		fp := s.fields[name]
		fieldOffs[fi] = uint32(len(bw.buf))
		bw.str(name)
		bw.uvarint(fp.totalLen)
		bw.uvarint(fp.docCount)
		bw.uvarint(fp.minLen)
		// The ordinals carrying the field: the base's from its mapped
		// length list, the overlay's from their rows' field names.
		ords := make([]int, 0, fp.docCount)
		if mf := fp.mapped; mf != nil {
			// attachShard validated the list: ordinals below nDocs.
			br := binReader{buf: mf.lens}
			for range mf.nLens {
				ord, _ := br.uvarint()
				br.uvarint()
				if docOff[ord] != dirTombstone {
					ords = append(ords, ord)
				}
			}
		}
		for i := range s.docs {
			if row := &s.docs[i]; row.ID != "" && slices.Contains(row.Fields, name) {
				ords = append(ords, s.base+i)
			}
		}
		bw.uvarint(len(ords))
		for _, ord := range ords {
			bw.uvarint(ord)
			bw.uvarint(fp.lenAt(ord))
		}
		if fp.mapped == nil {
			terms := fp.sortedTerms()
			bw.uvarint(len(terms))
			termDirOff := bw.reserve(len(terms) * 4)
			for ti, term := range terms {
				bw.patchU32(termDirOff+ti*4, len(bw.buf))
				bw.termEntry(term, fp.terms[term])
			}
			continue
		}
		plan := fp.encodePlan()
		bw.uvarint(len(plan))
		termDirOff := bw.reserve(len(plan) * 4)
		for ti, te := range plan {
			bw.patchU32(termDirOff+ti*4, len(bw.buf))
			if te.list == nil {
				bw.buf = append(bw.buf, te.raw...)
			} else {
				bw.termEntry(te.term, te.list)
			}
		}
	}
	fieldDirOff := len(bw.buf)
	for _, off := range fieldOffs {
		bw.u32(off)
	}
	// A payload is one frame: past the frame limit the u32 offsets
	// above have wrapped, and no reader would take the frame anyway.
	if len(bw.buf) > frameio.MaxFrame {
		return fmt.Errorf("index: shard payload of %d bytes exceeds the %d-byte frame limit", len(bw.buf), frameio.MaxFrame)
	}
	hdr := []int{nDocs, s.live, s.dead, len(names), docDirOff, idSortedOff, fieldDirOff}
	for i, x := range hdr {
		bw.patchU32(i*4, x)
	}
	_, err := w.Write(bw.buf)
	return err
}

// termEntry encodes one term entry from a posting list.
func (bw *binWriter) termEntry(term string, list *postingList) {
	bw.str(term)
	bw.uvarint(list.n)
	bw.uvarint(list.lastDoc)
	bw.uvarint(list.maxTF)
	bw.uvarint(len(list.blocks))
	for _, b := range list.blocks {
		bw.uvarint(b.firstDoc)
		bw.uvarint(b.docOff)
		bw.uvarint(b.posOff)
		bw.uvarint(b.maxTF)
	}
	bw.uvarint(len(list.docTF))
	bw.buf = append(bw.buf, list.docTF...)
	bw.uvarint(len(list.posBuf))
	bw.buf = append(bw.buf, list.posBuf...)
}

// termEntry is one term of a mapped field's encoded dictionary: a
// heap list to encode, or a still-mapped term entry to copy verbatim.
type termEntry struct {
	term string
	list *postingList
	raw  []byte
}

// encodePlan returns a mapped field's dictionary in term order: the
// mapped slots merged with the heap terms, a heap list (new or
// promoted) winning over the mapped slot of the same term. Corrupt
// slots are counted and left out, as a decode would.
func (fp *fieldPostings) encodePlan() []termEntry {
	mf := fp.mapped
	// fp.dict caches the merged dictionary on a mapped field, so the
	// heap terms are sorted here instead of through sortedTerms.
	heap := make([]string, 0, len(fp.terms))
	for t := range fp.terms {
		heap = append(heap, t)
	}
	sort.Strings(heap)
	plan := make([]termEntry, 0, mf.nTerms+len(heap))
	j := 0
	for slot := 0; slot < mf.nTerms; slot++ {
		term, raw, err := mf.slotBytes(slot)
		if err != nil {
			mf.ix.lazyErr()
			continue
		}
		for ; j < len(heap) && heap[j] < string(term); j++ {
			plan = append(plan, termEntry{term: heap[j], list: fp.terms[heap[j]]})
		}
		if j < len(heap) && heap[j] == string(term) {
			plan = append(plan, termEntry{term: heap[j], list: fp.terms[heap[j]]})
			j++
			continue
		}
		plan = append(plan, termEntry{raw: raw})
	}
	for ; j < len(heap); j++ {
		plan = append(plan, termEntry{term: heap[j], list: fp.terms[heap[j]]})
	}
	return plan
}

// Snapshot serializes the whole index in format v4: a header frame
// with the scoring configuration and field boosts, then one frame per
// shard. Shard frames are encoded concurrently (each under its own
// read lock) and written in shard order, so the output is
// deterministic. Shards that are still clean mapped views write their
// payload bytes verbatim.
func (ix *Index) Snapshot(w io.Writer) error {
	r := ix.ring.Load()
	hdr := indexHeader{
		Version: indexSnapshotVersion,
		Shards:  len(r.shards),
		Boosts:  make(map[string]float64),
	}
	ix.cfg.RLock()
	hdr.Ranker = int(ix.cfg.ranker)
	hdr.K1, hdr.B = ix.cfg.k1, ix.cfg.b
	for f, opts := range ix.cfg.fields {
		hdr.Boosts[f] = opts.Boost
	}
	ix.cfg.RUnlock()

	if err := frameio.WriteMagic(w, indexSnapshotMagic); err != nil {
		return err
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if err := frameio.WriteFrame(w, hdrBytes); err != nil {
		return err
	}
	bufs := make([]bytes.Buffer, len(r.shards))
	errs := make([]error, len(r.shards))
	eachShard(r, func(i int, s *shard) {
		errs[i] = s.snapshotShard(&bufs[i])
	})
	for i := range r.shards {
		if errs[i] != nil {
			return fmt.Errorf("index: snapshot shard %d: %w", i, errs[i])
		}
		if err := frameio.WriteFrame(w, bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Restore replaces the index contents from a v4 Snapshot stream,
// attached in place: each shard becomes an immutable base over its
// frame's bytes under a heap overlay (mapped.go), so data — typically
// an mmap'd snapshot file — must stay valid and unmodified for the
// life of the index. A version 1, 2 or 3 stream fails with
// frameio.ErrUnsupportedFormat.
//
// Shards restore in the layout they were written with (document
// routing hashes by ID mod shard count): the shard count belongs to
// the data, so a checkpoint boots fully mapped on any host. Only an
// index whose count was fixed (WithShards, or a completed
// ReshardContext) reshards a snapshot written with another count,
// which moves every document onto the heap, with rankings
// bit-identical to a fresh build at the fixed count.
//
// Frame checksums are verified and every shard is attached before
// anything is installed, so a truncated or corrupt snapshot
// fails here and leaves the index unchanged. Restore must not run
// concurrently with other operations on the same index: callers
// restore into a fresh or quiesced index.
func (ix *Index) Restore(data []byte) error {
	const op = "index: restore"
	off := len(indexSnapshotMagic)
	if len(data) < off || string(data[:off]) != indexSnapshotMagic {
		return fmt.Errorf("%s: bad magic", op)
	}
	hdrBytes, off, err := frameio.NextFrameInBuf(data, off, true)
	if err != nil {
		return fmt.Errorf("%s header: %w", op, err)
	}
	var hdr indexHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return fmt.Errorf("%s header: %w", op, err)
	}
	if hdr.Version >= 1 && hdr.Version < indexSnapshotVersion {
		return fmt.Errorf("%s: snapshot version %d, the floor is %d: %w",
			op, hdr.Version, indexSnapshotVersion, frameio.ErrUnsupportedFormat)
	}
	if hdr.Version != indexSnapshotVersion {
		return fmt.Errorf("%s: unknown snapshot version %d", op, hdr.Version)
	}
	// Bound the shard count before it sizes allocations and goroutine
	// fan-out: no sane snapshot exceeds this, and a corrupt-but-CRC-
	// valid header must fail cleanly, not OOM.
	const maxShards = 1 << 16
	if hdr.Shards < 1 || hdr.Shards > maxShards {
		return fmt.Errorf("%s: snapshot has %d shards", op, hdr.Shards)
	}
	frames := make([][]byte, hdr.Shards)
	for i := range frames {
		if frames[i], off, err = frameio.NextFrameInBuf(data, off, true); err != nil {
			return fmt.Errorf("%s shard %d: %w", op, i, err)
		}
	}
	if off != len(data) {
		return fmt.Errorf("%s: %d trailing bytes after %d shard frames", op, len(data)-off, hdr.Shards)
	}

	// Merge field options before attaching, without installing them:
	// analyzers registered on the receiver survive, snapshot boosts
	// win. Attached shards bind options from this merged view, and
	// nothing mutates the index until every shard attached cleanly.
	merged := make(map[string]FieldOptions, len(hdr.Boosts))
	ix.cfg.RLock()
	for f, boost := range hdr.Boosts {
		opts := ix.cfg.fields[f]
		opts.Boost = boost
		merged[f] = opts
	}
	ix.cfg.RUnlock()
	optsFor := func(field string) (FieldOptions, bool) {
		opts, ok := merged[field]
		return opts, ok
	}

	shards := make([]*shard, hdr.Shards)
	errs := make([]error, hdr.Shards)
	fanOut(hdr.Shards, func(i int) {
		shards[i], errs[i] = ix.attachShard(frames[i], optsFor)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s shard %d: %w", op, i, err)
		}
	}
	ix.cfg.Lock()
	ix.cfg.ranker = Ranker(hdr.Ranker)
	ix.cfg.k1, ix.cfg.b = hdr.K1, hdr.B
	for f, opts := range merged {
		ix.cfg.fields[f] = opts
	}
	ix.cfg.Unlock()
	ix.invalidateAnalysis()
	old := ix.ring.Load()
	ix.ring.Store(&ring{gen: old.gen + 1, shards: shards})
	if ix.target > 0 && hdr.Shards != ix.target {
		return ix.ReshardContext(context.Background(), ix.target)
	}
	return nil
}
