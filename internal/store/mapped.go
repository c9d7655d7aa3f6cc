package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/frameio"
	"repro/internal/index"
)

// Mapped record sections: the store half of zero-copy boot.
//
// A v5 dataset frame carries its records in a binary record section
// laid out so a restore can serve reads straight out of the snapshot
// file's mapped bytes:
//
//	u32      count                   (little-endian)
//	u32      nblocks
//	recDir   count x u32             ID offsets, insertion order
//	idSorted count x u32             entry indices sorted by record ID
//	blockDir nblocks x {u32 first, u32 off}
//	ids      count x {uvarint-len id}
//	blocks   nblocks x {uvarint inflated length, raw DEFLATE}
//
// A record can only carry its dataset's schema fields (checkRecord),
// so an entry names none: present is a bitmap of ceil(fields/8) bytes,
// bit i (least significant first) set when the record carries schema
// field i, and values holds each present field's uvarint-len value in
// schema order. A field present with the empty value and a missing
// field stay distinct.
//
// The entries (present, values) lie back to back in insertion order,
// cut into blocks of whole entries: block b holds entries first_b up
// to first_b+1, and a block closes once it holds recordBlockTarget
// bytes of them. Each block is raw DEFLATE (compress/flate at
// recordBlockLevel) prefixed by its inflated length, and its
// compressed bytes run to the next block's offset (the section's end
// for the last). A section holding less than recordDeflateMin bytes of
// entries writes them as DEFLATE stored blocks, which the same reader
// inflates. The IDs and directories stay plain: a lookup by ID
// binary-searches idSorted over the IDs in place and inflates
// nothing. Offsets are 32-bit: a section is part of one frame, at most
// frameio.MaxFrame bytes.
//
// A read inflates the one block its entry is in, into pooled scratch;
// a recordCursor keeps the last block it inflated, so a request that
// reads its entries in insertion order inflates each block it touches
// once. A dataset restored mapped keeps the section as an immutable
// base under a heap overlay: records holds what was written since
// attach, a replaced base record is shadowed there and keeps its
// position, a deleted one gets a bit in the base's dead set, and a new
// or re-added one joins order after the base. A write therefore costs
// O(rows written), never a decode of the section. An entry is a pure
// function of the record and the schema, and a block boundary of the
// entries' lengths, so the encoder can copy surviving base entries
// verbatim out of their inflated blocks and still produce the bytes a
// fresh encode of the same content would.

const (
	// recordBlockTarget is the entry bytes at which a block closes.
	recordBlockTarget = 4 << 10
	// recordBlockLevel is the DEFLATE level blocks are written at.
	recordBlockLevel = flate.BestSpeed
	// recordDeflateMin is the entry bytes below which a section's
	// blocks are stored, DEFLATE's uncompressed block type: they would
	// compress by ~10 KB at most, and a flate writer costs ~1.2 MB and
	// ~0.5 ms to make, which a snapshot of small datasets alone would
	// pay for nothing else.
	recordDeflateMin = 4 * recordBlockTarget
	// maxPooledBlock bounds the scratch a pooled inflater keeps: one
	// that inflated a block holding an outsized record is dropped.
	maxPooledBlock = 256 << 10
)

var errRecordSection = fmt.Errorf("store: corrupt record section")

// appendStr appends s with its uvarint length prefix.
func appendStr[T string | []byte](b []byte, s T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendEntry appends rec's entry: its presence bitmap over fields,
// then its present values in schema order. Keys outside the schema
// are not written: checkRecord admits none.
func appendEntry(b []byte, fields []Field, rec Record) []byte {
	present := len(b)
	b = append(b, make([]byte, (len(fields)+7)/8)...)
	for f, field := range fields {
		if _, ok := rec[field.Name]; ok {
			b[present+(f>>3)] |= 1 << (f & 7)
		}
	}
	for _, field := range fields {
		if v, ok := rec[field.Name]; ok {
			b = appendStr(b, v)
		}
	}
	return b
}

// entryEnd returns the end of the entry at off in b, or ok=false when
// it runs past b or its bitmap sets a bit past the last of nfields.
func entryEnd(b []byte, off, nfields int) (int, bool) {
	next := off + (nfields+7)/8
	if next > len(b) {
		return 0, false
	}
	present := b[off:next]
	if extra := nfields % 8; extra != 0 && present[len(present)-1]>>extra != 0 {
		return 0, false
	}
	for f := range nfields {
		if !hasField(present, f) {
			continue
		}
		n, w := binary.Uvarint(b[next:])
		if w <= 0 || n > uint64(len(b)-next-w) {
			return 0, false
		}
		next += w + int(n)
	}
	return next, true
}

// hasField reports whether bitmap present marks schema field f.
func hasField(present []byte, f int) bool { return present[f>>3]&(1<<(f&7)) != 0 }

// decodeEntry decodes an entry entryEnd accepted into a fresh record
// keyed by the schema's own name strings.
func decodeEntry(entry []byte, fields []Field) Record {
	present, off := entry, (len(fields)+7)/8
	rec := make(Record, len(fields))
	for f, field := range fields {
		if !hasField(present, f) {
			continue
		}
		n, w := binary.Uvarint(entry[off:])
		off += w
		rec[field.Name] = string(entry[off : off+int(n)])
		off += int(n)
	}
	return rec
}

// mappedRecords is a record section attached in place: raw stays a
// view over the snapshot's bytes (mapped or heap — the code path is
// the same), entries inflate on demand.
type mappedRecords struct {
	raw      []byte
	count    int
	nblocks  int
	recDir   []byte // count x u32
	idSorted []byte // count x u32
	blockDir []byte // nblocks x {u32 first, u32 off}
	// ids is raw up to the first block, so an ID read cannot run
	// into compressed bytes.
	ids []byte
	// fields is the schema's field list: the entries' presence bits
	// and values follow its order, and a decoded record's keys are its
	// name strings.
	fields []Field
	// gone marks positions deleted since attach (nil until the first
	// delete) and nGone counts them. Guarded by the dataset lock.
	gone  []uint64
	nGone int
	// inflates counts the blocks inflated to serve reads and encodes.
	inflates atomic.Uint64
}

// attachRecordSection validates the section's directories, IDs and
// block headers against schema — entry content is trusted to the
// frame checksum and inflated lazily.
func attachRecordSection(raw []byte, schema Schema) (*mappedRecords, error) {
	if len(raw) < 8 || len(schema.Fields) == 0 {
		return nil, errRecordSection
	}
	mr := &mappedRecords{raw: raw, fields: schema.Fields}
	// Every entry needs a dir slot (4), an idSorted slot (4) and an ID
	// length, and every block a directory slot (8) and at least one
	// entry, so an impossible count fails fast.
	count := int(binary.LittleEndian.Uint32(raw))
	nblocks := int(binary.LittleEndian.Uint32(raw[4:]))
	if count*9+nblocks*8 > len(raw)-8 || nblocks > count || (count > 0) != (nblocks > 0) {
		return nil, errRecordSection
	}
	dirEnd := 8 + count*4
	idEnd := dirEnd + count*4
	bdEnd := idEnd + nblocks*8
	mr.count, mr.nblocks = count, nblocks
	mr.recDir = raw[8:dirEnd:dirEnd]
	mr.idSorted = raw[dirEnd:idEnd:idEnd]
	mr.blockDir = raw[idEnd:bdEnd:bdEnd]
	idsEnd := len(raw)
	if nblocks > 0 {
		idsEnd = mr.blockOff(0)
	}
	if idsEnd < bdEnd || idsEnd > len(raw) {
		return nil, errRecordSection
	}
	mr.ids = raw[:idsEnd:idsEnd]
	for i := 0; i < count; i++ {
		if off := mr.entryOff(i); off < bdEnd || off >= idsEnd {
			return nil, errRecordSection
		}
	}
	// idSorted must list the entries by strictly ascending ID, which
	// makes it a permutation and the IDs distinct: find binary-searches
	// it, and a base holding an ID twice would answer two ways.
	var prev []byte
	for k := 0; k < count; k++ {
		i := int(binary.LittleEndian.Uint32(mr.idSorted[k*4:]))
		if i >= count {
			return nil, errRecordSection
		}
		id, ok := mr.idBytesAt(i)
		if !ok || (k > 0 && bytes.Compare(prev, id) >= 0) {
			return nil, errRecordSection
		}
		prev = id
	}
	// Blocks start at entry 0 and at the end of the IDs, and both
	// their first entries and their offsets ascend strictly. A block
	// declares an inflated length within a frame, with room for its
	// entries' bitmaps, and has compressed bytes after it; whether the
	// stream yields exactly that length is checked when it inflates.
	for b := 0; b < nblocks; b++ {
		first, end := mr.blockEntries(b)
		if (b == 0 && first != 0) || first >= end {
			return nil, errRecordSection
		}
		off, compEnd := mr.blockOff(b), len(raw)
		if b+1 < nblocks {
			compEnd = mr.blockOff(b + 1)
		}
		if compEnd <= off || compEnd > len(raw) {
			return nil, errRecordSection
		}
		size, w := binary.Uvarint(raw[off:compEnd])
		if w <= 0 || w >= compEnd-off || size > frameio.MaxFrame || size < uint64((end-first)*mr.presentLen()) {
			return nil, errRecordSection
		}
	}
	return mr, nil
}

// presentLen is the byte length of an entry's presence bitmap.
func (mr *mappedRecords) presentLen() int { return (len(mr.fields) + 7) / 8 }

func (mr *mappedRecords) entryOff(i int) int {
	return int(binary.LittleEndian.Uint32(mr.recDir[i*4:]))
}

func (mr *mappedRecords) blockOff(b int) int {
	return int(binary.LittleEndian.Uint32(mr.blockDir[b*8+4:]))
}

// blockEntries returns the entries block b holds, [first, end).
func (mr *mappedRecords) blockEntries(b int) (first, end int) {
	first = int(binary.LittleEndian.Uint32(mr.blockDir[b*8:]))
	end = mr.count
	if b+1 < mr.nblocks {
		end = int(binary.LittleEndian.Uint32(mr.blockDir[(b+1)*8:]))
	}
	return first, end
}

// block returns block b's declared inflated length and its DEFLATE
// stream, which attach bounds-checked.
func (mr *mappedRecords) block(b int) (size int, comp []byte) {
	off, end := mr.blockOff(b), len(mr.raw)
	if b+1 < mr.nblocks {
		end = mr.blockOff(b + 1)
	}
	n, w := binary.Uvarint(mr.raw[off:end])
	return int(n), mr.raw[off+w : end : end]
}

// blockOf returns the block holding entry i.
func (mr *mappedRecords) blockOf(i int) int {
	return sort.Search(mr.nblocks, func(b int) bool {
		return int(binary.LittleEndian.Uint32(mr.blockDir[b*8:])) > i
	}) - 1
}

// idBytesAt returns the record ID of entry i as a view into raw.
func (mr *mappedRecords) idBytesAt(i int) ([]byte, bool) {
	off := mr.entryOff(i)
	n, w := binary.Uvarint(mr.ids[off:])
	if w <= 0 || n > uint64(len(mr.ids)-off-w) {
		return nil, false
	}
	off += w
	return mr.ids[off : off+int(n) : off+int(n)], true
}

// recordAt decodes entry i, inflating its block. The returned record
// is freshly allocated and owned by the caller; its keys are the
// schema's names.
func (mr *mappedRecords) recordAt(i int) (Record, bool) {
	cur := mr.cursor()
	defer cur.close()
	return cur.record(i)
}

// inflater is pooled inflate state: a DEFLATE reader and its source,
// scratch for one inflated block, and where each of its entries
// starts.
type inflater struct {
	src  bytes.Reader
	zr   io.ReadCloser
	buf  []byte
	offs []int
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate inflates comp into z.buf, reporting whether it is a whole
// DEFLATE stream that yields exactly size bytes. The scratch grows
// with what the stream yields, never to a declared size it has not
// produced, so a hostile length allocates nothing extra.
func (z *inflater) inflate(comp []byte, size int) bool {
	z.src.Reset(comp)
	if z.zr == nil {
		z.zr = flate.NewReader(&z.src)
	} else if err := z.zr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return false
	}
	buf := z.buf[:0]
	defer func() { z.buf = buf }()
	for {
		if len(buf) == cap(buf) {
			// Room for as much again as yielded so far, at most one
			// byte past size: that byte catches a stream running past.
			buf = slices.Grow(buf, min(max(len(buf), 4<<10), size+1-len(buf)))
		}
		n, err := z.zr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > size:
			return false
		case err == io.EOF:
			return len(buf) == size && z.src.Len() == 0
		case err != nil:
			return false
		}
	}
}

// scan records where the n entries of the inflated block start:
// offs[k] and offs[k+1] bound entry k. It stops at the first
// malformed entry, past which nothing in the block can be located.
func (z *inflater) scan(n, nfields int) {
	z.offs = append(z.offs[:0], 0)
	off := 0
	for range n {
		var ok bool
		if off, ok = entryEnd(z.buf, off, nfields); !ok {
			return
		}
		z.offs = append(z.offs, off)
	}
}

// recordCursor reads base entries for one request. It keeps the block
// it inflated last, so entries read in insertion order inflate each
// block once; the pooled inflater is taken on the first read and
// given back by close.
type recordCursor struct {
	mr    *mappedRecords
	z     *inflater
	block int // the inflated block, -1 before the first
	first int // its first entry
}

func (mr *mappedRecords) cursor() recordCursor { return recordCursor{mr: mr, block: -1} }

// entry returns entry i's bitmap and values as a view into the
// cursor's scratch, valid until it moves to another block; ok=false
// when the block does not inflate or the entry is malformed.
func (c *recordCursor) entry(i int) ([]byte, bool) {
	if b := c.mr.blockOf(i); b != c.block {
		if c.z == nil {
			c.z = inflaters.Get().(*inflater)
		}
		c.mr.inflates.Add(1)
		first, end := c.mr.blockEntries(b)
		c.block, c.first = b, first
		if size, comp := c.mr.block(b); c.z.inflate(comp, size) {
			c.z.scan(end-first, len(c.mr.fields))
		} else {
			c.z.offs = c.z.offs[:0]
		}
	}
	k := i - c.first
	if k+1 >= len(c.z.offs) {
		return nil, false
	}
	return c.z.buf[c.z.offs[k]:c.z.offs[k+1]], true
}

// record decodes entry i into a fresh record.
func (c *recordCursor) record(i int) (Record, bool) {
	entry, ok := c.entry(i)
	if !ok {
		return nil, false
	}
	return decodeEntry(entry, c.mr.fields), true
}

// close gives the inflater back to the pool.
func (c *recordCursor) close() {
	if z := c.z; z != nil {
		c.z, c.block = nil, -1
		if cap(z.buf) <= maxPooledBlock {
			inflaters.Put(z)
		}
	}
}

// find binary-searches idSorted, which attach validated, for id,
// returning the entry's insertion-order index. Probes compare raw
// bytes in place, so a lookup allocates and inflates nothing. The
// entry may have died since attach; callers check isGone.
func (mr *mappedRecords) find(id string) (int, bool) {
	lo, hi := 0, mr.count
	for lo < hi {
		mid := (lo + hi) / 2
		ord := int(binary.LittleEndian.Uint32(mr.idSorted[mid*4:]))
		got, _ := mr.idBytesAt(ord)
		switch {
		case string(got) < id:
			lo = mid + 1
		case string(got) > id:
			hi = mid
		default:
			return ord, true
		}
	}
	return 0, false
}

func (mr *mappedRecords) isGone(i int) bool {
	return mr.gone != nil && mr.gone[i>>6]&(1<<(i&63)) != 0
}

func (mr *mappedRecords) kill(i int) {
	if mr.gone == nil {
		mr.gone = make([]uint64, (mr.count+63)/64)
	}
	mr.gone[i>>6] |= 1 << (i & 63)
	mr.nGone++
}

// flateWriters holds the flate writers of one snapshot pass that no
// frame is using. A frame takes one for its first block and gives it
// back with its section, so a pass makes at most one per encode
// worker: a writer costs ~1.2 MB and ~0.5 ms to make, more than
// compressing a small dataset's records. The pass drops them all when
// it ends, so the serving heap never keeps one. A nil flateWriters
// makes a writer for every section that compresses.
type flateWriters chan *flate.Writer

func (ws flateWriters) get() *flate.Writer {
	select {
	case zw := <-ws:
		return zw
	default:
		zw, _ := flate.NewWriter(nil, recordBlockLevel) // a valid level cannot fail
		return zw
	}
}

func (ws flateWriters) put(zw *flate.Writer) {
	select {
	case ws <- zw:
	default:
	}
}

// sectionWriter builds a record section entry by entry: each ID into
// the plain ID area, each entry into the open block, which closes once
// it holds recordBlockTarget bytes. Closed blocks are held as entries
// until the section reaches recordDeflateMin bytes of them, and
// compressed from then on; a section that never does is written as
// stored blocks.
type sectionWriter struct {
	fields   []Field
	n        int
	ids      []byte
	idOffs   []uint32 // entry -> its ID's offset in ids
	blockDir []uint32 // first entry, offset in blocks; per block
	blocks   bytes.Buffer
	// open holds the entries no block stream holds yet: the held
	// blocks', each starting at its held offset, then the open one's.
	open    []byte
	held    []int // first entry, offset in open; per held block
	first   int   // the open block's first entry
	start   int   // the open block's offset in open
	deflate bool  // the section has reached recordDeflateMin
	writers flateWriters
	zw      *flate.Writer
}

// addRecord appends the entry of a record written since attach.
func (w *sectionWriter) addRecord(id string, rec Record) {
	w.idOffs = append(w.idOffs, uint32(len(w.ids)))
	w.ids = appendStr(w.ids, id)
	w.open = appendEntry(w.open, w.fields, rec)
	w.endEntry()
}

// addEntry appends an encoded base entry verbatim.
func (w *sectionWriter) addEntry(id, entry []byte) {
	w.idOffs = append(w.idOffs, uint32(len(w.ids)))
	w.ids = appendStr(w.ids, id)
	w.open = append(w.open, entry...)
	w.endEntry()
}

func (w *sectionWriter) endEntry() {
	w.n++
	if len(w.open)-w.start >= recordBlockTarget {
		w.closeBlock()
		// Until a block stream is written, open holds every entry.
		if w.deflate = w.deflate || len(w.open) >= recordDeflateMin; w.deflate {
			w.writeHeld()
		}
	}
}

// closeBlock holds the open block, if it has an entry, and opens the
// next.
func (w *sectionWriter) closeBlock() {
	if len(w.open) > w.start {
		w.held = append(w.held, w.first, w.start)
		w.first, w.start = w.n, len(w.open)
	}
}

// writeHeld writes the held blocks, compressed once the section has
// reached recordDeflateMin and stored before, and empties open. A
// flate writer fails only when the writer under it does, and writes
// to a bytes.Buffer do not fail.
func (w *sectionWriter) writeHeld() {
	for k := 0; k < len(w.held); k += 2 {
		end := len(w.open)
		if k+2 < len(w.held) {
			end = w.held[k+3]
		}
		entries := w.open[w.held[k+1]:end]
		w.blockDir = append(w.blockDir, uint32(w.held[k]), uint32(w.blocks.Len()))
		w.blocks.Write(binary.AppendUvarint(w.blocks.AvailableBuffer(), uint64(len(entries))))
		if !w.deflate {
			w.blocks.Write(appendStored(w.blocks.AvailableBuffer(), entries))
			continue
		}
		if w.zw == nil {
			w.zw = w.writers.get()
		}
		w.zw.Reset(&w.blocks)
		w.zw.Write(entries)
		w.zw.Close()
	}
	w.held, w.open, w.start = w.held[:0], w.open[:0], 0
}

// appendStored appends b, which is not empty, as a raw DEFLATE stream
// of stored blocks: a byte holding BFINAL and BTYPE 00, then LEN and
// its complement, then LEN bytes, at most 65 535 of them.
func appendStored(dst, b []byte) []byte {
	for len(b) > 0 {
		n := min(len(b), 0xffff)
		final := byte(0)
		if n == len(b) {
			final = 1
		}
		dst = append(dst, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst, b = append(dst, b[:n]...), b[n:]
	}
	return dst
}

// section writes the blocks still held, gives the flate writer back
// and lays the section out, idSorted giving the entries in ID order.
func (w *sectionWriter) section(idSorted []uint32) []byte {
	w.closeBlock()
	w.deflate = w.deflate || len(w.open) >= recordDeflateMin
	w.writeHeld()
	if w.zw != nil {
		w.writers.put(w.zw)
		w.zw = nil
	}
	nblocks := len(w.blockDir) / 2
	idsAt := 8 + w.n*8 + nblocks*8
	blocksAt := idsAt + len(w.ids)
	le := binary.LittleEndian
	out := make([]byte, 0, blocksAt+w.blocks.Len())
	out = le.AppendUint32(out, uint32(w.n))
	out = le.AppendUint32(out, uint32(nblocks))
	for _, off := range w.idOffs {
		out = le.AppendUint32(out, uint32(idsAt)+off)
	}
	for _, i := range idSorted {
		out = le.AppendUint32(out, i)
	}
	for b := 0; b < nblocks; b++ {
		out = le.AppendUint32(out, w.blockDir[2*b])
		out = le.AppendUint32(out, uint32(blocksAt)+w.blockDir[2*b+1])
	}
	out = append(out, w.ids...)
	return append(out, w.blocks.Bytes()...)
}

// Dataset record accessors. Every path goes through these so a
// dataset serves identically whether a record lives in the heap
// overlay or the mapped base. All require d.mu held (read paths at
// least RLock, writers the write lock).

func (d *Dataset) lenLocked() int {
	n := len(d.order)
	if mr := d.mrecs; mr != nil {
		n += mr.count - mr.nGone
	}
	return n
}

// baseLiveLocked returns the base position of id when the base holds
// it and it has not been deleted since attach.
func (d *Dataset) baseLiveLocked(id string) (int, bool) {
	mr := d.mrecs
	if mr == nil {
		return 0, false
	}
	i, ok := mr.find(id)
	if !ok || mr.isGone(i) {
		return 0, false
	}
	return i, true
}

func (d *Dataset) existsLocked(id string) bool {
	if _, ok := d.records[id]; ok {
		return true
	}
	_, ok := d.baseLiveLocked(id)
	return ok
}

// recordViewLocked returns a read-only view of the record: the
// overlay's map, or a fresh decode of the base entry. Callers must
// copy before mutating or retaining past the lock.
func (d *Dataset) recordViewLocked(id string) (Record, bool) {
	if rec, ok := d.records[id]; ok {
		return rec, true
	}
	i, ok := d.baseLiveLocked(id)
	if !ok {
		return nil, false
	}
	return d.mrecs.recordAt(i)
}

// setRecordLocked installs rec, which the dataset owns from here on,
// under id. A live base record is shadowed in place; any other ID is
// new and goes to the end of the insertion order.
func (d *Dataset) setRecordLocked(id string, rec Record) {
	if _, ok := d.records[id]; !ok {
		if _, ok := d.baseLiveLocked(id); !ok {
			d.order = append(d.order, id)
		}
	}
	d.records[id] = rec
}

// removeRecordLocked deletes id, reporting whether it was live. A
// base record gets its dead bit (and loses any shadowing overlay
// copy); an overlay one leaves the map and the insertion order.
func (d *Dataset) removeRecordLocked(id string) bool {
	if i, ok := d.baseLiveLocked(id); ok {
		d.mrecs.kill(i)
		delete(d.records, id)
		return true
	}
	if _, ok := d.records[id]; !ok {
		return false
	}
	delete(d.records, id)
	d.order = slices.DeleteFunc(d.order, func(o string) bool { return o == id })
	return true
}

// recordsLocked walks the live records in insertion order, read-only,
// skipping the first skip of them without decoding them: the base's
// surviving positions (a shadowed one yields its overlay copy), then
// the overlay's new IDs. The base is read through one cursor, so the
// walk inflates each block once. Post-checksum corrupt base entries
// are stepped over.
func (d *Dataset) recordsLocked(skip int) iter.Seq2[string, Record] {
	return func(yield func(string, Record) bool) {
		if mr := d.mrecs; mr != nil {
			cur := mr.cursor()
			defer cur.close()
			for i := 0; i < mr.count; i++ {
				if mr.isGone(i) {
					continue
				}
				if skip > 0 {
					skip--
					continue
				}
				idb, ok := mr.idBytesAt(i)
				if !ok {
					continue
				}
				if len(d.records) > 0 {
					if rec, ok := d.records[string(idb)]; ok {
						if !yield(string(idb), rec) {
							return
						}
						continue
					}
				}
				rec, ok := cur.record(i)
				if !ok {
					continue
				}
				if !yield(string(idb), rec) {
					return
				}
			}
		}
		for _, id := range d.order[min(skip, len(d.order)):] {
			if !yield(id, d.records[id]) {
				return
			}
		}
	}
}

// encodeRecordsLocked serializes the live records in insertion order
// as a record section. An entry follows the schema, so the encoding is
// a pure function of dataset content; an unshadowed base entry is
// already in that form and is copied verbatim out of its block, which
// the walk inflates once. Blocks are compressed with a writer from ws.
func (d *Dataset) encodeRecordsLocked(ws flateWriters) []byte {
	w := sectionWriter{fields: d.schema.Fields, writers: ws}
	// basePos maps each surviving base position to its output
	// position (-1: deleted, or corrupt past the frame checksum).
	var basePos []int
	mr := d.mrecs
	if mr != nil {
		basePos = make([]int, mr.count)
		cur := mr.cursor()
		defer cur.close()
		for i := range basePos {
			basePos[i] = -1
			if mr.isGone(i) {
				continue
			}
			idb, ok := mr.idBytesAt(i)
			if !ok {
				continue
			}
			if rec, ok := d.records[string(idb)]; ok {
				basePos[i] = w.n
				w.addRecord(string(idb), rec)
				continue
			}
			if entry, ok := cur.entry(i); ok {
				basePos[i] = w.n
				w.addEntry(idb, entry)
			}
		}
	}
	overlayAt := w.n
	for _, id := range d.order {
		w.addRecord(id, d.records[id])
	}
	// The ID permutation merges the base's (ID-sorted already) with
	// the sorted overlay; the two share no live ID.
	perm := make([]int, len(d.order))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return d.order[perm[a]] < d.order[perm[b]] })
	sorted := make([]uint32, 0, w.n)
	j := 0
	if mr != nil {
		for k := 0; k < mr.count; k++ {
			i := int(binary.LittleEndian.Uint32(mr.idSorted[k*4:]))
			if basePos[i] < 0 {
				continue
			}
			idb, _ := mr.idBytesAt(i)
			for ; j < len(perm) && d.order[perm[j]] < string(idb); j++ {
				sorted = append(sorted, uint32(overlayAt+perm[j]))
			}
			sorted = append(sorted, uint32(basePos[i]))
		}
	}
	for ; j < len(perm); j++ {
		sorted = append(sorted, uint32(overlayAt+perm[j]))
	}
	return w.section(sorted)
}

// recordBlockInflates reports how many record blocks the dataset's
// mapped base has inflated (0 without one).
func (d *Dataset) recordBlockInflates() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.mrecs == nil {
		return 0
	}
	return d.mrecs.inflates.Load()
}

// memStats reports the dataset's mapped-vs-heap residency: bytes
// still served from mapped snapshot views (record section + index
// payloads), and the index's residency counters.
func (d *Dataset) memStats() (mappedBytes int64, st index.MMapStats) {
	d.mu.RLock()
	if d.mrecs != nil {
		mappedBytes = int64(len(d.mrecs.raw))
	}
	d.mu.RUnlock()
	st = d.ix.MMapStats()
	return mappedBytes + st.MappedBytes, st
}
