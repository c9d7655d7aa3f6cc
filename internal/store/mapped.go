package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"iter"
	"slices"
	"sort"

	"repro/internal/index"
)

// Mapped record sections: the store half of zero-copy boot.
//
// A v4 dataset frame carries its records in a binary record section
// laid out so a restore can serve reads straight out of the snapshot
// file's mapped bytes:
//
//	u32  count                       (little-endian)
//	recDir   count x u32             entry offsets, insertion order
//	idSorted count x u32             entry indices sorted by record ID
//	entries  count x {uvarint-len id, present, values}
//
// A record can only carry its dataset's schema fields (checkRecord),
// so an entry names none: present is a bitmap of ceil(fields/8) bytes,
// bit i (least significant first) set when the record carries schema
// field i, and values holds each present field's uvarint-len value in
// schema order. A field present with the empty value and a missing
// field stay distinct. Offsets are 32-bit: a section is part of one
// frame, at most frameio.MaxFrame bytes.
//
// The fixed-width directories are random-accessed in place — Get
// binary-searches idSorted, List walks recDir — and individual
// entries decode on demand, keyed by the schema's own name strings. A
// dataset restored mapped keeps the section as an immutable base under
// a heap overlay: records holds what was written since attach, a
// replaced base record is shadowed there and keeps its position, a
// deleted one gets a bit in the base's dead set, and a new or re-added
// one joins order after the base. A write therefore costs O(rows
// written), never a decode of the section. An entry is a pure function
// of the record and the schema, so the encoder can copy surviving base
// entries verbatim and still produce the bytes a fresh encode of the
// same content would.

// recWriter accumulates a record section. It mirrors the index
// package's unexported codec; the duplication is the price of keeping
// that codec private to its hot paths.
type recWriter struct{ buf []byte }

func (w *recWriter) uvarint(x int) { w.buf = binary.AppendUvarint(w.buf, uint64(x)) }
func (w *recWriter) str(s string)  { w.uvarint(len(s)); w.buf = append(w.buf, s...) }
func (w *recWriter) u32(x uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, x) }

func (w *recWriter) reserve(n int) int {
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, n)...)
	return off
}

func (w *recWriter) patchU32(off int, x int) {
	binary.LittleEndian.PutUint32(w.buf[off:], uint32(x))
}

var errRecordSection = fmt.Errorf("store: corrupt record section")

// mappedRecords is a record section attached in place: raw stays a
// view over the snapshot's bytes (mapped or heap — the code path is
// the same), entries decode on demand.
type mappedRecords struct {
	raw      []byte
	count    int
	recDir   []byte // count x u32
	idSorted []byte // count x u32
	// fields is the schema's field list: the entries' presence bits
	// and values follow its order, and a decoded record's keys are its
	// name strings.
	fields []Field
	// gone marks positions deleted since attach (nil until the first
	// delete) and nGone counts them. Guarded by the dataset lock.
	gone  []uint64
	nGone int
}

// presentLen is the byte length of an entry's presence bitmap.
func (mr *mappedRecords) presentLen() int { return (len(mr.fields) + 7) / 8 }

// attachRecordSection validates the section's directory structure
// against schema — entry content is trusted to the frame checksum and
// decoded lazily.
func attachRecordSection(raw []byte, schema Schema) (*mappedRecords, error) {
	if len(raw) < 4 || len(schema.Fields) == 0 {
		return nil, errRecordSection
	}
	mr := &mappedRecords{raw: raw, fields: schema.Fields}
	// Every entry needs a dir slot (4), an idSorted slot (4), an ID
	// length and its presence bitmap, so an impossible count fails
	// fast.
	count := int(binary.LittleEndian.Uint32(raw))
	if count > (len(raw)-4)/(9+mr.presentLen()) {
		return nil, errRecordSection
	}
	dirEnd := 4 + count*4
	idEnd := dirEnd + count*4
	mr.count = count
	mr.recDir = raw[4:dirEnd:dirEnd]
	mr.idSorted = raw[dirEnd:idEnd:idEnd]
	for i := 0; i < count; i++ {
		if off := mr.entryOff(i); off < idEnd || off >= len(raw) {
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
	return mr, nil
}

func (mr *mappedRecords) entryOff(i int) int {
	return int(binary.LittleEndian.Uint32(mr.recDir[i*4:]))
}

// readBytes decodes one length-prefixed string at off as a view into
// raw, returning the next offset, or ok=false on a malformed entry.
func (mr *mappedRecords) readBytes(off int) (b []byte, next int, ok bool) {
	n, w := binary.Uvarint(mr.raw[off:])
	if w <= 0 || n > uint64(len(mr.raw)-off-w) {
		return nil, 0, false
	}
	off += w
	return mr.raw[off : off+int(n) : off+int(n)], off + int(n), true
}

// idBytesAt returns the record ID of entry i as a view into raw.
func (mr *mappedRecords) idBytesAt(i int) ([]byte, bool) {
	id, _, ok := mr.readBytes(mr.entryOff(i))
	return id, ok
}

// presentAt reads the presence bitmap at off, returning it as a view
// and the offset of the first value; ok=false when it runs past the
// section or sets a bit past the last schema field.
func (mr *mappedRecords) presentAt(off int) (present []byte, next int, ok bool) {
	next = off + mr.presentLen()
	if next > len(mr.raw) {
		return nil, 0, false
	}
	present = mr.raw[off:next:next]
	if extra := len(mr.fields) % 8; extra != 0 && present[len(present)-1]>>extra != 0 {
		return nil, 0, false
	}
	return present, next, true
}

// hasField reports whether bitmap present marks schema field f.
func hasField(present []byte, f int) bool { return present[f>>3]&(1<<(f&7)) != 0 }

// entryAt decodes entry i completely. The returned record is freshly
// allocated and owned by the caller; its keys are the schema's names.
func (mr *mappedRecords) entryAt(i int) (string, Record, bool) {
	idb, off, ok := mr.readBytes(mr.entryOff(i))
	if !ok {
		return "", nil, false
	}
	present, off, ok := mr.presentAt(off)
	if !ok {
		return "", nil, false
	}
	rec := make(Record, len(mr.fields))
	for f, field := range mr.fields {
		if !hasField(present, f) {
			continue
		}
		var v []byte
		if v, off, ok = mr.readBytes(off); !ok {
			return "", nil, false
		}
		rec[field.Name] = string(v)
	}
	return string(idb), rec, true
}

// entryBytes returns entry i whole — ID, presence and values — as a
// view into raw, for verbatim re-encoding, along with its ID.
func (mr *mappedRecords) entryBytes(i int) (id, entry []byte, ok bool) {
	start := mr.entryOff(i)
	id, off, ok := mr.readBytes(start)
	if !ok {
		return nil, nil, false
	}
	present, off, ok := mr.presentAt(off)
	if !ok {
		return nil, nil, false
	}
	for f := range mr.fields {
		if !hasField(present, f) {
			continue
		}
		if _, off, ok = mr.readBytes(off); !ok {
			return nil, nil, false
		}
	}
	return id, mr.raw[start:off:off], true
}

// find binary-searches idSorted, which attach validated, for id,
// returning the entry's insertion-order index. Probes compare raw
// bytes in place, so a lookup allocates nothing. The entry may have
// died since attach; callers check isGone.
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
	_, rec, ok := d.mrecs.entryAt(i)
	return rec, ok
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
// the overlay's new IDs. Post-checksum corrupt base entries are
// stepped over.
func (d *Dataset) recordsLocked(skip int) iter.Seq2[string, Record] {
	return func(yield func(string, Record) bool) {
		if mr := d.mrecs; mr != nil {
			for i := 0; i < mr.count; i++ {
				if mr.isGone(i) {
					continue
				}
				if skip > 0 {
					skip--
					continue
				}
				if len(d.records) > 0 {
					idb, ok := mr.idBytesAt(i)
					if !ok {
						continue
					}
					if rec, ok := d.records[string(idb)]; ok {
						if !yield(string(idb), rec) {
							return
						}
						continue
					}
				}
				id, rec, ok := mr.entryAt(i)
				if !ok {
					continue
				}
				if !yield(id, rec) {
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
// already in that form and is copied verbatim.
func (d *Dataset) encodeRecordsLocked() []byte {
	// basePos maps each surviving base position to its output
	// position (-1: deleted, or corrupt past the frame checksum).
	var basePos []int
	pos, size := 0, 0
	mr := d.mrecs
	if mr != nil {
		basePos = make([]int, mr.count)
		for i := range basePos {
			basePos[i] = -1
			if _, entry, ok := mr.entryBytes(i); ok && !mr.isGone(i) {
				basePos[i] = pos
				pos++
				size += len(entry)
			}
		}
	}
	overlayAt := pos
	n := overlayAt + len(d.order)
	fields := d.schema.Fields
	// Size the section up front, so it is written into one allocation:
	// the base entries exactly, the overlay's (shadowing ones counted
	// twice) at a byte per length prefix.
	for id, rec := range d.records {
		size += 1 + len(id) + (len(fields)+7)/8
		for _, v := range rec {
			size += 1 + len(v)
		}
	}
	w := recWriter{buf: make([]byte, 0, 4+n*8+size)}
	w.u32(uint32(n))
	dirOff := w.reserve(n * 4)
	permOff := w.reserve(n * 4)
	// put writes the entry of a record written since attach. Keys
	// outside the schema are not written: checkRecord admits none.
	put := func(pos int, id string, rec Record) {
		w.patchU32(dirOff+pos*4, len(w.buf))
		w.str(id)
		present := w.reserve((len(fields) + 7) / 8)
		for f, field := range fields {
			if _, ok := rec[field.Name]; ok {
				w.buf[present+(f>>3)] |= 1 << (f & 7)
			}
		}
		for _, field := range fields {
			if v, ok := rec[field.Name]; ok {
				w.str(v)
			}
		}
	}
	for i, p := range basePos {
		if p < 0 {
			continue
		}
		idb, entry, _ := mr.entryBytes(i)
		if rec, ok := d.records[string(idb)]; ok {
			put(p, string(idb), rec)
			continue
		}
		w.patchU32(dirOff+p*4, len(w.buf))
		w.buf = append(w.buf, entry...)
	}
	for j, id := range d.order {
		put(overlayAt+j, id, d.records[id])
	}
	// The ID permutation merges the base's (ID-sorted already) with
	// the sorted overlay; the two share no live ID.
	perm := make([]int, len(d.order))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return d.order[perm[a]] < d.order[perm[b]] })
	at, j := permOff, 0
	emit := func(p int) {
		w.patchU32(at, p)
		at += 4
	}
	if mr != nil {
		for k := 0; k < mr.count; k++ {
			i := int(binary.LittleEndian.Uint32(mr.idSorted[k*4:]))
			if basePos[i] < 0 {
				continue
			}
			idb, _ := mr.idBytesAt(i)
			for ; j < len(perm) && d.order[perm[j]] < string(idb); j++ {
				emit(overlayAt + perm[j])
			}
			emit(basePos[i])
		}
	}
	for ; j < len(perm); j++ {
		emit(overlayAt + perm[j])
	}
	return w.buf
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
