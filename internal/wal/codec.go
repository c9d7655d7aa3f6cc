package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Binary record codec, the payload of every frame in a SYMWAL2
// segment. One layout serves every op:
//
//	seq     8 bytes, little-endian (stamped by Append under the log lock)
//	op      1 byte, the op's code
//	fields  2 bytes, little-endian bitmask of the fields that follow
//
// then each present field in bit order. Strings and Schema are a
// uvarint length and the raw bytes; Rec is a uvarint pair count and
// its key/value strings with keys strictly ascending; N is a zigzag
// varint; Puts is a uvarint count and, per row, its ID string and Rec
// map (encoded even when empty). A field is present exactly when it
// is non-zero, so the bytes of a record are a function of its value,
// and the decoder accepts only bytes the encoder would write: every
// successful decode re-encodes to its input.

// opCodes numbers the ops for the binary layout; 0 is never valid.
var opCodes = map[string]byte{
	OpPut: 1, OpDelete: 2, OpCreateTenant: 3, OpCreateDataset: 4,
	OpDropDataset: 5, OpGrant: 6, OpRevoke: 7, OpSetQuota: 8, OpPutBatch: 9,
}

// opNames inverts opCodes.
var opNames = func() []string {
	names := make([]string, len(opCodes)+1)
	for name, code := range opCodes {
		names[code] = name
	}
	return names
}()

// Field bits of the binary layout.
const (
	fTenant = 1 << iota
	fActor
	fDataset
	fID
	fRec
	fSchema
	fPerm
	fN
	fPuts
	fAll = 1<<iota - 1
)

// recordHeader is the fixed prefix: seq, op and the field mask.
const recordHeader = 8 + 1 + 2

var errCodec = errors.New("wal: malformed binary record")

// encodeRecord appends rec's binary encoding to dst with a zero seq;
// Append stamps the seq into the first 8 bytes under the log lock.
func encodeRecord(dst []byte, rec *Record) ([]byte, error) {
	op, ok := opCodes[rec.Op]
	if !ok {
		return dst, fmt.Errorf("wal: unknown op %q", rec.Op)
	}
	var mask uint16
	for bit, present := range []bool{
		rec.Tenant != "", rec.Actor != "", rec.Dataset != "", rec.ID != "",
		len(rec.Rec) > 0, len(rec.Schema) > 0, rec.Perm != "", rec.N != 0, len(rec.Puts) > 0,
	} {
		if present {
			mask |= 1 << bit
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint16(dst, mask)
	var keys []string
	for _, s := range []struct {
		bit uint16
		v   string
	}{{fTenant, rec.Tenant}, {fActor, rec.Actor}, {fDataset, rec.Dataset}, {fID, rec.ID}} {
		if mask&s.bit != 0 {
			dst = appendString(dst, s.v)
		}
	}
	if mask&fRec != 0 {
		dst, keys = appendMap(dst, rec.Rec, keys)
	}
	if mask&fSchema != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(rec.Schema)))
		dst = append(dst, rec.Schema...)
	}
	if mask&fPerm != 0 {
		dst = appendString(dst, rec.Perm)
	}
	if mask&fN != 0 {
		dst = binary.AppendVarint(dst, int64(rec.N))
	}
	if mask&fPuts != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(rec.Puts)))
		for i := range rec.Puts {
			dst = appendString(dst, rec.Puts[i].ID)
			dst, keys = appendMap(dst, rec.Puts[i].Rec, keys)
		}
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendMap writes m's pairs in key order, reusing keys as scratch.
func appendMap(dst []byte, m map[string]string, keys []string) ([]byte, []string) {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, m[k])
	}
	return dst, keys
}

// decodeRecord parses one binary record. Strings are copied out of p.
func decodeRecord(p []byte) (*Record, error) {
	if len(p) < recordHeader {
		return nil, errCodec
	}
	rec := &Record{Seq: binary.LittleEndian.Uint64(p)}
	if code := int(p[8]); code < len(opNames) && opNames[code] != "" {
		rec.Op = opNames[code]
	} else {
		return nil, fmt.Errorf("wal: unknown op code %d", code)
	}
	mask := binary.LittleEndian.Uint16(p[9:])
	if mask&^fAll != 0 {
		return nil, errCodec
	}
	d := decoder{buf: p[recordHeader:]}
	for _, s := range []struct {
		bit uint16
		v   *string
	}{{fTenant, &rec.Tenant}, {fActor, &rec.Actor}, {fDataset, &rec.Dataset}, {fID, &rec.ID}} {
		if mask&s.bit != 0 {
			*s.v = d.nonEmpty()
		}
	}
	if mask&fRec != 0 {
		if rec.Rec = d.stringMap(); rec.Rec == nil {
			d.fail()
		}
	}
	if mask&fSchema != 0 {
		if b := d.bytes(); len(b) > 0 {
			rec.Schema = append([]byte(nil), b...)
		} else {
			d.fail()
		}
	}
	if mask&fPerm != 0 {
		rec.Perm = d.nonEmpty()
	}
	if mask&fN != 0 {
		if rec.N = int(d.varint()); rec.N == 0 {
			d.fail()
		}
	}
	if mask&fPuts != 0 {
		n := d.count(2)
		if n == 0 {
			d.fail()
		}
		rec.Puts = make([]Put, n)
		for i := range rec.Puts {
			rec.Puts[i].ID = d.string()
			rec.Puts[i].Rec = d.stringMap()
		}
	}
	if d.err || len(d.buf) != 0 {
		return nil, errCodec
	}
	return rec, nil
}

// decoder walks a binary record. The first error sticks: later reads
// return zero values, and decodeRecord checks err once at the end.
type decoder struct {
	buf []byte
	err bool
}

func (d *decoder) fail() { d.err, d.buf = true, nil }

// uvarint reads a minimally encoded uvarint.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// varint reads a minimally encoded zigzag varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads an element count, bounded by the bytes left at min
// bytes per element so a corrupt count cannot drive a huge allocation.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/min) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string { return string(d.bytes()) }

// nonEmpty reads a string that a present field bit promises is set.
func (d *decoder) nonEmpty() string {
	s := d.string()
	if s == "" {
		d.fail()
	}
	return s
}

// stringMap reads a map whose keys must be strictly ascending; an
// empty map decodes as nil.
func (d *decoder) stringMap() map[string]string {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	prev := ""
	for i := 0; i < n && !d.err; i++ {
		k := d.string()
		if i > 0 && k <= prev {
			d.fail()
		}
		m[k], prev = d.string(), k
	}
	return m
}
