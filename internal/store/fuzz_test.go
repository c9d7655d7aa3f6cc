package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/frameio"
)

// fixtureSections walks the snapshot testdata/file and returns, per
// dataset frame ("tenant-dataset"), its record section and its index
// snapshot's shard payloads. v3, v4 and v5 share this framing, so it
// walks the refused v3 fixtures too.
func fixtureSections(tb testing.TB, file string) (names []string, recSecs [][]byte, shards [][][]byte) {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		tb.Fatal(err)
	}
	hdrBytes, off, err := frameio.NextFrameInBuf(data, len(snapshotMagic), true)
	if err != nil {
		tb.Fatal(err)
	}
	var hdr framedHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		tb.Fatal(err)
	}
	var expects []frameExpect
	for _, vt := range hdr.Tenants {
		for _, name := range vt.Datasets {
			expects = append(expects, frameExpect{tenant: vt.ID, name: name})
		}
	}
	for _, e := range expects {
		var frame []byte
		if frame, off, err = frameio.NextFrameInBuf(data, off, true); err != nil {
			tb.Fatal(err)
		}
		_, rest, err := cutSection(frame, "metadata")
		if err != nil {
			tb.Fatal(err)
		}
		rec, ixBytes, err := cutSection(rest, "record section")
		if err != nil {
			tb.Fatal(err)
		}
		// The index snapshot: magic, a header frame, one frame per shard.
		ixOff := len("SYMIDX1\n")
		if _, ixOff, err = frameio.NextFrameInBuf(ixBytes, ixOff, true); err != nil {
			tb.Fatal(err)
		}
		var payloads [][]byte
		for ixOff < len(ixBytes) {
			var p []byte
			if p, ixOff, err = frameio.NextFrameInBuf(ixBytes, ixOff, true); err != nil {
				tb.Fatal(err)
			}
			payloads = append(payloads, p)
		}
		names = append(names, e.tenant+"-"+e.name)
		recSecs = append(recSecs, rec)
		shards = append(shards, payloads)
	}
	return names, recSecs, shards
}

// fuzzSeedFrames names the fixture frames the committed seed corpora
// are cut from.
var fuzzSeedFrames = []string{"tenant0-data0", "tenant3-data1"}

// TestFuzzCorporaMatchFixture keeps the committed seed corpora of
// FuzzRecordSection (here), FuzzV3DocEntry and FuzzV3Postings
// (internal/index) cut from multitenant_v5.snap: one file per record
// section and per index shard payload of the frames in
// fuzzSeedFrames. The index corpora also hold the shard payloads of
// multitenant_v3_fieldtext.snap, a format attach must refuse, under a
// "-fieldtext" suffix. Run with UPDATE_FUZZ_CORPUS=1 to rewrite them
// after a deliberate format change.
func TestFuzzCorporaMatchFixture(t *testing.T) {
	want := map[string][]byte{}
	for _, fx := range []struct{ file, suffix string }{
		{"multitenant_v5.snap", ""},
		{"multitenant_v3_fieldtext.snap", "-fieldtext"},
	} {
		names, recSecs, shards := fixtureSections(t, fx.file)
		for i, name := range names {
			if !slices.Contains(fuzzSeedFrames, name) {
				continue
			}
			if fx.suffix == "" {
				want[filepath.Join("testdata", "fuzz", "FuzzRecordSection", name)] = recSecs[i]
			}
			for j, p := range shards[i] {
				for _, target := range []string{"FuzzV3DocEntry", "FuzzV3Postings"} {
					want[filepath.Join("..", "index", "testdata", "fuzz", target, fmt.Sprintf("%s%s-shard%d", name, fx.suffix, j))] = p
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no seed frames found in the fixture")
	}
	for path, b := range want {
		body := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n")
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (UPDATE_FUZZ_CORPUS=1 writes the corpus)", err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%s is not the fixture's bytes (UPDATE_FUZZ_CORPUS=1 rewrites it)", path)
		}
	}
}

// FuzzRecordSection: attaching arbitrary bytes as a record section
// of multiTenantSchema either fails or yields a section whose every
// accessor — entry decode, block read, ID probe, ordered walk,
// dead-bit bookkeeping and re-encode — returns an error or a zero
// value without panicking, and whose re-encode attaches and decodes to
// the same records. The section is cap-clamped, so a read past its end
// panics instead of silently reading the neighbouring bytes of a
// mapping. Besides the golden's sections, whose blocks are stored, the
// seeds hold a section of compressed blocks and hostile copies of it
// (hostileSections).
func FuzzRecordSection(f *testing.F) {
	_, recSecs, _ := fixtureSections(f, "multitenant_v5.snap")
	for _, sec := range recSecs {
		f.Add(sec)
	}
	hostile := hostileSections(f)
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name])
	}
	schema := multiTenantSchema("data0")
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := bytes.Clone(data)
		raw = raw[:len(raw):len(raw)]
		mr, err := attachRecordSection(raw, schema)
		if err != nil {
			return
		}
		d := &Dataset{schema: schema, records: make(map[string]Record), mrecs: mr}
		cur := mr.cursor()
		for i := 0; i < mr.count; i++ {
			rec, ok := mr.recordAt(i)
			entry, eok := cur.entry(i)
			if ok != eok || (ok && !reflect.DeepEqual(decodeEntry(entry, schema.Fields), rec)) {
				t.Fatalf("entry %d: recordAt %v %v, cursor %v", i, rec, ok, eok)
			}
			if !ok {
				continue
			}
			idb, _ := mr.idBytesAt(i)
			id := string(idb)
			mr.find(id)
			d.existsLocked(id)
			if i%3 == 0 {
				d.removeRecordLocked(id)
			} else if i%3 == 1 {
				d.setRecordLocked(id, rec)
			}
		}
		cur.close()
		mr.find("")
		d.setRecordLocked("fuzz-new", Record{"title": "v", "body": ""})
		walk := func(d *Dataset) (out []Record) {
			for id, rec := range d.recordsLocked(0) {
				rec = maps.Clone(rec)
				rec["_id"] = id
				out = append(out, rec)
			}
			return out
		}
		before := walk(d)
		again, err := attachRecordSection(d.encodeRecordsLocked(nil), schema)
		if err != nil {
			t.Fatalf("re-encoded section does not attach: %v", err)
		}
		after := walk(&Dataset{schema: schema, mrecs: again})
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("re-encoded section reads %v, want %v", after, before)
		}
	})
}

// deflatedSection is a data0 record section with entries enough
// that its blocks are compressed, where the golden's, under
// recordDeflateMin, are stored.
func deflatedSection(tb testing.TB) []byte {
	tb.Helper()
	d := &Dataset{schema: multiTenantSchema("data0"), records: make(map[string]Record)}
	for i := range 300 {
		id := fmt.Sprint("r", i)
		d.setRecordLocked(id, Record{
			"id":    id,
			"title": fmt.Sprintf("item %d of tenant %d", i, i%4),
			"body":  fmt.Sprintf("searchable common text plus unique%d", i),
			"price": fmt.Sprint(5 + i%40),
		})
	}
	return d.encodeRecordsLocked(nil)
}

// hostileSections are deflatedSection and copies of it with its block
// 1 made hostile (hostileBlocks).
func hostileSections(tb testing.TB) map[string][]byte {
	tb.Helper()
	sec := deflatedSection(tb)
	out := hostileBlocks(tb, sec, multiTenantSchema("data0"), 1)
	out["deflated"] = sec
	return out
}

// hostileBlocks returns copies of section sec with block b replaced by
// a hostile one: its stream truncated, a stream that ends before or
// runs past its declared length, a declared length past
// frameio.MaxFrame, and a 10-byte stream that declares 1 GiB.
func hostileBlocks(tb testing.TB, sec []byte, schema Schema, b int) map[string][]byte {
	tb.Helper()
	mr, err := attachRecordSection(sec, schema)
	if err != nil {
		tb.Fatal(err)
	}
	size, comp := mr.block(b)
	var zeros bytes.Buffer
	zw, _ := flate.NewWriter(&zeros, flate.BestCompression)
	zw.Write(make([]byte, 1<<20))
	zw.Close()
	return map[string][]byte{
		"truncated":     withBlock(tb, mr, b, uint64(size), comp[:len(comp)/2]),
		"short stream":  withBlock(tb, mr, b, uint64(size)+1, comp),
		"long stream":   withBlock(tb, mr, b, uint64(size)-1, comp),
		"past MaxFrame": withBlock(tb, mr, b, frameio.MaxFrame+1, comp),
		"1 GiB":         withBlock(tb, mr, b, 1<<30, zeros.Bytes()[:10]),
	}
}

// withBlock returns a copy of mr's section with block b's declared
// inflated length and DEFLATE stream replaced, the later blocks'
// offsets moved to match.
func withBlock(tb testing.TB, mr *mappedRecords, b int, size uint64, comp []byte) []byte {
	tb.Helper()
	sec := mr.raw
	off, end := mr.blockOff(b), len(sec)
	if b+1 < mr.nblocks {
		end = mr.blockOff(b + 1)
	}
	out := append(bytes.Clone(sec[:off]), binary.AppendUvarint(nil, size)...)
	out = append(out, comp...)
	delta := len(out) - end
	out = append(out, sec[end:]...)
	dir := 8 + mr.count*8
	for later := b + 1; later < mr.nblocks; later++ {
		at := dir + later*8 + 4
		binary.LittleEndian.PutUint32(out[at:], uint32(int(binary.LittleEndian.Uint32(out[at:]))+delta))
	}
	return out
}

// TestAttachRecordSectionRejectsUnsortedIDs: a section whose ID order
// is not strictly ascending does not attach — one whose directory
// points two slots at one entry, so the base holds an ID twice, and
// one whose ID order swaps two entries. FuzzRecordSection found the
// first re-encoding to other records than it read.
func TestAttachRecordSectionRejectsUnsortedIDs(t *testing.T) {
	schema := multiTenantSchema("data0")
	d := &Dataset{schema: schema, records: make(map[string]Record)}
	for i := range 4 {
		d.setRecordLocked(fmt.Sprint("r", i), Record{"id": fmt.Sprint("r", i), "title": "t"})
	}
	raw := d.encodeRecordsLocked(nil)
	if _, err := attachRecordSection(raw, schema); err != nil {
		t.Fatal(err)
	}
	recDir := 8 // past count and nblocks
	dup := bytes.Clone(raw)
	copy(dup[recDir+4:recDir+8], dup[recDir:recDir+4])
	swapped := bytes.Clone(raw)
	idSorted := recDir + 4*4
	copy(swapped[idSorted:idSorted+4], raw[idSorted+4:idSorted+8])
	copy(swapped[idSorted+4:idSorted+8], raw[idSorted:idSorted+4])
	for name, sec := range map[string][]byte{"duplicate ID": dup, "swapped IDs": swapped} {
		if _, err := attachRecordSection(sec, schema); err == nil {
			t.Errorf("%s: the section attached", name)
		}
	}
}
