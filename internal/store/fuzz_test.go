package store

import (
	"bytes"
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
// snapshot's shard payloads. v3 and v4 share this framing, so it
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
// (internal/index) cut from multitenant_v4.snap: one file per record
// section and per index shard payload of the frames in
// fuzzSeedFrames. The index corpora also hold the shard payloads of
// multitenant_v3_fieldtext.snap, a format attach must refuse, under a
// "-fieldtext" suffix. Run with UPDATE_FUZZ_CORPUS=1 to rewrite them
// after a deliberate format change.
func TestFuzzCorporaMatchFixture(t *testing.T) {
	want := map[string][]byte{}
	for _, fx := range []struct{ file, suffix string }{
		{"multitenant_v4.snap", ""},
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
// accessor — entry decode, ID probe, verbatim entry walk, ordered
// walk, dead-bit bookkeeping and re-encode — returns an error or a
// zero value without panicking, and whose re-encode attaches and
// decodes to the same records. The section is cap-clamped, so a read
// past its end panics instead of silently reading the neighbouring
// bytes of a mapping.
func FuzzRecordSection(f *testing.F) {
	_, recSecs, _ := fixtureSections(f, "multitenant_v4.snap")
	for _, sec := range recSecs {
		f.Add(sec)
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
		for i := 0; i < mr.count; i++ {
			id, rec, ok := mr.entryAt(i)
			idb, entry, eok := mr.entryBytes(i)
			if ok != eok || (ok && (string(idb) != id || len(entry) == 0)) {
				t.Fatalf("entry %d: entryAt %q %v, entryBytes %q %v", i, id, ok, idb, eok)
			}
			if !ok {
				continue
			}
			mr.find(id)
			d.existsLocked(id)
			if i%3 == 0 {
				d.removeRecordLocked(id)
			} else if i%3 == 1 {
				d.setRecordLocked(id, rec)
			}
		}
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
		again, err := attachRecordSection(d.encodeRecordsLocked(), schema)
		if err != nil {
			t.Fatalf("re-encoded section does not attach: %v", err)
		}
		after := walk(&Dataset{schema: schema, mrecs: again})
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("re-encoded section reads %v, want %v", after, before)
		}
	})
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
	raw := d.encodeRecordsLocked()
	if _, err := attachRecordSection(raw, schema); err != nil {
		t.Fatal(err)
	}
	dup := bytes.Clone(raw)
	copy(dup[8:12], dup[4:8])
	swapped := bytes.Clone(raw)
	idSorted := 4 + 4*4
	copy(swapped[idSorted:idSorted+4], raw[idSorted+4:idSorted+8])
	copy(swapped[idSorted+4:idSorted+8], raw[idSorted:idSorted+4])
	for name, sec := range map[string][]byte{"duplicate ID": dup, "swapped IDs": swapped} {
		if _, err := attachRecordSection(sec, schema); err == nil {
			t.Errorf("%s: the section attached", name)
		}
	}
}
