package index

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/frameio"
)

// FuzzV3DocEntry: attaching arbitrary bytes as a v3 shard payload
// either fails or yields a shard whose doc-table decoders — the full
// entry decode, the hit decode, the in-place ID and field-key walks,
// the verbatim entry walk, the ID probe — return an error or a zero
// value without panicking, and whose overlay writes and re-encode do
// not panic either. The payload is cap-clamped, so a read past its end
// panics instead of silently reading the neighbouring bytes of a
// mapping. The committed corpus (testdata/fuzz/FuzzV3DocEntry) holds
// shard payloads cut from internal/store's v3 fixture; a fresh
// snapshot adds one more.
func FuzzV3DocEntry(f *testing.F) {
	var snap bytes.Buffer
	if err := equivCorpus(f, 2).Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	data := snap.Bytes()
	_, off, err := frameio.NextFrameInBuf(data, len(indexSnapshotMagic), true)
	for err == nil && off < len(data) {
		var p []byte
		if p, off, err = frameio.NextFrameInBuf(data, off, true); err == nil {
			f.Add(p)
		}
	}
	if err != nil {
		f.Fatal(err)
	}
	noOpts := func(string) (FieldOptions, bool) { return FieldOptions{}, false }
	f.Fuzz(func(t *testing.T, data []byte) {
		// Attach sizes a length table per field and document; bound the
		// input so a hostile header cannot make the fuzzer itself OOM.
		if len(data) > 1<<16 {
			return
		}
		payload := bytes.Clone(data)
		payload = payload[:len(payload):len(payload)]
		ix := New(WithShards(1))
		s, err := ix.attachShardV3(payload, noOpts)
		if err != nil {
			return
		}
		ms := s.ms
		var ids []string
		for ord := 0; ord < ms.nDocs; ord++ {
			doc, ok := ms.docEntryAt(ix, ord)
			id, stored := ms.hitAt(ix, ord)
			idb := ms.idBytesAt(ix, ord)
			entry := ms.entryBytes(ix, ord)
			if ok && (id != doc.ID || string(idb) != doc.ID || len(entry) == 0 || len(stored) != len(doc.Stored)) {
				t.Fatalf("ord %d: decoders disagree: %q %q %q", ord, doc.ID, id, idb)
			}
			n := 0
			for range ms.fieldKeys(ix, ord) {
				n++
			}
			if ok && n != len(doc.Fields) {
				t.Fatalf("ord %d: field-key walk saw %d keys, entry has %d", ord, n, len(doc.Fields))
			}
			s.liveAt(ord)
			s.idAt(ord)
			if ok {
				ids = append(ids, doc.ID)
			}
		}
		s.findOrd("")
		s.findOrd("\xff")
		s.mu.Lock()
		for i, id := range ids {
			s.findOrd(id)
			if i%2 == 0 {
				s.deleteByIDLocked(id)
			}
		}
		s.addLocked(Document{ID: fmt.Sprint("fuzz", len(ids)), Fields: map[string]string{}}, nil)
		s.mu.Unlock()
		var out bytes.Buffer
		if err := s.snapshotV3(&out); err != nil {
			t.Fatal(err)
		}
	})
}
