package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/frameio"
)

// codecRecords holds one record per op, shaped like what the store
// logs, plus the field corners the layout has to carry: a negative N,
// escaping-prone text, a put-batch row with an empty record.
func codecRecords() []*Record {
	schema := []byte(`{"name":"inv","key":"sku","fields":[{"name":"sku","type":"","searchable":false,"required":true}]}`)
	return []*Record{
		{Seq: 1, Op: OpCreateTenant, Tenant: "acme", Actor: "ann"},
		{Seq: 2, Op: OpCreateDataset, Tenant: "acme", Actor: "ann", Dataset: "inv", Schema: schema},
		{Seq: 3, Op: OpPut, Tenant: "acme", Dataset: "inv", ID: "sku-01",
			Rec: map[string]string{"sku": "sku-01", "title": "\"red\" <widget> été\n", "price": "12"}},
		{Seq: 4, Op: OpDelete, Tenant: "acme", Dataset: "inv", ID: "sku-01"},
		{Seq: 5, Op: OpGrant, Tenant: "acme", Actor: "ann", ID: "bob", Perm: "read"},
		{Seq: 6, Op: OpRevoke, Tenant: "acme", Actor: "ann", ID: "bob"},
		{Seq: 7, Op: OpSetQuota, Tenant: "acme", Actor: "ann", N: -500},
		{Seq: 8, Op: OpDropDataset, Tenant: "acme", Actor: "ann", Dataset: "inv"},
		{Seq: 1 << 40, Op: OpPutBatch, Tenant: "acme", Dataset: "inv", Puts: []Put{
			{ID: "1", Rec: map[string]string{"title": "first", "body": "one"}},
			{ID: "2", Rec: map[string]string{"title": "second", "body": "two"}},
			{ID: "3"},
		}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, want := range codecRecords() {
		b, err := encodeRecord(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", want.Op, got, want)
		}
		again, err := encodeRecord(nil, got)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("%s: re-encoding differs (%v)", want.Op, err)
		}
	}
	if _, err := encodeRecord(nil, &Record{Op: "upsert"}); err == nil {
		t.Fatal("unknown op encoded")
	}
}

// TestCodecDeterministic: map iteration order must not leak into the
// bytes, so the same record always encodes the same way.
func TestCodecDeterministic(t *testing.T) {
	rec := &Record{Op: OpPut, ID: "x", Rec: map[string]string{}}
	for i := 0; i < 32; i++ {
		rec.Rec[fmt.Sprintf("field%02d", i)] = fmt.Sprint(i)
	}
	first, err := encodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if b, _ := encodeRecord(nil, rec); !bytes.Equal(b, first) {
			t.Fatal("encoding of one record varies between calls")
		}
	}
}

// TestCodecRejectsNonCanonical: bytes the encoder never writes must
// not decode, or a decoded record could re-encode differently.
func TestCodecRejectsNonCanonical(t *testing.T) {
	good, err := encodeRecord(nil, &Record{Op: OpPut, ID: "a", Rec: map[string]string{"k1": "v", "k2": "w"}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"short header":  good[:recordHeader-1],
		"unknown op":    mutate(func(b []byte) []byte { b[8] = 99; return b }),
		"unknown field": mutate(func(b []byte) []byte { b[10] |= 0x80; return b }),
		"trailing byte": append(append([]byte(nil), good...), 0),
		"truncated":     good[:len(good)-1],
		"unsorted keys": mutate(func(b []byte) []byte { return bytes.Replace(b, []byte("k1"), []byte("k3"), 1) }),
		"empty present id": func() []byte {
			b, _ := encodeRecord(nil, &Record{Op: OpDelete, ID: "a"})
			return append(b[:recordHeader], 0)
		}(),
		"overlong uvarint": func() []byte {
			b, _ := encodeRecord(nil, &Record{Op: OpDelete, ID: "a"})
			return append(b[:recordHeader], 0x81, 0x00, 'a')
		}(),
	}
	for name, b := range cases {
		if rec, err := decodeRecord(b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, rec)
		}
	}
}

// FuzzDecodeRecord: decoding arbitrary bytes returns an error or a
// record that re-encodes to exactly those bytes; it never panics. The
// seed corpus in testdata/fuzz holds one encoded record per op.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b)
		if err != nil {
			return
		}
		out, err := encodeRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", b, out)
		}
	})
}

// TestFuzzCorpusCoversEveryOp keeps the committed seed corpus in step
// with the codec: one file per op, each decoding to its record.
func TestFuzzCorpusCoversEveryOp(t *testing.T) {
	for _, rec := range codecRecords() {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeRecord", rec.Op))
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b); string(data) != want {
			t.Fatalf("seed corpus file for %s is stale:\n got %s\nwant %s", rec.Op, data, want)
		}
	}
}

// TestReplayJSONSegmentFixture: a SYMWAL1 segment of JSON records,
// the format before SYMWAL2, is below the format floor. Replay refuses
// it with frameio.ErrUnsupportedFormat before applying anything, and
// does not report it as torn, so boot never truncates it.
func TestReplayJSONSegmentFixture(t *testing.T) {
	applied := 0
	st, err := Replay(filepath.Join("testdata", "v1"), func(*Record) error {
		applied++
		return nil
	})
	if !errors.Is(err, frameio.ErrUnsupportedFormat) {
		t.Fatalf("replay of a SYMWAL1 segment = %v, want ErrUnsupportedFormat", err)
	}
	if applied != 0 || st.Torn || st.Records != 0 {
		t.Fatalf("refused replay applied %d records, stats %+v", applied, st)
	}
}

// TestReplayMixedFormats: a log directory holding a SYMWAL1 segment
// beside SYMWAL2 ones, as the older or as the newest segment, fails
// Replay with frameio.ErrUnsupportedFormat. The SYMWAL1 segment is not
// reported as torn, so SealTornTail leaves it alone, and its bytes are
// unchanged.
func TestReplayMixedFormats(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "v1", segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		oldSeg     int // the SYMWAL1 segment's number
		wantBefore int // puts replayed before the refusal
	}{
		{"older", 1, 0},
		{"newest", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oldPath := filepath.Join(dir, segmentName(tc.oldSeg))
			if tc.oldSeg == 1 {
				if err := os.WriteFile(oldPath, old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := Open(dir, Options{Policy: PolicyAlways})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 3)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.oldSeg != 1 {
				if err := os.WriteFile(oldPath, old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			puts := 0
			st, err := Replay(dir, func(r *Record) error {
				puts++
				return nil
			})
			if !errors.Is(err, frameio.ErrUnsupportedFormat) {
				t.Fatalf("mixed replay = %v, want ErrUnsupportedFormat", err)
			}
			if puts != tc.wantBefore || st.Torn {
				t.Fatalf("mixed replay applied %d records, stats %+v; want %d applied, not torn", puts, st, tc.wantBefore)
			}
			if err := SealTornTail(st); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(oldPath); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("SYMWAL1 segment changed by a refused replay (%v)", err)
			}
		})
	}
}

// TestReplayUnknownMagicIsTornAtZero: a segment whose magic is partial
// or names no known format was created and never synced, so nothing
// in it was acknowledged; replay reports it as torn at offset zero.
func TestReplayUnknownMagicIsTornAtZero(t *testing.T) {
	for name, head := range map[string]string{"partial": "SYMW", "unknown": "SYMWAL9\n" + "\x00\x00\x00"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(head), 0o644); err != nil {
				t.Fatal(err)
			}
			ids, st := replayIDs(t, dir)
			if !st.Torn || st.TornOffset != 0 || len(ids) != 0 {
				t.Fatalf("replay of a %s magic: ids %v, stats %+v; want torn at 0 with nothing applied", name, ids, st)
			}
		})
	}
}

// batchRecord builds a put-batch of n rows starting at doc index start.
func batchRecord(start, n int) *Record {
	rec := &Record{Op: OpPutBatch, Tenant: "t", Dataset: "d"}
	for i := start; i < start+n; i++ {
		rec.Puts = append(rec.Puts, Put{ID: fmt.Sprintf("doc-%04d", i),
			Rec: map[string]string{"body": fmt.Sprintf("body %d", i)}})
	}
	return rec
}

// TestTornPutBatchReplaysNone: a crash inside a put-batch frame loses
// the whole batch, never a prefix of it, and keeps every record
// before it. Stats count rows.
func TestTornPutBatchReplaysNone(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	if err := l.Append(batchRecord(3, 50)).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(batchRecord(53, 40)).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	seg := l.ActiveSegment()
	if st := l.Stats(); st.Appends != 93 {
		t.Fatalf("stats count %d appends, want 93 rows", st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tearTail(t, dir, seg, 100) // inside the last batch's frame

	var rows []string
	st, err := Replay(dir, func(r *Record) error {
		switch r.Op {
		case OpPut:
			rows = append(rows, r.ID)
		case OpPutBatch:
			for _, p := range r.Puts {
				rows = append(rows, p.ID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Fatal("tear inside a put-batch frame not reported")
	}
	if len(rows) != 53 || rows[52] != "doc-0052" {
		t.Fatalf("replayed %d rows (last %v), want exactly the 53 before the torn batch", len(rows), rows[len(rows)-1:])
	}
	if st.Records != 53 || st.Applied != 53 {
		t.Fatalf("stats %+v, want 53 rows decoded and applied", st)
	}
}

// TestGroupCommitWeighsRows: a record counts its rows toward
// GroupBatch, so a batch at least that large syncs at once instead of
// waiting out GroupWait.
func TestGroupCommitWeighsRows(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: PolicyGroup, GroupBatch: 128, GroupWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.Append(batchRecord(0, 128)).Wait(ctx); err != nil {
		t.Fatalf("a 128-row batch waited for the group window: %v", err)
	}
	if st := l.Stats(); st.Appends != 128 || st.Fsyncs != 1 {
		t.Fatalf("stats %+v, want 128 row appends in one fsync", st)
	}
}
