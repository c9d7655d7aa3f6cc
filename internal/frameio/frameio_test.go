package frameio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf, "MAGIC01\n"); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{[]byte("first"), {}, []byte("third frame")}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("MAGIC01\n")) {
		t.Fatalf("stream starts %q, want the magic", buf.Bytes()[:8])
	}
	off := len("MAGIC01\n")
	for i, want := range frames {
		got, next, err := NextFrameInBuf(buf.Bytes(), off, true)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
		off = next
	}
	if _, _, err := NextFrameInBuf(buf.Bytes(), off, true); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Truncated mid-payload and mid-header are both errors, not EOF;
	// so is a checksum mismatch.
	for _, cut := range []int{buf.Len() - 3, 4} {
		if _, _, err := NextFrameInBuf(buf.Bytes()[:cut], 0, true); err == nil || err == io.EOF {
			t.Fatalf("cut at %d: err = %v, want truncation error", cut, err)
		}
	}
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)-1] ^= 0xff
	if _, _, err := NextFrameInBuf(flipped, 0, true); err == nil {
		t.Fatal("checksum mismatch accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], MaxFrame+1)
	if _, _, err := NextFrameInBuf(hdr[:], 0, true); err == nil {
		t.Fatal("oversize frame length accepted")
	}
}

// writeFrames returns a stream of n frames plus the cumulative byte
// offset at the end of each frame.
func writeFrames(t testing.TB, payloads ...[]byte) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	offsets := make([]int64, len(payloads))
	for i, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
		offsets[i] = int64(buf.Len())
	}
	return buf.Bytes(), offsets
}

func TestReaderCleanStream(t *testing.T) {
	stream, offsets := writeFrames(t, []byte("one"), []byte("two"), []byte("three"))
	fr := NewReader(bytes.NewReader(stream))
	for i, want := range []string{"one", "two", "three"} {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
		if fr.Offset() != offsets[i] {
			t.Fatalf("offset after frame %d = %d, want %d", i, fr.Offset(), offsets[i])
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

// TestReaderTornTails cuts and corrupts a three-frame stream at every
// interesting point and asserts the reader recovers exactly the
// frames before the damage, reporting the last good offset.
func TestReaderTornTails(t *testing.T) {
	stream, offsets := writeFrames(t, []byte("frame-a"), []byte("frame-b"), []byte("frame-c"))
	cases := []struct {
		name      string
		mutate    func([]byte) []byte
		wantGood  int   // complete frames recovered
		wantAfter int64 // reported offset of last good frame
	}{
		{"cut mid-header", func(b []byte) []byte { return b[:offsets[1]+5] }, 2, offsets[1]},
		{"cut mid-payload", func(b []byte) []byte { return b[:offsets[2]-2] }, 2, offsets[1]},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}, 2, offsets[1]},
		{"garbage length prefix", func(b []byte) []byte {
			c := append([]byte(nil), b[:offsets[1]]...)
			var hdr [12]byte
			binary.BigEndian.PutUint64(hdr[:8], MaxFrame+7)
			return append(c, hdr[:]...)
		}, 2, offsets[1]},
		{"trailing garbage", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0xde, 0xad, 0xbe, 0xef, 0x99, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08)
		}, 3, offsets[2]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewReader(bytes.NewReader(tc.mutate(stream)))
			good := 0
			for {
				_, err := fr.Next()
				if err == nil {
					good++
					continue
				}
				if err == io.EOF {
					t.Fatalf("stream ended cleanly after %d frames, want ErrTruncatedFrame", good)
				}
				var torn *ErrTruncatedFrame
				if !asTruncated(err, &torn) {
					t.Fatalf("err = %v (%T), want *ErrTruncatedFrame", err, err)
				}
				if torn.Offset != tc.wantAfter {
					t.Fatalf("torn offset = %d, want %d", torn.Offset, tc.wantAfter)
				}
				break
			}
			if good != tc.wantGood {
				t.Fatalf("recovered %d frames, want %d", good, tc.wantGood)
			}
		})
	}
}

// asTruncated is errors.As without the import dance in table tests.
func asTruncated(err error, target **ErrTruncatedFrame) bool {
	if e, ok := err.(*ErrTruncatedFrame); ok {
		*target = e
		return true
	}
	return false
}

func TestReaderSkipOffsets(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf, "MAGIC01\n"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes()[len("MAGIC01\n"):])
	fr := NewReader(r)
	fr.Skip(int64(len("MAGIC01\n")))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if want := int64(buf.Len()); fr.Offset() != want {
		t.Fatalf("offset = %d, want %d", fr.Offset(), want)
	}
}

// FuzzFrames walks arbitrary bytes as a frame stream with both read
// sides, Reader.Next and NextFrameInBuf with verification: neither may
// panic, both must return the same payloads in the same order, stop at
// the same offset for the same reason (a clean end or damage), and
// never return a payload larger than MaxFrame.
func FuzzFrames(f *testing.F) {
	seeds := [][][]byte{
		nil,
		{{}},
		{[]byte("one"), []byte("two"), []byte("three")},
		{bytes.Repeat([]byte("x"), 300), {}, []byte("tail")},
	}
	for _, payloads := range seeds {
		stream, offsets := writeFrames(f, payloads...)
		f.Add(stream)
		if len(offsets) > 0 {
			// A torn tail and a flipped payload byte.
			f.Add(stream[:len(stream)-1])
			flipped := append([]byte(nil), stream...)
			flipped[len(flipped)-1] ^= 0xff
			f.Add(flipped)
		}
	}
	var huge [12]byte
	binary.BigEndian.PutUint64(huge[:8], MaxFrame)
	f.Add(huge[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewReader(bytes.NewReader(data))
		var fromReader [][]byte
		var readerErr error
		for {
			p, err := fr.Next()
			if err != nil {
				readerErr = err
				break
			}
			if len(p) > MaxFrame {
				t.Fatalf("Reader returned a %d-byte payload", len(p))
			}
			fromReader = append(fromReader, p)
		}

		off, n := 0, 0
		var bufErr error
		for {
			p, next, err := NextFrameInBuf(data, off, true)
			if err != nil {
				if next != off {
					t.Fatalf("NextFrameInBuf failed at %d but moved to %d", off, next)
				}
				bufErr = err
				break
			}
			if len(p) > MaxFrame {
				t.Fatalf("NextFrameInBuf returned a %d-byte payload", len(p))
			}
			if n >= len(fromReader) || !bytes.Equal(p, fromReader[n]) {
				t.Fatalf("frame %d differs between NextFrameInBuf and Reader", n)
			}
			off, n = next, n+1
		}

		if n != len(fromReader) {
			t.Fatalf("NextFrameInBuf read %d frames, Reader %d", n, len(fromReader))
		}
		if int64(off) != fr.Offset() {
			t.Fatalf("NextFrameInBuf stopped at %d, Reader at %d", off, fr.Offset())
		}
		if (bufErr == io.EOF) != (readerErr == io.EOF) {
			t.Fatalf("end of stream: NextFrameInBuf %v, Reader %v", bufErr, readerErr)
		}
		var torn *ErrTruncatedFrame
		if readerErr != io.EOF && (!errors.As(readerErr, &torn) || torn.Offset != int64(off)) {
			t.Fatalf("Reader stopped with %v; want *ErrTruncatedFrame at offset %d", readerErr, off)
		}
	})
}
