// Package frameio implements the length-prefixed framing shared by
// the durability formats: the sharded index snapshot, the store's
// framed snapshot and the write-ahead log. A stream is a fixed magic string followed by
// frames, each an 8-byte big-endian payload length, a 4-byte CRC-32C
// checksum of the payload, and the payload bytes. Length-prefixed
// frames let writers produce payloads concurrently and still emit a
// deterministic byte stream, and let readers hand whole payloads to a
// decoding worker pool; the checksum turns silent on-disk corruption
// into a clean restore error instead of a subtly wrong index.
package frameio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrUnsupportedFormat reports a stream in an on-disk format older
// than the one its reader accepts (the format floor): readable bytes
// in a format the program no longer decodes, not damage. Readers wrap
// it with the format found and the floor. Boot treats it as fatal
// rather than as corruption to fall back from or truncate, so an old
// file is never quarantined, truncated or checkpointed over.
var ErrUnsupportedFormat = errors.New("unsupported on-disk format")

// ErrTruncatedFrame reports a stream that ends in something other
// than a frame boundary: a partial header, a payload shorter than its
// length prefix, a checksum mismatch, or a length prefix past
// MaxFrame. Offset is the byte position just after the last fully
// verified frame — the point an append-only log can safely be
// truncated back to. It wraps the underlying cause, so callers can
// still errors.Is/As against io.ErrUnexpectedEOF and friends.
//
// Only Reader returns it: NextFrameInBuf keeps bare errors for the
// snapshot formats, where any damage is fatal anyway.
type ErrTruncatedFrame struct {
	Offset int64
	Cause  error
}

func (e *ErrTruncatedFrame) Error() string {
	return fmt.Sprintf("frameio: truncated or corrupt frame after offset %d: %v", e.Offset, e.Cause)
}

func (e *ErrTruncatedFrame) Unwrap() error { return e.Cause }

// Reader reads a frame stream sequentially while tracking byte
// offsets, so tail damage is reported as *ErrTruncatedFrame with the
// exact recovery point instead of a bare CRC or EOF error. It is the
// read side used by the write-ahead log, whose contract is "recover
// every complete frame, stop cleanly at the first incomplete one".
type Reader struct {
	r   io.Reader
	off int64 // bytes consumed up to the end of the last good frame
}

// NewReader returns a Reader positioned at offset 0 of r. If the
// stream starts with a magic string, consume and check it first and
// pass the magic length via Skip.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Skip records n bytes already consumed from the underlying stream
// (magic strings, resumption points) so reported offsets stay
// absolute.
func (fr *Reader) Skip(n int64) { fr.off += n }

// Offset reports the byte position just after the last successfully
// read frame.
func (fr *Reader) Offset() int64 { return fr.off }

// Next returns the next frame's payload. A clean end of stream
// returns io.EOF; anything else that stops the read — partial header,
// short payload, bad length, checksum mismatch — returns
// *ErrTruncatedFrame carrying the offset of the last good frame.
func (fr *Reader) Next() ([]byte, error) {
	var hdr [12]byte
	n, err := io.ReadFull(fr.r, hdr[:])
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		// A partial header is a torn tail, not a clean end.
		return nil, &ErrTruncatedFrame{Offset: fr.off, Cause: err}
	}
	length := binary.BigEndian.Uint64(hdr[:8])
	if length > MaxFrame {
		return nil, &ErrTruncatedFrame{Offset: fr.off, Cause: fmt.Errorf("frame length %d exceeds limit %d", length, MaxFrame)}
	}
	payload, err := readPayload(fr.r, length)
	if err != nil {
		return nil, &ErrTruncatedFrame{Offset: fr.off, Cause: err}
	}
	want := binary.BigEndian.Uint32(hdr[8:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &ErrTruncatedFrame{Offset: fr.off, Cause: fmt.Errorf("frame checksum mismatch: %08x, want %08x", got, want)}
	}
	fr.off += int64(n) + int64(length)
	return payload, nil
}

// readPayload reads a payload of length bytes. Up to payloadChunk
// bytes it allocates the payload at once; a longer one grows as its
// bytes arrive, so a corrupt length prefix on a short torn tail costs
// no more memory than the tail.
func readPayload(r io.Reader, length uint64) ([]byte, error) {
	if length <= payloadChunk {
		payload := make([]byte, length)
		_, err := io.ReadFull(r, payload)
		return payload, err
	}
	var buf bytes.Buffer
	n, err := buf.ReadFrom(io.LimitReader(r, int64(length)))
	if err == nil && uint64(n) < length {
		err = io.ErrUnexpectedEOF
	}
	return buf.Bytes(), err
}

// payloadChunk is the largest payload Reader allocates before reading.
const payloadChunk = 1 << 20

// castagnoli is the CRC-32C table (the polynomial used by storage
// formats generally, chosen here for its error-detection properties).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxFrame bounds a single frame payload (1 GiB). A corrupt or
// malicious length prefix fails fast instead of driving a huge
// allocation.
const MaxFrame = 1 << 30

// WriteMagic writes the format's magic string.
func WriteMagic(w io.Writer, magic string) error {
	_, err := io.WriteString(w, magic)
	return err
}

// WriteFrame writes one length-prefixed, checksummed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[8:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// NextFrameInBuf walks one frame of a stream held in memory (an
// mmap'd snapshot file), returning the payload as a subslice of buf —
// no copy — and the offset of the next frame. A clean end of buffer
// returns io.EOF; a partial header or short payload reports
// truncation. verify controls the CRC check: attach-time validation
// passes true to catch corrupt files before serving from them; re-
// walks over already-verified bytes pass false to skip the hashing.
func NextFrameInBuf(buf []byte, off int, verify bool) (payload []byte, next int, err error) {
	if off == len(buf) {
		return nil, off, io.EOF
	}
	if off > len(buf) || len(buf)-off < 12 {
		return nil, off, fmt.Errorf("frameio: truncated frame header at offset %d", off)
	}
	length := binary.BigEndian.Uint64(buf[off : off+8])
	if length > MaxFrame {
		return nil, off, fmt.Errorf("frameio: frame length %d exceeds limit %d", length, MaxFrame)
	}
	body := off + 12
	if uint64(len(buf)-body) < length {
		return nil, off, fmt.Errorf("frameio: truncated frame payload at offset %d: have %d bytes, need %d", off, len(buf)-body, length)
	}
	end := body + int(length)
	payload = buf[body:end:end]
	if verify {
		want := binary.BigEndian.Uint32(buf[off+8 : off+12])
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return nil, off, fmt.Errorf("frameio: frame checksum mismatch at offset %d: %08x, want %08x", off, got, want)
		}
	}
	return payload, end, nil
}
