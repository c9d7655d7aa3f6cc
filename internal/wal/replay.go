package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/frameio"
)

// ErrSkipRecord is returned by a replay apply function to drop one
// record and keep going — the escape hatch for records whose target
// no longer exists (a put racing a concurrent drop landed in the log
// after the drop; the ambiguity is inherent, the data is gone either
// way). Replay counts skips so recovery is never silently lossy.
var ErrSkipRecord = errors.New("wal: skip record")

// ErrDamagedHistory reports damage inside a sealed segment — one with
// newer segments after it. A torn tail from a crash can only live in
// the newest segment (boot seals it with SealTornTail before opening
// the next one), so damage behind the frontier is media corruption of
// acknowledged history. Replay refuses to continue past it: the
// segments beyond the hole hold acked writes that would otherwise be
// dropped silently, and an operator has to decide what to salvage.
var ErrDamagedHistory = errors.New("wal: damaged sealed segment")

// ReplayStats reports what a recovery pass found. Records, Applied
// and Skipped count rows: a put-batch record of n rows counts n.
type ReplayStats struct {
	// Segments is how many segment files were read.
	Segments int
	// Records is how many rows were decoded.
	Records int
	// Applied is how many rows the apply function accepted.
	Applied int
	// Skipped counts rows dropped via ErrSkipRecord.
	Skipped int
	// Torn reports that the newest segment ended at a damaged frame
	// instead of a clean end of log — the expected signature of a
	// crash mid-append (torn write). TornSegment and TornOffset
	// locate it: the byte offset of the last fully verified frame in
	// that segment file, the point SealTornTail truncates back to.
	Torn        bool
	TornSegment string
	TornOffset  int64
}

// Replay reads every WAL segment in dir in order and hands each
// record to apply; a put-batch record is one call, applied or skipped
// as a whole. A SYMWAL1 segment (JSON records, the format before
// SYMWAL2) fails the replay with frameio.ErrUnsupportedFormat and is
// left untouched; records of the segments before it have been applied
// by then.
//
// A torn or corrupt tail of the NEWEST segment ends the replay
// cleanly at the last verified frame (recovery's contract: lose at
// most the unsynced suffix, never apply a partial record); the
// caller then seals the tear with SealTornTail before opening a
// new log generation. Damage in any older segment is another matter:
// boot sealed that segment's tail before the next one was created, so
// a bad frame behind the frontier is corruption of acknowledged
// history, and Replay aborts with ErrDamagedHistory rather than
// silently dropping the acked segments beyond it. Apply errors other
// than ErrSkipRecord abort with the error. A missing directory
// replays zero records.
func Replay(dir string, apply func(*Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return st, fmt.Errorf("wal: replay: %w", err)
	}
	for i, n := range segs {
		name := filepath.Join(dir, segmentName(n))
		torn, err := replaySegment(name, apply, &st)
		if err != nil {
			return st, err
		}
		st.Segments++
		if torn {
			st.Torn = true
			st.TornSegment = name
			if newer := len(segs) - i - 1; newer > 0 {
				return st, fmt.Errorf("wal: replay %s: damage at offset %d with %d newer segment(s) holding acknowledged writes: %w",
					name, st.TornOffset, newer, ErrDamagedHistory)
			}
			break
		}
	}
	return st, nil
}

// SealTornTail truncates the damage off the torn tail that Replay
// reported and fsyncs the file, making the tear point a durable,
// clean end of segment. Boot calls it between Replay and Open: once a
// newer segment exists, a damaged frame in this one can no longer be
// told apart from media corruption of acked history (see
// ErrDamagedHistory), so the tear must be sealed while the segment is
// still the newest. A stats value without a tear seals nothing.
func SealTornTail(st ReplayStats) error {
	if !st.Torn {
		return nil
	}
	f, err := os.OpenFile(st.TornSegment, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: seal torn tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(st.TornOffset); err != nil {
		return fmt.Errorf("wal: seal torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: seal torn tail: %w", err)
	}
	return nil
}

// replaySegment reads one segment file, reporting whether it ended
// in a torn/corrupt frame (recorded in st.TornOffset).
func replaySegment(name string, apply func(*Record) error, st *ReplayStats) (torn bool, err error) {
	f, err := os.Open(name)
	if err != nil {
		return false, fmt.Errorf("wal: replay %s: %w", name, err)
	}
	defer f.Close()
	if info, err := f.Stat(); err == nil && info.Size() == 0 {
		// A segment created but never flushed (crash before the first
		// sync), or a torn-at-zero tail a previous boot sealed. Either
		// way it holds nothing and is a clean, empty segment — not a
		// tear, or sealed history would look damaged forever.
		return false, nil
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var magic [len(segmentMagic)]byte
	_, err = io.ReadFull(br, magic[:])
	if err == nil && string(magic[:]) == segmentMagicV1 {
		return false, fmt.Errorf("wal: replay %s: segment format SYMWAL1, the floor is SYMWAL2: %w",
			name, frameio.ErrUnsupportedFormat)
	}
	if err != nil || string(magic[:]) != segmentMagic {
		// A crash can leave a segment with a partial (or absent)
		// magic: created, never fsynced. Nothing in it was ever
		// acknowledged under any policy; treat it as a torn tail at
		// offset zero.
		st.TornOffset = 0
		return true, nil
	}
	fr := frameio.NewReader(br)
	fr.Skip(int64(len(magic)))
	for {
		start := fr.Offset()
		payload, err := fr.Next()
		if err == io.EOF {
			return false, nil
		}
		var tornErr *frameio.ErrTruncatedFrame
		if errors.As(err, &tornErr) {
			st.TornOffset = tornErr.Offset
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("wal: replay %s: %w", name, err)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			// The frame passed its CRC but does not decode: not tail
			// damage, structural corruption. Stop before it like a tear
			// — applying anything after a hole would reorder history.
			st.TornOffset = start
			return true, nil
		}
		rows := rec.rows()
		st.Records += rows
		switch aerr := apply(rec); {
		case aerr == nil:
			st.Applied += rows
		case errors.Is(aerr, ErrSkipRecord):
			st.Skipped += rows
		default:
			return false, fmt.Errorf("wal: replay %s record seq %d (%s %s/%s): %w",
				name, rec.Seq, rec.Op, rec.Tenant, rec.Dataset, aerr)
		}
	}
}
