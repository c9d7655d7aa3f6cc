package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/frameio"
)

// Persistence: Symphony hosts the designers' proprietary data, so
// durability is part of the platform contract. SnapshotContext writes
// format v5 and RestoreContext reads only v5: the formats before it
// (v1, a single JSON document; v2, the framed envelope with JSON
// records; v3, whose entries repeated their field names and whose
// directories were 64-bit; v4, whose record values were plain) are
// refused with
// frameio.ErrUnsupportedFormat. No reader of an older format is
// kept: a data dir written in one does not boot, and neither does a
// backup taken by the binary that wrote it (a backup embeds that
// binary's snapshot), so its datasets are uploaded again.
//
// Format v5 is framed: the magic string, a header frame naming every
// tenant, then one frame per dataset in deterministic (tenant,
// dataset) order. A dataset frame carries its records as a binary
// record section with offset directories, plain IDs and DEFLATE blocks
// of values (see mapped.go) followed by the index's v4 mmap-ready
// stream. RestoreContext attaches
// datasets as lazy views over the snapshot's (typically mmap'd) bytes
// — writes land in a heap overlay over them, so boot cost and
// resident set scale with what the workload touches, not corpus size.
//
// Frames are encoded by a GOMAXPROCS-wide worker pool, each under its
// own dataset's read lock — a checkpoint never holds the store-wide
// lock while encoding, so writers on other datasets are not blocked.
// The price is per-dataset (not global) point-in-time consistency,
// the usual contract for online checkpoints.
//
// Restore builds the replacement tenant map
// completely — validating schemas, records and index attachment —
// before swapping it in, so a corrupt or truncated snapshot leaves
// the target store unchanged.

const (
	snapshotVersion = 5
	snapshotMagic   = "SYMSNP5\n"
)

// PersistOption configures SnapshotContext.
type PersistOption func(*persistOptions)

type persistOptions struct {
	cache *FrameCache
}

// WithFrameCache makes SnapshotContext incremental: dataset frames
// whose dataset version has not moved since the cached encode are
// written from the cache instead of re-encoded — only datasets
// mutated since the last checkpoint pay serialization (the dominant
// snapshot cost; the frame layout already isolates datasets, so the
// stream stays byte-identical). Pass the same cache to every periodic
// checkpoint of one store; the cache prunes itself to the datasets
// seen in the latest pass, so dropped datasets do not pin memory. The
// cost is residency: the cache holds roughly one snapshot's worth of
// encoded frames for as long as it lives — memory traded for the
// skipped re-encodes.
func WithFrameCache(c *FrameCache) PersistOption {
	return func(o *persistOptions) { o.cache = c }
}

// FrameCache holds encoded dataset frames keyed by dataset identity
// and version, shared across the checkpoints of one store. Safe for
// concurrent use by the encode worker pool.
type FrameCache struct {
	mu     sync.Mutex
	frames map[*Dataset]cachedFrame
	hits   uint64
	misses uint64
}

type cachedFrame struct {
	version uint64
	payload []byte
}

// NewFrameCache returns an empty frame cache.
func NewFrameCache() *FrameCache {
	return &FrameCache{frames: make(map[*Dataset]cachedFrame)}
}

func (c *FrameCache) get(ds *Dataset, version uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cf, ok := c.frames[ds]
	if !ok || cf.version != version {
		c.misses++
		return nil, false
	}
	c.hits++
	return cf.payload, true
}

func (c *FrameCache) put(ds *Dataset, version uint64, payload []byte) {
	c.mu.Lock()
	c.frames[ds] = cachedFrame{version: version, payload: payload}
	c.mu.Unlock()
}

// retain drops cache entries for datasets absent from the latest
// snapshot pass (dropped datasets, dropped tenants).
func (c *FrameCache) retain(live map[*Dataset]bool) {
	c.mu.Lock()
	for ds := range c.frames {
		if !live[ds] {
			delete(c.frames, ds)
		}
	}
	c.mu.Unlock()
}

// FrameCacheStats is what a frame cache holds and how it has served.
type FrameCacheStats struct {
	Entries int `json:"entries"`
	// Bytes is the held frames' length; CapBytes the capacity of the
	// buffers holding them, the heap the cache keeps alive.
	Bytes    int64 `json:"bytes"`
	CapBytes int64 `json:"capBytes"`
	// Hits (frames reused) and Misses (frames encoded) are cumulative
	// across all snapshots using this cache.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Stats reports the cache's entries, the bytes they hold and the
// cumulative hits and misses.
func (c *FrameCache) Stats() FrameCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FrameCacheStats{Entries: len(c.frames), Hits: c.hits, Misses: c.misses}
	for _, cf := range c.frames {
		st.Bytes += int64(len(cf.payload))
		st.CapBytes += int64(cap(cf.payload))
	}
	return st
}

func applyPersistOptions(opts []PersistOption) persistOptions {
	var o persistOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// framedHeader is the header frame of a v5 stream.
type framedHeader struct {
	Version int            `json:"version"`
	Tenants []framedTenant `json:"tenants"`
}

type framedTenant struct {
	ID       string                `json:"id"`
	Owner    string                `json:"owner"`
	Grants   map[string]Permission `json:"grants,omitempty"`
	Quota    int                   `json:"quota,omitempty"`
	Datasets []string              `json:"datasets,omitempty"`
}

// datasetMeta is the JSON metadata part of a dataset frame. The
// frame payload is the 8-byte big-endian metadata length, the
// metadata JSON, an 8-byte big-endian record-section length, the
// binary record section (mapped.go), then the dataset's serialized
// sharded index (an index v4 stream) as raw bytes. The record
// section's entries follow Schema's field order. Records and
// postings both live in directory-indexed binary sections, so a
// restore serves them in place.
type datasetMeta struct {
	Tenant string `json:"tenant"`
	Schema Schema `json:"schema"`
	NextID int    `json:"nextId"`
}

// cutSection splits an 8-byte big-endian length prefix and the
// section it announces off the front of b. Dataset frames are a chain
// of such sections: metadata JSON, then the record section, then the
// index stream as the remainder.
func cutSection(b []byte, what string) (sec, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("dataset frame missing %s", what)
	}
	n := binary.BigEndian.Uint64(b[:8])
	if n > uint64(len(b)-8) {
		return nil, nil, fmt.Errorf("dataset frame %s length %d exceeds payload", what, n)
	}
	end := 8 + n
	return b[8:end:end], b[end:], nil
}

// datasetRef pins one dataset for a snapshot pass.
type datasetRef struct {
	tenant string
	name   string
	ds     *Dataset
}

// collect walks the store under its read lock and returns the tenant
// metadata and dataset references in deterministic order. The store
// lock is released before any dataset is encoded.
func (s *Store) collect() ([]framedTenant, []datasetRef) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var meta []framedTenant
	var refs []datasetRef
	for _, id := range ids {
		t := s.tenants[id]
		// Deep-copy grants: the header is marshaled after this lock is
		// released, and Grant/Revoke mutate the live map.
		grants := make(map[string]Permission, len(t.grants))
		for actor, perm := range t.grants {
			grants[actor] = perm
		}
		vt := framedTenant{ID: id, Owner: t.owner, Grants: grants, Quota: t.quota}
		for name := range t.datasets {
			vt.Datasets = append(vt.Datasets, name)
		}
		sort.Strings(vt.Datasets)
		for _, name := range vt.Datasets {
			refs = append(refs, datasetRef{tenant: id, name: name, ds: t.datasets[name]})
		}
		meta = append(meta, vt)
	}
	return meta, refs
}

// SnapshotContext serializes the whole store in format v5. Dataset
// frames are encoded concurrently by a worker pool and written in
// deterministic (tenant, dataset) order; only the frame being encoded
// holds its dataset's read lock, so concurrent writers on other
// datasets proceed during a checkpoint. Datasets still serving from a
// mapped snapshot re-emit their mapped bytes verbatim — a checkpoint
// of a freshly booted store copies views, it does not re-encode.
// Cancellation is checked between dataset frames: a cancelled
// snapshot stops encoding, leaves a truncated (unloadable, by design
// — restore validates) stream and returns ctx.Err().
func (s *Store) SnapshotContext(ctx context.Context, w io.Writer, opts ...PersistOption) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o := applyPersistOptions(opts)
	meta, refs := s.collect()

	if err := frameio.WriteMagic(w, snapshotMagic); err != nil {
		return err
	}
	hdr, err := json.Marshal(framedHeader{Version: snapshotVersion, Tenants: meta})
	if err != nil {
		return err
	}
	if err := frameio.WriteFrame(w, hdr); err != nil {
		return err
	}

	type frameResult struct {
		buf  []byte
		err  error
		done chan struct{}
	}
	results := make([]frameResult, len(refs))
	for i := range results {
		results[i].done = make(chan struct{})
	}
	jobs := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	ws := make(flateWriters, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i].buf, results[i].err = refs[i].encodeFrame(o.cache, ws)
				close(results[i].done)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range refs {
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Undispatched frames stay un-encoded; the writer loop
				// below bails out on the same signal, so it never waits
				// on a done channel that will not close.
				return
			}
		}
	}()
	defer wg.Wait()

	// Write frames in order as each becomes ready: the stream is
	// deterministic even though encoding is concurrent.
	for i := range refs {
		select {
		case <-results[i].done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if results[i].err != nil {
			return fmt.Errorf("store: snapshot %s/%s: %w", refs[i].tenant, refs[i].name, results[i].err)
		}
		if err := frameio.WriteFrame(w, results[i].buf); err != nil {
			return err
		}
	}
	if o.cache != nil {
		live := make(map[*Dataset]bool, len(refs))
		for _, ref := range refs {
			live[ref.ds] = true
		}
		o.cache.retain(live)
	}
	return nil
}

// encodeFrame serializes one dataset under its own read lock, or
// reuses the cached frame when the dataset's version has not moved
// since it was encoded. The version is read under the same read lock
// that covers the encode, so a cached (version, payload) pair always
// agrees with itself. Record blocks compress with a writer from ws.
func (ref datasetRef) encodeFrame(cache *FrameCache, ws flateWriters) ([]byte, error) {
	ds := ref.ds
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if cache != nil {
		if payload, ok := cache.get(ds, ds.ver); ok {
			return payload, nil
		}
	}
	meta, err := json.Marshal(datasetMeta{Tenant: ref.tenant, Schema: ds.schema, NextID: ds.nextID})
	if err != nil {
		return nil, err
	}
	// An unwritten mapped record section round-trips verbatim; a
	// written one re-encodes around its base, producing the same bytes
	// for the same content — the encoder is deterministic.
	var recSec []byte
	if mr := ds.mrecs; mr != nil && len(ds.records) == 0 && mr.nGone == 0 {
		recSec = mr.raw
	} else {
		recSec = ds.encodeRecordsLocked(ws)
	}
	payload := make([]byte, 8, 16+len(meta)+len(recSec))
	binary.BigEndian.PutUint64(payload, uint64(len(meta)))
	payload = append(payload, meta...)
	payload = binary.BigEndian.AppendUint64(payload, uint64(len(recSec)))
	payload = append(payload, recSec...)
	// The index snapshot runs inside the dataset lock so records and
	// postings in this frame agree with each other. Index shard locks
	// nest inside the dataset lock; nothing takes them in the other
	// order. Clean mapped index shards are written verbatim by the
	// index encoder, completing the zero-re-encode checkpoint path.
	buf := bytes.NewBuffer(payload)
	if err := ds.ix.Snapshot(buf); err != nil {
		return nil, err
	}
	// Restore refuses a frame past the limit, and the record section's
	// u32 offsets hold only within it: fail the checkpoint instead.
	if buf.Len() > frameio.MaxFrame {
		return nil, fmt.Errorf("dataset frame of %d bytes exceeds the %d-byte frame limit", buf.Len(), frameio.MaxFrame)
	}
	if cache != nil {
		cache.put(ds, ds.ver, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// RestoreContext replaces the store's contents from the v5 snapshot
// held in data, attaching every dataset in place: its record section
// and index payloads become the immutable base under a heap overlay
// (mapped.go), so data — typically an mmapio mapping of the checkpoint
// file — must stay valid and unmodified for the life of the store.
// Each dataset keeps the shard count its snapshot was written with,
// unless the store fixes one (WithShardTarget) and the two differ:
// then the index reshards to it, which moves that index onto the
// heap. A v1, v2, v3 or v4 snapshot fails with
// frameio.ErrUnsupportedFormat.
//
// Frame checksums are verified during the walk, so a truncated or
// corrupt stream fails before any dataset attaches. Dataset frames
// then attach on a worker pool — each job is independent, so restore
// scales with the dataset count — and the replacement tenant map is
// swapped in only once it is built and validated completely, so a
// failed restore — including a cancelled one — leaves the store
// unchanged. Cancellation is checked between dataset frames;
// already-dispatched frames finish (they only build private state).
func (s *Store) RestoreContext(ctx context.Context, data []byte) error {
	const op = "store: restore"
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := checkMagic(data); err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	hdrBytes, off, err := frameio.NextFrameInBuf(data, len(snapshotMagic), true)
	if err != nil {
		return fmt.Errorf("%s header: %w", op, err)
	}
	tenants, expects, err := parseFramedHeader(hdrBytes)
	if err != nil {
		return err
	}
	frames := make([][]byte, len(expects))
	for i := range frames {
		if err := ctx.Err(); err != nil {
			return err
		}
		if frames[i], off, err = frameio.NextFrameInBuf(data, off, true); err != nil {
			return fmt.Errorf("%s %s/%s frame: %w", op, expects[i].tenant, expects[i].name, err)
		}
	}
	if off != len(data) {
		return fmt.Errorf("%s: trailing data after %d dataset frames", op, len(expects))
	}

	datasets := make([]*Dataset, len(expects))
	errs := make([]error, len(expects))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				datasets[i], errs[i] = s.decodeFrame(frames[i], expects[i])
			}
		}()
	}
	dispatched := len(frames)
	for i := range frames {
		if ctx.Err() != nil {
			dispatched = i
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if dispatched < len(frames) {
		return ctx.Err()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s %s/%s: %w", op, expects[i].tenant, expects[i].name, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	for i, e := range expects {
		t := tenants[e.tenant]
		if _, dup := t.datasets[e.name]; dup {
			return fmt.Errorf("%s: duplicate dataset %s/%s", op, e.tenant, e.name)
		}
		t.datasets[e.name] = datasets[i]
	}
	for _, t := range tenants {
		if t.quota > 0 {
			for _, ds := range t.datasets {
				ds.setQuotaCheck(usageExcluding(t, ds), t.quota)
			}
		}
	}
	s.mu.Lock()
	s.tenants = tenants
	s.mu.Unlock()
	return nil
}

// checkMagic accepts a stream that starts with the v5 magic. The
// signatures of the formats before it — v4's, v3's and v2's magic and
// v1's leading '{' (a JSON document) — are refused as an unsupported
// format, anything else as not a snapshot.
func checkMagic(data []byte) error {
	head := string(data[:min(len(data), len(snapshotMagic))])
	switch {
	case head == snapshotMagic:
		return nil
	case head == "SYMSNP4\n", head == "SYMSNP3\n", head == "SYMSNP2\n":
		return fmt.Errorf("snapshot format v%c, the floor is v%d: %w", head[6], snapshotVersion, frameio.ErrUnsupportedFormat)
	case len(head) > 0 && head[0] == '{':
		return fmt.Errorf("snapshot format v1 (JSON document), the floor is v%d: %w", snapshotVersion, frameio.ErrUnsupportedFormat)
	}
	return fmt.Errorf("bad magic %q", head)
}

// frameExpect names the dataset one frame must carry, derived from
// the header; the stream is rejected if they disagree.
type frameExpect struct{ tenant, name string }

// parseFramedHeader validates the header frame and returns the
// replacement tenant map plus the expected dataset frame sequence.
func parseFramedHeader(hdrBytes []byte) (map[string]*tenant, []frameExpect, error) {
	var hdr framedHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, nil, fmt.Errorf("store: restore header: %w", err)
	}
	if hdr.Version != snapshotVersion {
		return nil, nil, fmt.Errorf("store: restore: unsupported snapshot version %d", hdr.Version)
	}
	var expects []frameExpect
	tenants := make(map[string]*tenant, len(hdr.Tenants))
	for _, vt := range hdr.Tenants {
		if vt.ID == "" || vt.Owner == "" {
			return nil, nil, fmt.Errorf("store: restore: tenant with empty id/owner")
		}
		if _, dup := tenants[vt.ID]; dup {
			return nil, nil, fmt.Errorf("store: restore: duplicate tenant %q", vt.ID)
		}
		t := &tenant{
			owner:    vt.Owner,
			datasets: make(map[string]*Dataset, len(vt.Datasets)),
			grants:   vt.Grants,
			quota:    vt.Quota,
		}
		if t.grants == nil {
			t.grants = make(map[string]Permission)
		}
		tenants[vt.ID] = t
		for _, name := range vt.Datasets {
			expects = append(expects, frameExpect{tenant: vt.ID, name: name})
		}
	}
	return tenants, expects, nil
}

// decodeFrame rebuilds one dataset from a v5 frame, its index at the
// shard count the frame was written with, or resharded to the store's
// fixed target when it has one and the counts differ. The frame's
// record section and index attach as views over the frame's bytes:
// records and postings stay the base under a heap overlay, and
// records are not validated one by one — the frame checksum already
// vouches for the bytes, the section and index directories are
// bounds-checked, and the index's live count must equal the record
// count; re-validating every record would decode everything the
// attachment exists to avoid.
func (s *Store) decodeFrame(payload []byte, want frameExpect) (*Dataset, error) {
	metaBytes, rest, err := cutSection(payload, "metadata")
	if err != nil {
		return nil, err
	}
	var meta datasetMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, err
	}
	if meta.Tenant != want.tenant || meta.Schema.Name != want.name {
		return nil, fmt.Errorf("frame is %s/%s, header expects %s/%s",
			meta.Tenant, meta.Schema.Name, want.tenant, want.name)
	}
	if err := meta.Schema.Validate(); err != nil {
		return nil, err
	}
	ds := newDataset(meta.Schema, s.shardTarget, s.cache)
	ds.nextID = meta.NextID
	recSec, ixBytes, err := cutSection(rest, "record section")
	if err != nil {
		return nil, err
	}
	if ds.mrecs, err = attachRecordSection(recSec, meta.Schema); err != nil {
		return nil, err
	}
	// newDataset already registered the schema's field options, so the
	// restored index's boosts and analyzers line up.
	if err := ds.ix.Restore(ixBytes); err != nil {
		return nil, err
	}
	if got, want := ds.ix.Len(), ds.lenLocked(); got != want {
		return nil, fmt.Errorf("restored index has %d live docs, dataset has %d records", got, want)
	}
	return ds, nil
}
