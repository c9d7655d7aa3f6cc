package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

// Uploader loads parsed uploads into a designer's dataset, creating
// the dataset with an inferred schema when it does not exist yet.
type Uploader struct {
	Store *store.Store
	// Client fetches remote sources (RSS feeds, HTTP uploads). Nil
	// means http.DefaultClient. Tests and the simulated transports
	// inject an httptest client here.
	Client *http.Client
}

// Report summarizes one upload.
type Report struct {
	Dataset  string
	Format   Format
	Received int
	Loaded   int
	// Rejected maps record ordinal (0-based within the upload) to the
	// validation error that rejected it.
	Rejected map[int]string
	// CreatedDataset is true when the upload created the dataset with
	// an inferred schema.
	CreatedDataset bool
}

// Options controls an upload.
type Options struct {
	Tenant  string
	Actor   string
	Dataset string
	Format  Format
	// Schema declares the dataset schema when creating it. Zero value
	// means infer from the uploaded records.
	Schema store.Schema
	// KeyField promotes a column to record key on inferred schemas.
	KeyField string
}

// Upload parses r and loads it.
func (u *Uploader) Upload(opts Options, r io.Reader) (*Report, error) {
	recs, err := Parse(opts.Format, r)
	if err != nil {
		return nil, err
	}
	return u.load(opts, recs)
}

// UploadURL fetches a remote document (HTTP/FTP-style upload or an
// RSS feed URL) and loads it. The format is detected from the URL
// path unless set in opts.
func (u *Uploader) UploadURL(opts Options, url string) (*Report, error) {
	if opts.Format == "" {
		f, err := DetectFormat(url)
		if err != nil {
			return nil, err
		}
		opts.Format = f
	}
	client := u.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("ingest: fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ingest: fetching %s: status %s", url, resp.Status)
	}
	return u.Upload(opts, resp.Body)
}

func (u *Uploader) load(opts Options, recs []store.Record) (*Report, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("ingest: upload contains no records")
	}
	rep := &Report{
		Dataset:  opts.Dataset,
		Format:   opts.Format,
		Received: len(recs),
		Rejected: make(map[int]string),
	}
	// Uploads are batch jobs without a request context; lookups run
	// uncancellable, as before the ctx-first migration.
	ds, err := u.Store.DatasetContext(context.Background(), opts.Tenant, opts.Actor, opts.Dataset, store.PermWrite)
	switch {
	case err == nil:
	case errors.Is(err, store.ErrNoSuchDataset):
		schema := opts.Schema
		if schema.Name == "" {
			schema = store.InferSchema(opts.Dataset, recs)
			if opts.KeyField != "" {
				schema.Key = opts.KeyField
			}
		}
		schema.Name = opts.Dataset
		ds, err = u.Store.CreateDataset(opts.Tenant, opts.Actor, schema)
		if err != nil {
			return nil, err
		}
		rep.CreatedDataset = true
	default:
		return nil, err
	}
	// Fast path: one batched write. The whole upload is analyzed in
	// parallel and applied with one lock acquisition per index shard —
	// and, with a WAL attached, logged as one record and acknowledged
	// by one fsync instead of one per record.
	if _, err := ds.AddBatchContext(context.Background(), recs); err == nil {
		rep.Loaded = len(recs)
		return rep, nil
	} else if isDurabilityErr(err) {
		// The log is failed (or the batch was cancelled): nothing useful
		// to attribute per record, and retrying record-by-record against
		// a sticky-failed log would only re-apply the batch in memory.
		return nil, err
	}
	// Slow path, taken only when the batch was rejected up front
	// (validation or quota — nothing was applied): retry one record at
	// a time so the report attributes each failure to its ordinal.
	for i, rec := range recs {
		if _, err := ds.Put(rec); err != nil {
			rep.Rejected[i] = err.Error()
			continue
		}
		rep.Loaded++
	}
	return rep, nil
}

// isDurabilityErr reports whether err means the write path itself is
// broken (failed log, cancellation) rather than the records invalid.
func isDurabilityErr(err error) bool {
	var we *wal.WriteError
	return errors.As(err, &we) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// FeedSubscription polls an RSS feed into a dataset, giving the
// "real-time data freshness" behaviour the paper describes for feed
// sources. Poll is driven manually (or by a caller's ticker) so tests
// stay deterministic.
type FeedSubscription struct {
	Uploader *Uploader
	Opts     Options
	URL      string

	lastPoll time.Time
	polls    int
}

// Poll fetches the feed once and upserts its items.
func (f *FeedSubscription) Poll() (*Report, error) {
	f.Opts.Format = FormatRSS
	rep, err := f.Uploader.UploadURL(f.Opts, f.URL)
	if err != nil {
		return nil, err
	}
	f.lastPoll = time.Now()
	f.polls++
	return rep, nil
}

// Polls reports how many successful polls have run.
func (f *FeedSubscription) Polls() int { return f.polls }
