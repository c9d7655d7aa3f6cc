package index

import (
	"context"
	"fmt"
	"sync"
)

// Online dynamic resharding: Reshard rebuilds the index toward a new
// shard count while readers keep querying and writers keep mutating.
//
// The protocol is copy-on-write over the ring descriptor (index.go):
//
//  1. Publish a migration. From this point every writer journals the
//     op it applied to the live ring, under the owning shard's write
//     lock (shard.add / shard.delete), so journal order agrees with
//     apply order per document ID.
//  2. Copy one source shard at a time into the staging shards: under
//     the source's read lock, invert its block-compressed postings
//     back into per-document token streams and re-add each live
//     document, routed by the target ring's hash. Only one source
//     shard's worth of decoded tokens is resident at a time — the
//     memory high-water mark of a migration is ~1/N of the corpus.
//     Readers are never blocked (the copy holds a read lock, same as
//     any query). Writers routed to the shard currently being copied
//     queue behind that read lock for the duration of that shard's
//     copy — 1/N of the write traffic at a time; writers on every
//     other shard proceed.
//  3. Commit: take the write gate exclusively (waits for in-flight
//     writers, blocks new ones — readers are unaffected), replay the
//     journal into the staging shards, re-apply the field-options
//     registry, swap the ring pointer, clear the migration. The
//     window is proportional to the journal length, i.e. to the
//     write traffic that arrived during the copy.
//
// A write that lands before the copy pass reads its shard is picked
// up by the copy; one that lands after is journaled (the migration
// pointer is re-loaded under the shard lock, which the copy's read
// lock synchronizes with); one that straddles is both copied and
// journaled, and the replay is idempotent (adds replace, deletes
// tolerate absence). Scores after a reshard are bit-identical to a
// fresh build at the target count because every input to scoring —
// term frequencies, document lengths, live counts, document
// frequencies — is an exact integer carried over unchanged, and
// ordinals never leak across shards.

// migration is the journal shared by writers while a reshard copies.
type migration struct {
	mu  sync.Mutex
	ops []journalOp
}

// journalOp is one applied write: a replacement add (doc + its
// analyzed terms, so replay never re-runs an analyzer) or a delete.
type journalOp struct {
	del      bool
	id       string
	doc      Document
	analyzed docTerms
}

func (m *migration) journalAdd(doc Document, analyzed docTerms) {
	m.mu.Lock()
	m.ops = append(m.ops, journalOp{doc: doc, analyzed: analyzed})
	m.mu.Unlock()
}

func (m *migration) journalDelete(id string) {
	m.mu.Lock()
	m.ops = append(m.ops, journalOp{del: true, id: id})
	m.mu.Unlock()
}

// Resharding reports whether a shard-count migration is in flight.
func (ix *Index) Resharding() bool { return ix.mig.Load() != nil }

// ReshardContext rebuilds the index to n shards online. Readers are
// never blocked: queries run against the old ring throughout the
// migration and against the new ring after the atomic swap, with
// bit-identical scores either way. Writers stay live on every shard
// except the one currently being copied (whose writes queue behind
// the copy's read lock), and all writers pause for the commit window
// while the journal — sized by the write traffic that arrived during
// the copy — is replayed. Concurrent reshard calls serialize;
// resharding to the current count is a no-op.
//
// Cancelling ctx aborts the migration between shard copies: the
// staging ring is dropped, the live ring and the recorded target
// shard count are left exactly as before, and ctx.Err() is returned.
// An abort never loses a write — writers only ever applied ops to the
// live ring; the journal that dies with the migration held copies.
func (ix *Index) ReshardContext(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("index: reshard to %d shards", n)
	}
	ix.reshardMu.Lock()
	defer ix.reshardMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	old := ix.ring.Load()
	if len(old.shards) == n {
		ix.target = n
		return nil
	}

	staging := &ring{gen: old.gen + 1, shards: make([]*shard, n)}
	for i := range staging.shards {
		staging.shards[i] = newShard(ix)
	}

	// Publish the migration before reading any source shard: every
	// write applied after this point is journaled (shard.add/delete
	// load the pointer under the shard lock).
	m := &migration{}
	ix.mig.Store(m)

	// Copy one source shard at a time while readers and writers keep
	// using the old ring, checking for cancellation between shards —
	// each copy holds a read lock, so mid-shard aborts would buy
	// little and complicate the journal contract.
	for _, src := range old.shards {
		if err := ctx.Err(); err != nil {
			ix.mig.Store(nil)
			return err
		}
		migrateShard(src, staging)
	}
	if err := ctx.Err(); err != nil {
		ix.mig.Store(nil)
		return err
	}

	// Commit: exclude writers, replay the journal, swap. The target
	// count is recorded only here, so an aborted reshard leaves no
	// trace.
	ix.wgate.Lock()
	ix.target = n
	m.mu.Lock() // writers are drained; taken for the race detector's benefit
	ops := m.ops
	m.mu.Unlock()
	for _, op := range ops {
		if op.del {
			staging.shardFor(op.id).deleteStaging(op.id)
		} else {
			staging.shardFor(op.doc.ID).addStaging(op.doc, op.analyzed)
		}
	}
	// Re-apply the field-options registry: SetFieldOptions calls that
	// raced the copy updated the registry (under the shared write
	// gate) but possibly only the old ring's shards.
	ix.cfg.RLock()
	fields := make(map[string]FieldOptions, len(ix.cfg.fields))
	for f, opts := range ix.cfg.fields {
		fields[f] = opts
	}
	ix.cfg.RUnlock()
	for _, s := range staging.shards {
		for f, opts := range fields {
			s.setFieldOptions(f, opts)
		}
	}
	ix.ring.Store(staging)
	ix.mig.Store(nil)
	ix.wgate.Unlock()
	return nil
}

// migrateShard copies every live document of src into the staging
// ring, reconstructing each document's per-field terms from the
// inverted postings (term + positions) instead of re-running
// analyzers. Document lengths are preserved exactly: a document's
// token count per field equals the sum of its term frequencies, and
// fields indexed with zero tokens are re-created by addLocked from
// doc.Fields itself.
func migrateShard(src *shard, staging *ring) {
	src.mu.RLock()
	defer src.mu.RUnlock()
	nDocs := src.numDocs()
	toks := make([]docTerms, nDocs)
	var positions []int
	for field, fp := range src.fields {
		// Walk the full dictionary — heap and still-mapped terms alike.
		// lookup() only touches the lazy view cache, so a mapped shard
		// migrates without materializing anything under the read lock;
		// the staging shards it feeds are plain heap shards.
		for _, term := range fp.sortedTermsAll() {
			list := fp.lookup(term)
			if list == nil {
				continue
			}
			it := list.iter()
			pi := list.positions()
			for it.next() {
				if !src.liveAt(it.doc) {
					pi.skip(it.tf)
					continue
				}
				positions = pi.read(it.tf, positions)
				// The walk is field by field, so a document's entry
				// for field, if it has one yet, is its last.
				d := toks[it.doc]
				if len(d) == 0 || d[len(d)-1].field != field {
					d = append(d, fieldTerms{field: field})
				}
				d[len(d)-1].appendTerm(term, positions)
				toks[it.doc] = d
			}
		}
	}
	for ord := 0; ord < nDocs; ord++ {
		doc := src.docAt(ord)
		if doc.ID == "" {
			continue
		}
		staging.shardFor(doc.ID).addStaging(doc, toks[ord])
		toks[ord] = nil // release as we go; migration memory stays ~1 shard
	}
}
