package index

import (
	"context"
	"fmt"
)

// ReshardContext rebuilds the index to n shards through the batch
// write path: it holds the write gate exclusively for the whole
// rebuild, takes each source shard's live documents in turn under that
// shard's read lock, analyzes them and applies them to a staging ring,
// then records n as the index's fixed shard count and swaps the ring
// in. Only one source shard's documents and analysis are held at a
// time.
//
// Readers are never blocked: queries answer from the old ring until
// the swap and from the new one after it, with bit-identical scores
// either way, because every scoring input (term frequencies, document
// lengths, live counts, document frequencies) is a function of the
// live documents alone. Writers wait for the whole rebuild. No served
// path reshards a live index: restore reshards before the daemon
// serves, and only when WithShards fixed a count the snapshot does not
// have. Concurrent reshards serialize on the gate; resharding to the
// current count is a no-op. A reshard drops tombstones, like Compact.
//
// Cancelling ctx aborts the rebuild between source shards or during
// analysis: the staging ring is dropped, the live ring and the fixed
// shard count are left exactly as before, and ctx.Err() is returned.
func (ix *Index) ReshardContext(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("index: reshard to %d shards", n)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.wgate.Lock()
	defer ix.wgate.Unlock()
	old := ix.ring.Load()
	if len(old.shards) == n {
		ix.target = n
		return nil
	}
	staging := &ring{gen: old.gen + 1, shards: make([]*shard, n)}
	for i := range staging.shards {
		staging.shards[i] = newShard(ix)
	}
	for _, src := range old.shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		docs := src.liveDocs()
		analyzed, err := ix.analyzeBatch(ctx, docs)
		if err != nil {
			return err
		}
		ix.applyBatch(staging, docs, analyzed)
	}
	ix.target = n
	ix.ring.Store(staging)
	return nil
}

// liveDocs returns the shard's live documents in ordinal order.
func (s *shard) liveDocs() []Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	docs := make([]Document, 0, s.live)
	for ord := range s.numDocs() {
		if doc := s.docAt(ord); doc.ID != "" {
			docs = append(docs, doc)
		}
	}
	return docs
}
