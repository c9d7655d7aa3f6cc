package index

import (
	"context"
	"fmt"
)

// ReshardContext rebuilds the index to n shards from the postings it
// already holds (see rebuild), then records n as the index's fixed
// shard count. Nothing is re-analyzed — the index keeps no field text.
//
// Readers are never blocked: queries answer from the old ring until
// the swap and from the new one after it, with bit-identical scores
// either way, because every scoring input (term frequencies, document
// lengths, live counts, document frequencies) is a function of the
// live documents alone. Writers wait for the whole rebuild. No served
// path reshards a live index: restore reshards before the daemon
// serves, and only when WithShards fixed a count the snapshot does not
// have. Concurrent reshards serialize on the gate; resharding to the
// current count is a no-op. A reshard drops tombstones, as
// CompactContext does.
//
// Cancelling ctx aborts the rebuild between source shards or between
// the fields of one: the staging ring is dropped, the live ring and
// the fixed shard count are left exactly as before, and ctx.Err() is
// returned.
func (ix *Index) ReshardContext(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("index: reshard to %d shards", n)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.wgate.Lock()
	defer ix.wgate.Unlock()
	if ix.NumShards() != n {
		if err := ix.rebuild(ctx, n); err != nil {
			return err
		}
	}
	ix.target = n
	return nil
}

// CompactContext drops the postings and ordinals of deleted and
// replaced documents: a rebuild at the current shard count. A shard
// without tombstones moves into the new ring as it is, so a mapped one
// stays mapped; each other shard is rebuilt from its live documents,
// and answers and snapshots like a fresh build of them. An index
// without tombstones keeps its ring. Queries answer correctly either
// way; compaction only reclaims memory and the per-query skipping of
// dead postings. Readers keep answering throughout and writers wait,
// as for ReshardContext, and a cancelled ctx leaves the ring as it
// was.
func (ix *Index) CompactContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.wgate.Lock()
	defer ix.wgate.Unlock()
	return ix.rebuild(ctx, ix.NumShards())
}

// rebuild builds a staging ring of n shards and swaps it in. It takes
// each source shard in turn under that shard's read lock, inverts its
// posting lists back into each live document's analyzed form
// (regroup) and applies those to the staging ring through the batch
// write path, so only one source shard's regrouped documents are held
// at a time. At the current count a document routes to the same shard
// index, so a source shard without tombstones is moved over unchanged,
// and when no shard has any the ring is kept. ctx is checked between
// source shards and inside regroup; on cancellation the staging ring
// is dropped. The caller holds the write gate exclusively.
func (ix *Index) rebuild(ctx context.Context, n int) error {
	old := ix.ring.Load()
	staging := &ring{gen: old.gen + 1, shards: make([]*shard, n)}
	var sources []*shard
	for i, src := range old.shards {
		if n == len(old.shards) && src.tombstones() == 0 {
			staging.shards[i] = src
		} else {
			sources = append(sources, src)
		}
	}
	if len(sources) == 0 {
		return nil
	}
	for i, s := range staging.shards {
		if s == nil {
			staging.shards[i] = newShard(ix)
		}
	}
	for _, src := range sources {
		if err := ctx.Err(); err != nil {
			return err
		}
		docs, analyzed, err := src.regroup(ctx)
		if err != nil {
			return err
		}
		ix.applyBatch(staging, docs, analyzed)
	}
	ix.ring.Store(staging)
	return nil
}

// regroup returns the shard's live documents in ordinal order, each
// with its ID and Stored map, and the analyzed form an Add of the
// original text would have produced: per field the document carried,
// each term's positions come from the term's posting list and the
// field's length is the number of positions; a field it carried with
// no tokens gets an empty entry. A term table is the field's sorted
// dictionary, shared by every document. Per field, a first pass over
// the (doc, tf) streams sizes one slab, and a second fills it with
// positions. ctx is checked before each field.
func (s *shard) regroup(ctx context.Context) ([]Document, []docTerms, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	nDocs := s.numDocs()
	// slot maps an ordinal to its document's index, -1 when dead.
	slot := make([]int32, nDocs)
	docs := make([]Document, 0, s.live)
	analyzed := make([]docTerms, 0, s.live)
	var entries slab[fieldTerms]
	var prev []string
	for ord := range nDocs {
		var row docRow
		switch {
		case ord >= s.base:
			row = s.docs[ord-s.base]
		case s.ms.liveAt(ord):
			row, _ = s.ms.rowAt(s.ix, ord, prev)
		}
		if row.ID == "" {
			slot[ord] = -1
			continue
		}
		prev = row.Fields
		slot[ord] = int32(len(docs))
		docs = append(docs, Document{ID: row.ID, Stored: row.Stored})
		dt := docTerms(entries.alloc(len(row.Fields)))
		for i, name := range row.Fields {
			dt[i].field = name
		}
		analyzed = append(analyzed, dt)
	}
	// Per document, for the field at hand: its entry, and its distinct
	// terms and positions (counted, then filled).
	cur := make([]*fieldTerms, len(docs))
	nTerms := make([]int32, len(docs))
	nPos := make([]int32, len(docs))
	var lists []*postingList
	var pos []int
	for name, fp := range s.fields {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		dict := fp.sortedTermsAll()
		lists = lists[:0]
		clear(nTerms)
		clear(nPos)
		for _, term := range dict {
			l := fp.lookup(term)
			lists = append(lists, l)
			if l == nil {
				continue
			}
			for it := l.iter(); it.next(); {
				if k := slot[it.doc]; k >= 0 {
					nTerms[k]++
					nPos[k] += int32(it.tf)
				}
			}
		}
		total := 0
		for k := range docs {
			total += int(2*nTerms[k] + nPos[k])
		}
		buf := make([]int32, total)
		for k := range docs {
			cur[k] = nil
			if nTerms[k] == 0 {
				continue
			}
			ft := analyzed[k].entry(name)
			if ft == nil {
				// Postings under a field the row does not name: only a
				// corrupt payload has them.
				continue
			}
			n, p := int(nTerms[k]), int(nPos[k])
			ft.terms = dict
			ft.ids, ft.ends, ft.pos = buf[:0:n], buf[n:n:2*n], buf[2*n:2*n:2*n+p]
			buf = buf[2*n+p:]
			cur[k] = ft
		}
		for ti, l := range lists {
			if l == nil {
				continue
			}
			it, pi := l.iter(), l.positions()
			for it.next() {
				var ft *fieldTerms
				if k := slot[it.doc]; k >= 0 {
					ft = cur[k]
				}
				if ft == nil {
					pi.skip(it.tf)
					continue
				}
				pos = pi.read(it.tf, pos)
				ft.ids = append(ft.ids, int32(ti))
				for _, p := range pos {
					ft.pos = append(ft.pos, int32(p))
				}
				ft.ends = append(ft.ends, int32(len(ft.pos)))
			}
		}
	}
	return docs, analyzed, nil
}
