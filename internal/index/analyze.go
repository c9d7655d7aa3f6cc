package index

import (
	"unsafe"

	"repro/internal/textproc"
)

// fieldTerms is one field of a document in the form the shards index
// it. Its distinct terms, in first-occurrence order, are terms[ids[i]],
// and term i's positions are pos[ends[i-1]:ends[i]] (ends[-1] reads as
// 0); len(pos) is the field's length in tokens. terms may be a table
// many fields share (a batch's memo), and ids, ends and pos are carved
// from one pointer-free slab, so an analyzed batch is cheap to hold
// and to scan. Positions fit in int32: a token takes at least two
// bytes of text, separator included, and no text reaches 4 GiB.
type fieldTerms struct {
	field          string
	terms          []string
	ids, ends, pos []int32
}

// docTerms is one analyzed document: an entry per field it carries,
// an empty one for a field with no tokens. It is all a shard reads of
// a document's fields: the text itself is dropped once analyzed.
type docTerms []fieldTerms

// entry returns field's entry, nil when the document has none.
func (d docTerms) entry(field string) *fieldTerms {
	for i := range d {
		if d[i].field == field {
			return &d[i]
		}
	}
	return nil
}

// batchAnalyzer is the analysis state of one AddBatchContext worker
// for one batch. Its memo runs each distinct token's stopword check
// and stem once per batch and numbers the terms; every occurrence
// shares the memo's term string, and the ids let tokens be grouped by
// term with slices instead of a map. Grouping happens here, outside
// the shard lock, into slabs that live as long as the batch, so a
// document costs a handful of allocations however many fields and
// tokens it has.
type batchAnalyzer struct {
	memo textproc.Memo

	// Per-field scratch, reused across fields: the analyzed tokens and
	// their term ids, the field's distinct ids in first-occurrence
	// order, each group's token count (then its next free slot in pos)
	// and each token's group.
	toks     []textproc.Token
	ids      []int
	distinct []int32
	next     []int32
	tokGroup []int32
	// slots[id].group is the group of term id in the field being
	// grouped, valid while slots[id].stamp equals field, which counts
	// fields.
	slots []termSlot
	field uint32

	fields slab[fieldTerms]
	ints   slab[int32]
}

// termSlot is a term's group in the field being grouped, and the
// field it was set for.
type termSlot struct {
	group int32
	stamp uint32
}

// analyzeDoc runs each field of doc through its analyzer, memoized,
// and groups the tokens by term.
func (w *batchAnalyzer) analyzeDoc(ix *Index, doc *Document) docTerms {
	out := docTerms(w.fields.alloc(len(doc.Fields)))
	if w.field == 0 {
		// The batch's first document sizes the memo's tables for all
		// its fields: they come in map order, the shortest maybe first.
		n := 0
		for _, text := range doc.Fields {
			n += len(text)
		}
		w.memo.Reserve(n)
	}
	i := 0
	for field, text := range doc.Fields {
		opts, _ := ix.fieldOpts(field)
		w.toks, w.ids = w.memo.AnalyzeAppend(w.toks[:0], w.ids[:0], opts.Analyzer, text)
		w.field++
		if w.field == 0 {
			// The count wrapped: clear every stamp so none is current.
			clear(w.slots)
			w.field = 1
		}
		// Every id the field holds is below the memo's term count: one
		// growth per field covers them all.
		if n := len(w.memo.Terms()); n > len(w.slots) {
			w.slots = append(w.slots, make([]termSlot, n-len(w.slots))...)
		}
		w.resetGroups(len(w.ids))
		for _, id := range w.ids {
			sl := &w.slots[id]
			if sl.stamp != w.field {
				sl.stamp = w.field
				sl.group = w.newGroup(int32(id))
			}
			w.addToGroup(sl.group)
		}
		out[i] = w.place(field, w.memo.Terms())
		i++
	}
	return out
}

// resetGroups empties the per-field scratch, making room for a field
// of n tokens in one allocation when it has too little.
func (w *batchAnalyzer) resetGroups(n int) {
	if cap(w.tokGroup) < n {
		buf := make([]int32, 3*n)
		w.distinct, w.next, w.tokGroup = buf[:0:n], buf[n:n:2*n], buf[2*n:2*n]
		return
	}
	w.distinct, w.next, w.tokGroup = w.distinct[:0], w.next[:0], w.tokGroup[:0]
}

// newGroup opens a group for the term with id, returning the group.
func (w *batchAnalyzer) newGroup(id int32) int32 {
	w.distinct = append(w.distinct, id)
	w.next = append(w.next, 0)
	return int32(len(w.distinct) - 1)
}

// addToGroup assigns the field's next token to group g.
func (w *batchAnalyzer) addToGroup(g int32) {
	w.next[g]++
	w.tokGroup = append(w.tokGroup, g)
}

// place copies the field's groups out of the scratch into one exactly
// sized slab slice.
func (w *batchAnalyzer) place(field string, terms []string) fieldTerms {
	ft := fieldTerms{field: field}
	if len(w.toks) == 0 {
		return ft
	}
	n := len(w.distinct)
	data := w.ints.alloc(2*n + len(w.toks))
	ft.terms = terms
	ft.ids, ft.ends, ft.pos = data[:n:n], data[n:2*n:2*n], data[2*n:]
	copy(ft.ids, w.distinct)
	// A counting sort by group: next[g] becomes the first slot of g's
	// positions, and each token's position lands in its group's next
	// slot, in token order.
	sum := int32(0)
	for g, c := range w.next {
		w.next[g] = sum
		sum += c
		ft.ends[g] = sum
	}
	for i, t := range w.toks {
		g := w.tokGroup[i]
		ft.pos[w.next[g]] = int32(t.Position)
		w.next[g]++
	}
	return ft
}

// slab hands out exactly sized slices carved from shared chunks. A
// chunk starts at about slabMinBytes and doubles up to about
// slabMaxBytes, so a one-document write stays small and a large batch
// makes few allocations. A returned slice is capped: appending to it
// never writes into a neighbour.
type slab[T any] struct{ buf []T }

const (
	slabMinBytes = 256
	slabMaxBytes = 64 << 10
)

func (s *slab[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < n {
		var zero T
		size := int(unsafe.Sizeof(zero))
		c := min(max(2*cap(s.buf), slabMinBytes/size), slabMaxBytes/size)
		s.buf = make([]T, 0, max(c, n))
	}
	from := len(s.buf)
	s.buf = s.buf[:from+n]
	return s.buf[from : from+n : from+n]
}
