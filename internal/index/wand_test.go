package index

import (
	"fmt"
	"math"
	"testing"
)

// TestBlockMaxRouting pins which query shapes reach the single-cursor
// block-max loop: only those that resolve in a shard to one (field,
// term) posting list. Over the 12k benchmark corpus the loop always
// skips postings for a common term, so ScanStats().Skipped grows for
// exactly those shapes; every other shape runs on the accumulator,
// which skips nothing. Every shape must still rank bit-identically to
// the reference evaluator.
func TestBlockMaxRouting(t *testing.T) {
	ix := New(WithShards(3))
	ix.SetFieldOptions("title", FieldOptions{Boost: 2})
	if err := ix.AddBatch(queryBenchCorpus(queryBenchDocs)); err != nil {
		t.Fatal(err)
	}
	body := []string{"body"}
	for _, tc := range []struct {
		name  string
		q     Query
		skips bool
	}{
		{"term", TermQuery{Field: "body", Term: "w0001"}, true},
		{"match-one-word", MatchQuery{Fields: body, Text: "w0001"}, true},
		{"match-two-fields", MatchQuery{Fields: []string{"title", "body"}, Text: "w0001"}, false},
		{"match-two-terms", MatchQuery{Fields: body, Text: "w0001 w0007"}, false},
		{"match-and", MatchQuery{Fields: body, Text: "w0001 w0007", Operator: "and"}, false},
		{"bool", BoolQuery{Must: []Query{TermQuery{Field: "body", Term: "w0001"}}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := SearchOptions{Limit: 10}
			before := ix.ScanStats().Skipped
			got := ix.mustSearch(tc.q, opts)
			if skipped := ix.ScanStats().Skipped - before; (skipped > 0) != tc.skips {
				t.Fatalf("skipped %d postings; want skips=%v", skipped, tc.skips)
			}
			if len(got) == 0 {
				t.Fatal("no hits")
			}
			mustEqualResults(t, fmt.Sprintf("%s top10", tc.name), got, refSearch(ix, tc.q, opts))
		})
	}
}

// TestSearchOffsetAtMaxInt: an offset at or past the live document
// count answers an empty page before any shard evaluates (the
// executor runs no shard task and the block-max loop scores nothing).
// Below it, Offset + Limit saturates at math.MaxInt instead of
// wrapping to a non-positive count, which would mean "no limit": the
// page comes through the top-k path, which on a single-list query is
// the block-max loop, counting the postings it scores.
func TestSearchOffsetAtMaxInt(t *testing.T) {
	ix := New(WithShards(2))
	fillSequential(t, ix, 300)
	q := TermQuery{Field: "body", Term: "common"}
	for _, offset := range []int{math.MaxInt, math.MaxInt - 5, 300} {
		tasks, scored := GetExecutorStats().Tasks, ix.ScanStats().Scored
		if got := ix.mustSearch(q, SearchOptions{Limit: 10, Offset: offset}); len(got) != 0 {
			t.Fatalf("offset %d: %d hits, want none", offset, len(got))
		}
		if GetExecutorStats().Tasks != tasks || ix.ScanStats().Scored != scored {
			t.Fatalf("offset %d: shards evaluated a page past the last document", offset)
		}
	}
	scored := ix.ScanStats().Scored
	got := ix.mustSearch(q, SearchOptions{Limit: math.MaxInt - 5, Offset: 295})
	if len(got) != 5 {
		t.Fatalf("offset 295: %d hits, want 5", len(got))
	}
	if ix.ScanStats().Scored == scored {
		t.Fatal("offset 295: the block-max loop scored nothing; want the top-k path")
	}
}
