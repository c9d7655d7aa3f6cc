package engine

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/index"
	"repro/internal/jsonw"
	"repro/internal/webcorpus"
)

// TestEncodeJSONParity pins EncodeJSON to encoding/json byte for byte,
// on hand-built edge cases and on a live response from a real engine.
func TestEncodeJSONParity(t *testing.T) {
	cases := []Response{
		{}, // all zero: nil slices must encode as null
		{
			Results: []Result{}, // empty non-nil encodes as []
			Total:   7,
		},
		{
			Results: []Result{
				{
					URL:      "https://ex.com/a?x=1&y=2",
					Site:     "ex.com",
					Title:    "tricky <title> & \"quotes\"",
					Snippet:  "snippet with\nnewline and \ttab",
					Score:    1.0 / 3.0,
					Vertical: webcorpus.VerticalNews,
					Entity:   "",
				},
				{URL: "b", Score: 1e-9}, // exercises 'e' float format
			},
			Total:      42,
			SiteFacets: []index.FacetCount{{Value: "ex.com", N: 3}, {Value: "", N: 0}},
			Stats:      Stats{Candidates: 9},
		},
	}
	for i, resp := range cases {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		w := jsonw.Get()
		resp.EncodeJSON(w)
		if got := string(w.Bytes()); got != string(want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
		jsonw.Put(w)
	}
}

func TestEncodeJSONParityLive(t *testing.T) {
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 11})
	e := New(func() *webcorpus.Corpus { return corpus })
	resp, err := e.Query(context.Background(), Request{Query: "the", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	w := jsonw.Get()
	defer jsonw.Put(w)
	resp.EncodeJSON(w)
	if got := string(w.Bytes()); got != string(want) {
		t.Errorf("live response:\n got %s\nwant %s", got, want)
	}
}
