package store

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/index"
)

// The reference store search: SearchContext and FacetsContext as they
// were before the top-k pushdown — fetch every match from the index,
// copy every record that passes the filters, sort, then slice — kept
// verbatim (receiver methods renamed, helpers prefixed ref) as the
// oracle both search plans are pinned to. One change: the hits'
// records come from one insertion-order walk of the dataset per
// request rather than one read by ID per hit, which on a mapped
// dataset would inflate a record block per hit.

func (d *Dataset) refSearchContext(ctx context.Context, req SearchRequest) ([]Hit, error) {
	fields := req.Fields
	if len(fields) == 0 {
		fields = d.schema.SearchableFields()
	} else {
		for _, f := range fields {
			fd, ok := d.schema.Field(f)
			if !ok {
				return nil, fmt.Errorf("store: unknown search field %q", f)
			}
			if !fd.Searchable {
				return nil, fmt.Errorf("store: field %q is not searchable", f)
			}
		}
	}
	for _, f := range req.Filters {
		if _, ok := d.schema.Field(f.Field); !ok {
			return nil, fmt.Errorf("store: unknown filter field %q", f.Field)
		}
	}

	var q index.Query
	if req.Query == "" {
		q = index.AllQuery{}
	} else {
		q = index.MatchQuery{Fields: fields, Text: req.Query}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	// Fetch everything matching; structured filters and ordering are
	// applied here where types are known.
	raw, err := d.ix.SearchContext(ctx, q, index.SearchOptions{})
	if err != nil {
		return nil, err
	}
	all := make(map[string]Record, d.lenLocked())
	for id, rec := range d.recordsLocked(0) {
		all[id] = rec
	}
	hits := make([]Hit, 0, len(raw))
	for _, r := range raw {
		rec := all[r.ID]
		ok, err := refMatchAll(d.schema, rec, req.Filters)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		cp := make(Record, len(rec)+1)
		for k, v := range rec {
			cp[k] = v
		}
		cp["_id"] = r.ID
		hits = append(hits, Hit{ID: r.ID, Score: r.Score, Record: cp})
	}
	if req.OrderBy != "" {
		if err := refSortHits(d.schema, hits, req.OrderBy); err != nil {
			return nil, err
		}
	}
	if req.Offset > 0 {
		if req.Offset >= len(hits) {
			return nil, nil
		}
		hits = hits[req.Offset:]
	}
	if req.Limit > 0 && len(hits) > req.Limit {
		hits = hits[:req.Limit]
	}
	return hits, nil
}

func (d *Dataset) refFacetsContext(ctx context.Context, req SearchRequest, field string) ([]index.FacetCount, error) {
	if _, ok := d.schema.Field(field); !ok {
		return nil, fmt.Errorf("store: unknown facet field %q", field)
	}
	hits, err := d.refSearchContext(ctx, SearchRequest{
		Query:   req.Query,
		Fields:  req.Fields,
		Filters: req.Filters,
	})
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	for _, h := range hits {
		if v := h.Record[field]; v != "" {
			counts[v]++
		}
	}
	out := make([]index.FacetCount, 0, len(counts))
	for v, n := range counts {
		out = append(out, index.FacetCount{Value: v, N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Value < out[j].Value
	})
	return out, nil
}

func refMatchAll(s Schema, rec Record, filters []Filter) (bool, error) {
	for _, f := range filters {
		ok, err := refMatchFilter(s, rec, f)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func refMatchFilter(s Schema, rec Record, f Filter) (bool, error) {
	fd, _ := s.Field(f.Field)
	have := rec[f.Field]
	switch f.Op {
	case "=", "":
		return have == f.Value, nil
	case "!=":
		return have != f.Value, nil
	case "contains":
		return containsFold(have, f.Value), nil
	case "<", "<=", ">", ">=":
		if fd.Type == TypeNumber {
			a, err1 := strconv.ParseFloat(have, 64)
			b, err2 := strconv.ParseFloat(f.Value, 64)
			if err1 != nil || err2 != nil {
				return false, nil
			}
			return cmpOrdered(a, b, f.Op), nil
		}
		return cmpOrdered(have, f.Value, f.Op), nil
	default:
		return false, fmt.Errorf("store: unknown filter op %q", f.Op)
	}
}

func refSortHits(s Schema, hits []Hit, orderBy string) error {
	desc := false
	field := orderBy
	if len(field) > 0 && field[0] == '-' {
		desc = true
		field = field[1:]
	}
	fd, ok := s.Field(field)
	if !ok {
		return fmt.Errorf("store: unknown order field %q", field)
	}
	numeric := fd.Type == TypeNumber
	sort.SliceStable(hits, func(i, j int) bool {
		a, b := hits[i].Record[field], hits[j].Record[field]
		var less bool
		if numeric {
			af, _ := strconv.ParseFloat(a, 64)
			bf, _ := strconv.ParseFloat(b, 64)
			less = af < bf
		} else {
			less = a < b
		}
		if desc {
			return !less && a != b
		}
		return less
	})
	return nil
}

// oracleWords is the catalog vocabulary; low indices are drawn most
// often, so queries hit both long and short posting lists.
var oracleWords = strings.Fields("halo zelda quest wars racing puzzle dragon space castle ninja " +
	"robot jungle arcade legend shadow crystal storm pirate galaxy empire " +
	"reviews reviewed reviewing playing played")

// oracleCatalog fills a fresh store's dataset from seed: typed,
// sparse and ID-shadowing fields, replacements and deletions, so the
// index carries tombstones and stored values of every shape.
func oracleCatalog(t testing.TB, seed int64, opts ...Option) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New(opts...)
	if err := s.CreateTenant("t", "o"); err != nil {
		t.Fatal(err)
	}
	ds, err := s.CreateDataset("t", "o", Schema{
		Name: "items", Key: "sku",
		Fields: []Field{
			{Name: "sku", Required: true},
			{Name: "title", Searchable: true},
			{Name: "description", Searchable: true},
			{Name: "producer"},
			{Name: "color"},
			{Name: "price", Type: TypeNumber},
			{Name: "rating", Type: TypeNumber},
			{Name: "_id"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	word := func() string {
		return oracleWords[int(math.Abs(rng.NormFloat64())*6)%len(oracleWords)]
	}
	phrase := func(n int) string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = word()
		}
		return strings.Join(ws, " ")
	}
	n := 150 + rng.Intn(150)
	for i := 0; i < n+n/5; i++ {
		// The last fifth rewrites earlier SKUs: replaced documents
		// leave tombstones behind in the index.
		sku := fmt.Sprintf("S%04d", i)
		if i >= n {
			sku = fmt.Sprintf("S%04d", rng.Intn(n))
		}
		rec := Record{
			"sku":         sku,
			"title":       phrase(1 + rng.Intn(3)),
			"description": phrase(5 + rng.Intn(20)),
			"producer":    fmt.Sprintf("producer%d", rng.Intn(5)),
			"price":       strconv.Itoa(5 + rng.Intn(20)),
			"rating":      fmt.Sprintf("%.1f", rng.Float64()*5),
		}
		if rng.Intn(3) > 0 {
			rec["color"] = []string{"red", "green", "blue"}[rng.Intn(3)]
		}
		if rng.Intn(4) == 0 {
			rec["_id"] = fmt.Sprintf("shadow%d", rng.Intn(3))
		}
		if _, err := ds.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/10; i++ {
		ds.Delete(fmt.Sprintf("S%04d", rng.Intn(n)))
	}
	return s
}

func oracleDataset(t testing.TB, s *Store) *Dataset {
	t.Helper()
	ds, err := s.DatasetContext(context.Background(), "t", "o", "items", PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// oracleVariants returns the catalog three ways: on the heap, restored
// mapped from its snapshot, and mapped again with a copy-on-write
// put, replacement and delete applied on top.
func oracleVariants(t testing.TB, seed int64) map[string]*Dataset {
	t.Helper()
	heap := oracleCatalog(t, seed, WithShardTarget(3))
	var snap bytes.Buffer
	if err := heap.SnapshotContext(context.Background(), &snap); err != nil {
		t.Fatal(err)
	}
	restore := func() *Dataset {
		return oracleDataset(t, restoreMapped(t, snap.Bytes(), WithCache(index.NewCache(1<<20))))
	}
	mapped, cow := restore(), restore()
	for _, rec := range []Record{
		{"sku": "S9999", "title": "halo zelda", "description": "fresh halo quest after boot", "producer": "producer1", "price": "9", "rating": "4.5"},
		{"sku": "S0001", "title": "rewritten", "description": "zelda zelda zelda", "producer": "producer2", "color": "red", "price": "30", "rating": "1.0"},
	} {
		if _, err := cow.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	cow.Delete("S0002")
	return map[string]*Dataset{"heap": oracleDataset(t, heap), "mapped": mapped, "mapped-cow": cow}
}

// oracleRequest draws one request from the query × fields × filter ×
// order × limit × offset matrix.
func oracleRequest(rng *rand.Rand) SearchRequest {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	req := SearchRequest{
		Query:  pick("", "", "halo", "zelda quest", "review", "playing dragon", "nomatchword", "galaxy empire storm"),
		Limit:  []int{0, 1, 3, 10, 50}[rng.Intn(5)],
		Offset: []int{0, 1, 7, 1000}[rng.Intn(4)],
	}
	if rng.Intn(5) == 0 {
		req.Fields = []string{"title"}
	}
	producer := fmt.Sprintf("producer%d", rng.Intn(5))
	filterSets := [][]Filter{
		nil, nil, // the plain plan is the one every catalog request takes
		{{Field: "producer", Op: "=", Value: producer}},
		{{Field: "producer", Value: producer}, {Field: "color", Op: "=", Value: pick("red", "")}},
		{{Field: "producer", Op: "=", Value: producer}, {Field: "producer", Op: "=", Value: pick(producer, "producer0")}},
		{{Field: "color", Op: "!=", Value: "blue"}},
		{{Field: "price", Op: "<", Value: pick("9", "15", "24.5")}},
		{{Field: "price", Op: ">=", Value: pick("12", "20", "x")}},
		{{Field: "title", Op: ">=", Value: pick("m", "s")}},
		{{Field: "sku", Op: "<", Value: "S0100"}, {Field: "producer", Op: "=", Value: producer}},
		{{Field: "description", Op: "contains", Value: pick("halo", "quest Zelda", "review")}},
		{{Field: "rating", Op: "<=", Value: "2.5"}, {Field: "price", Op: "=", Value: "10"}},
		{{Field: "price", Op: "~", Value: "10"}},
	}
	req.Filters = filterSets[rng.Intn(len(filterSets))]
	req.OrderBy = pick("", "", "", "price", "-price", "title", "-rating", "_id", "-sku", "nope")
	return req
}

// sameHits describes the first difference between two hit lists —
// nil-ness, length, IDs, score bits, records — or returns "".
func sameHits(got, want []Hit) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("nil result %v, want %v", got == nil, want == nil)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("hit %d: %s@%v, want %s@%v", i, g.ID, g.Score, w.ID, w.Score)
		}
		if !maps.Equal(g.Record, w.Record) {
			return fmt.Sprintf("hit %d (%s): record %v, want %v", i, g.ID, g.Record, w.Record)
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSearchMatchesReference pins SearchContext and FacetsContext to
// the reference bodies above, byte for byte, on heap, mapped and
// copy-on-write datasets over a randomized request matrix. The one
// intended difference: an unknown filter op is now an error whether
// or not any hit reaches the filter.
func TestSearchMatchesReference(t *testing.T) {
	ctx := context.Background()
	const corpora = 4
	variants := make([]map[string]*Dataset, corpora)
	for c := range variants {
		variants[c] = oracleVariants(t, int64(c+1))
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, name := range []string{"heap", "mapped", "mapped-cow"} {
			ds := variants[seed%corpora][name]
			for i := 0; i < 6; i++ {
				req := oracleRequest(rng)
				label := fmt.Sprintf("seed=%d %s %+v", seed, name, req)
				got, gotErr := ds.SearchContext(ctx, req)
				want, wantErr := ds.refSearchContext(ctx, req)
				if len(req.Filters) > 0 && req.Filters[0].Op == "~" {
					if e := `store: unknown filter op "~"`; errString(gotErr) != e || got != nil {
						t.Fatalf("%s: got %d hits, err %v; want error %s", label, len(got), gotErr, e)
					}
					continue
				}
				if errString(gotErr) != errString(wantErr) {
					t.Fatalf("%s: err %v, want %v", label, gotErr, wantErr)
				}
				if diff := sameHits(got, want); diff != "" {
					t.Fatalf("%s: %s", label, diff)
				}

				field := []string{"producer", "color", "price", "_id"}[rng.Intn(4)]
				gotF, gotErr := ds.FacetsContext(ctx, req, field)
				wantF, wantErr := ds.refFacetsContext(ctx, req, field)
				if errString(gotErr) != errString(wantErr) || !slices.Equal(gotF, wantF) {
					t.Fatalf("%s facets(%s): %v (err %v), want %v (err %v)", label, field, gotF, gotErr, wantF, wantErr)
				}
			}
		}
	}
}
