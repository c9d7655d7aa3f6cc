package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/index"
)

func gameSchema() Schema {
	return Schema{
		Name: "inventory",
		Key:  "sku",
		Fields: []Field{
			{Name: "sku", Type: TypeString, Required: true},
			{Name: "title", Type: TypeString, Searchable: true, Required: true},
			{Name: "producer", Type: TypeString, Searchable: true},
			{Name: "description", Type: TypeString, Searchable: true},
			{Name: "price", Type: TypeNumber},
			{Name: "instock", Type: TypeBool},
			{Name: "image", Type: TypeURL},
		},
	}
}

func newInventory(t testing.TB) (*Store, *Dataset) {
	t.Helper()
	s := New()
	if err := s.CreateTenant("gamerqueen", "ann"); err != nil {
		t.Fatal(err)
	}
	ds, err := s.CreateDataset("gamerqueen", "ann", gameSchema())
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{"sku": "G1", "title": "The Legend of Zelda", "producer": "Nintendo", "description": "adventure game with puzzles", "price": "49.99", "instock": "true", "image": "http://img.example/zelda.png"},
		{"sku": "G2", "title": "Halo Wars", "producer": "Ensemble", "description": "strategy game in space", "price": "39.99", "instock": "true"},
		{"sku": "G3", "title": "Gears of War", "producer": "Epic", "description": "shooter game with cover", "price": "19.99", "instock": "false"},
		{"sku": "G4", "title": "Zelda Spirit Tracks", "producer": "Nintendo", "description": "handheld adventure game", "price": "29.99", "instock": "true"},
	}
	for _, r := range recs {
		if _, err := ds.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	return s, ds
}

func TestSchemaValidate(t *testing.T) {
	if err := gameSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{},
		{Name: "x"},
		{Name: "x", Fields: []Field{{Name: ""}}},
		{Name: "x", Fields: []Field{{Name: "a"}, {Name: "a"}}},
		{Name: "x", Key: "nope", Fields: []Field{{Name: "a"}}},
		{Name: "x", Fields: []Field{{Name: "a", Type: "blob"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestPutGetDelete(t *testing.T) {
	_, ds := newInventory(t)
	if ds.Len() != 4 {
		t.Fatalf("Len = %d", ds.Len())
	}
	rec, ok := ds.Get("G1")
	if !ok || rec["title"] != "The Legend of Zelda" {
		t.Fatalf("Get G1 = %v %v", rec, ok)
	}
	if !ds.Delete("G1") || ds.Delete("G1") {
		t.Fatal("delete semantics wrong")
	}
	if ds.Len() != 3 {
		t.Fatalf("Len after delete = %d", ds.Len())
	}
}

func TestPutValidation(t *testing.T) {
	_, ds := newInventory(t)
	cases := []Record{
		{"sku": "B1"}, // missing required title
		{"sku": "B2", "title": "X", "price": "abc"},       // bad number
		{"sku": "B3", "title": "X", "instock": "maybe"},   // bad bool
		{"sku": "B4", "title": "X", "image": "not-a-url"}, // bad url
		{"sku": "B5", "title": "X", "mystery": "y"},       // unknown field
		{"title": "no key"},                               // missing key
	}
	for i, rec := range cases {
		if _, err := ds.Put(rec); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if ds.Len() != 4 {
		t.Fatalf("failed puts mutated the dataset: %d", ds.Len())
	}
}

func TestPutReplacesByKey(t *testing.T) {
	_, ds := newInventory(t)
	if _, err := ds.Put(Record{"sku": "G1", "title": "Zelda Remastered"}); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 4 {
		t.Fatalf("Len = %d after replace", ds.Len())
	}
	rec, _ := ds.Get("G1")
	if rec["title"] != "Zelda Remastered" {
		t.Errorf("replace failed: %v", rec)
	}
	hits, _ := ds.SearchContext(context.Background(), SearchRequest{Query: "legend"})
	if len(hits) != 0 {
		t.Error("old indexed content survived replace")
	}
}

func TestAutoIDWhenNoKey(t *testing.T) {
	s := New()
	s.CreateTenant("t", "o")
	ds, err := s.CreateDataset("t", "o", Schema{Name: "notes", Fields: []Field{{Name: "text", Type: TypeString, Searchable: true}}})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := ds.Put(Record{"text": "first"})
	id2, _ := ds.Put(Record{"text": "second"})
	if id1 == id2 || id1 == "" {
		t.Fatalf("auto IDs wrong: %q %q", id1, id2)
	}
}

func TestSearchFullText(t *testing.T) {
	_, ds := newInventory(t)
	hits, err := ds.SearchContext(context.Background(), SearchRequest{Query: "zelda"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("zelda hits = %d", len(hits))
	}
	for _, h := range hits {
		if h.Record["_id"] != h.ID {
			t.Error("_id not set on hit record")
		}
	}
}

func TestSearchFieldRestriction(t *testing.T) {
	_, ds := newInventory(t)
	hits, err := ds.SearchContext(context.Background(), SearchRequest{Query: "adventure", Fields: []string{"title"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("title-only adventure hits = %d", len(hits))
	}
	if _, err := ds.SearchContext(context.Background(), SearchRequest{Query: "x", Fields: []string{"price"}}); err == nil {
		t.Error("non-searchable field accepted")
	}
	if _, err := ds.SearchContext(context.Background(), SearchRequest{Query: "x", Fields: []string{"nope"}}); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestSearchEmptyQueryBrowses(t *testing.T) {
	_, ds := newInventory(t)
	hits, err := ds.SearchContext(context.Background(), SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("browse returned %d", len(hits))
	}
}

func TestNumericFilters(t *testing.T) {
	_, ds := newInventory(t)
	hits, err := ds.SearchContext(context.Background(), SearchRequest{Filters: []Filter{{Field: "price", Op: "<", Value: "35"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("price<35 hits = %d", len(hits))
	}
	hits, _ = ds.SearchContext(context.Background(), SearchRequest{Filters: []Filter{
		{Field: "price", Op: ">=", Value: "29.99"},
		{Field: "instock", Op: "=", Value: "true"},
	}})
	if len(hits) != 3 {
		t.Fatalf("combined filters = %d", len(hits))
	}
}

func TestContainsFilter(t *testing.T) {
	_, ds := newInventory(t)
	hits, err := ds.SearchContext(context.Background(), SearchRequest{Filters: []Filter{{Field: "description", Op: "contains", Value: "GAME adventure"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("contains hits = %d", len(hits))
	}
}

func TestFilterErrors(t *testing.T) {
	_, ds := newInventory(t)
	if _, err := ds.SearchContext(context.Background(), SearchRequest{Filters: []Filter{{Field: "nope", Op: "="}}}); err == nil {
		t.Error("unknown filter field accepted")
	}
	if _, err := ds.SearchContext(context.Background(), SearchRequest{Filters: []Filter{{Field: "price", Op: "~"}}}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestOrderBy(t *testing.T) {
	_, ds := newInventory(t)
	hits, err := ds.SearchContext(context.Background(), SearchRequest{OrderBy: "price"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Record["price"] < hits[i-1].Record["price"] {
			t.Fatal("ascending order violated")
		}
	}
	hits, _ = ds.SearchContext(context.Background(), SearchRequest{OrderBy: "-price"})
	if hits[0].Record["sku"] != "G1" {
		t.Errorf("descending price first = %v", hits[0].Record["sku"])
	}
	if _, err := ds.SearchContext(context.Background(), SearchRequest{OrderBy: "nope"}); err == nil {
		t.Error("unknown order field accepted")
	}
}

func TestSearchPagination(t *testing.T) {
	_, ds := newInventory(t)
	all, _ := ds.SearchContext(context.Background(), SearchRequest{OrderBy: "price"})
	p, _ := ds.SearchContext(context.Background(), SearchRequest{OrderBy: "price", Limit: 2, Offset: 2})
	if len(p) != 2 || p[0].ID != all[2].ID {
		t.Fatal("pagination misaligned")
	}
	if p, _ := ds.SearchContext(context.Background(), SearchRequest{Offset: 99}); p != nil {
		t.Error("offset past end not empty")
	}
}

func TestListInsertionOrder(t *testing.T) {
	_, ds := newInventory(t)
	recs := ds.List(0, 0)
	if len(recs) != 4 || recs[0]["sku"] != "G1" || recs[3]["sku"] != "G4" {
		t.Fatalf("List order wrong: %v", recs)
	}
	page := ds.List(2, 1)
	if len(page) != 1 || page[0]["sku"] != "G3" {
		t.Fatalf("List page wrong: %v", page)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	_, ds := newInventory(t)
	rec, _ := ds.Get("G1")
	rec["title"] = "mutated"
	rec2, _ := ds.Get("G1")
	if rec2["title"] == "mutated" {
		t.Error("Get exposed internal record")
	}
}

func TestTenantIsolation(t *testing.T) {
	s, _ := newInventory(t)
	// Bob cannot see Ann's data.
	if _, err := s.DatasetContext(context.Background(), "gamerqueen", "bob", "inventory", PermRead); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("bob read = %v", err)
	}
	if _, err := s.Datasets("gamerqueen", "bob"); !errors.Is(err, ErrAccessDenied) {
		t.Fatal("bob listed datasets")
	}
	// Grant read: bob can read but not write.
	if err := s.Grant("gamerqueen", "ann", "bob", PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DatasetContext(context.Background(), "gamerqueen", "bob", "inventory", PermRead); err != nil {
		t.Fatalf("bob read after grant = %v", err)
	}
	if _, err := s.DatasetContext(context.Background(), "gamerqueen", "bob", "inventory", PermWrite); !errors.Is(err, ErrAccessDenied) {
		t.Fatal("bob got write with read grant")
	}
	// Revoke.
	if err := s.Revoke("gamerqueen", "ann", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DatasetContext(context.Background(), "gamerqueen", "bob", "inventory", PermRead); !errors.Is(err, ErrAccessDenied) {
		t.Fatal("bob read after revoke")
	}
}

func TestOnlyOwnerGrants(t *testing.T) {
	s, _ := newInventory(t)
	if err := s.Grant("gamerqueen", "mallory", "mallory", PermWrite); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("mallory granted herself access: %v", err)
	}
	if err := s.Revoke("gamerqueen", "mallory", "ann"); !errors.Is(err, ErrAccessDenied) {
		t.Fatal("mallory revoked")
	}
}

func TestStoreErrors(t *testing.T) {
	s := New()
	if err := s.CreateTenant("t", "o"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant("t", "o"); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if _, err := s.DatasetContext(context.Background(), "missing", "o", "x", PermRead); !errors.Is(err, ErrNoSuchTenant) {
		t.Error("missing tenant not reported")
	}
	if _, err := s.DatasetContext(context.Background(), "t", "o", "x", PermRead); !errors.Is(err, ErrNoSuchDataset) {
		t.Error("missing dataset not reported")
	}
	sch := Schema{Name: "d", Fields: []Field{{Name: "a"}}}
	if _, err := s.CreateDataset("t", "o", sch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDataset("t", "o", sch); !errors.Is(err, ErrDatasetExists) {
		t.Error("duplicate dataset accepted")
	}
	if err := s.DropDataset("t", "o", "d"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropDataset("t", "o", "d"); !errors.Is(err, ErrNoSuchDataset) {
		t.Error("double drop accepted")
	}
}

func TestInferSchema(t *testing.T) {
	samples := []Record{
		{"title": "Halo", "price": "49.99", "instock": "true", "url": "http://x.example/a"},
		{"title": "Zelda", "price": "29.99", "instock": "false", "url": "http://x.example/b"},
	}
	sch := InferSchema("inv", samples)
	types := map[string]FieldType{}
	searchable := map[string]bool{}
	for _, f := range sch.Fields {
		types[f.Name] = f.Type
		searchable[f.Name] = f.Searchable
	}
	if types["title"] != TypeString || !searchable["title"] {
		t.Errorf("title inferred as %v searchable=%v", types["title"], searchable["title"])
	}
	if types["price"] != TypeNumber {
		t.Errorf("price inferred as %v", types["price"])
	}
	if types["instock"] != TypeBool {
		t.Errorf("instock inferred as %v", types["instock"])
	}
	if types["url"] != TypeURL {
		t.Errorf("url inferred as %v", types["url"])
	}
}

// TestClassifyMatchesStrconv: the guards classify uses to skip doomed
// parses never change a verdict the plain strconv calls would give.
func TestClassifyMatchesStrconv(t *testing.T) {
	unguarded := func(v string) FieldType {
		if v == "" {
			return TypeString
		}
		if _, err := strconv.ParseFloat(v, 64); err == nil {
			return TypeNumber
		}
		if _, err := strconv.ParseBool(v); err == nil {
			return TypeBool
		}
		if strings.HasPrefix(v, "http://") || strings.HasPrefix(v, "https://") || strings.HasPrefix(v, "ftp://") {
			return TypeURL
		}
		return TypeString
	}
	for _, v := range []string{
		"", "0", "12", "-3.5", "+.5", ".5", "5.", "1e9", "-1E-9", "0x1p-2", "0x_1p0", "1_000",
		"inf", "+Inf", "-infinity", "NaN", "nan", "nope", "Nine", "info", "+", "-", ".", "+-1",
		"1", "t", "T", "TRUE", "true", "True", "f", "F", "FALSE", "false", "False", "yes", "falsey",
		"http://x.example", "https://y", "ftp://z", "S000001", "producer3", "halo wars", "€5",
	} {
		if got, want := classify(v), unguarded(v); got != want {
			t.Errorf("classify(%q) = %s, strconv says %s", v, got, want)
		}
	}
}

func TestInferSchemaWidensConflicts(t *testing.T) {
	samples := []Record{{"v": "12"}, {"v": "twelve"}}
	sch := InferSchema("x", samples)
	f, _ := sch.Field("v")
	if f.Type != TypeString {
		t.Errorf("conflicting column inferred as %v", f.Type)
	}
}

// Property: every record put with a unique searchable token is
// findable, and structured price filters agree with a linear scan.
func TestPropertyPutSearchAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		s.CreateTenant("t", "o")
		ds, _ := s.CreateDataset("t", "o", Schema{
			Name: "d", Key: "id",
			Fields: []Field{
				{Name: "id"},
				{Name: "name", Type: TypeString, Searchable: true},
				{Name: "price", Type: TypeNumber},
			},
		})
		n := rng.Intn(40) + 1
		prices := make([]float64, n)
		for i := 0; i < n; i++ {
			prices[i] = float64(rng.Intn(100))
			ds.Put(Record{
				"id":    fmt.Sprintf("r%d", i),
				"name":  fmt.Sprintf("token%d item", i),
				"price": fmt.Sprintf("%.0f", prices[i]),
			})
		}
		cut := float64(rng.Intn(100))
		hits, err := ds.SearchContext(context.Background(), SearchRequest{Filters: []Filter{{Field: "price", Op: "<", Value: fmt.Sprintf("%.0f", cut)}}})
		if err != nil {
			return false
		}
		want := 0
		for _, p := range prices {
			if p < cut {
				want++
			}
		}
		if len(hits) != want {
			return false
		}
		i := rng.Intn(n)
		found, err := ds.SearchContext(context.Background(), SearchRequest{Query: fmt.Sprintf("token%d", i)})
		return err == nil && len(found) == 1 && found[0].ID == fmt.Sprintf("r%d", i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSearchOffsetPastRecords: an offset at or past the live record
// count answers an empty page under both plans — the index's top-k
// and the full match set that filters and OrderBy need — and no index
// shard evaluates it; one record less still pages.
func TestSearchOffsetPastRecords(t *testing.T) {
	_, ds := newInventory(t)
	for _, req := range []SearchRequest{
		{Query: "game", Limit: 10},
		{Query: "game", OrderBy: "-price"},
		{Query: "game", Filters: []Filter{{Field: "instock", Op: "=", Value: "true"}}, Limit: 2},
	} {
		for _, offset := range []int{math.MaxInt, ds.Len()} {
			req.Offset = offset
			tasks := index.GetExecutorStats().Tasks
			hits, err := ds.SearchContext(context.Background(), req)
			if err != nil || hits != nil {
				t.Fatalf("%+v: %v, %v; want an empty page", req, hits, err)
			}
			if index.GetExecutorStats().Tasks != tasks {
				t.Fatalf("%+v: the index evaluated a page past the last record", req)
			}
		}
		req.Offset = 1
		if hits, err := ds.SearchContext(context.Background(), req); err != nil || len(hits) == 0 {
			t.Fatalf("%+v: %v, %v; want a page", req, hits, err)
		}
	}
}
