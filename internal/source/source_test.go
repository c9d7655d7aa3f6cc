package source

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/ads"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/webcorpus"
	"repro/internal/webservice"
)

func inventoryDataset(t testing.TB) *store.Dataset {
	t.Helper()
	s := store.New()
	if err := s.CreateTenant("t", "ann"); err != nil {
		t.Fatal(err)
	}
	ds, err := s.CreateDataset("t", "ann", store.Schema{
		Name: "inv", Key: "sku",
		Fields: []store.Field{
			{Name: "sku", Required: true},
			{Name: "title", Searchable: true},
			{Name: "price", Type: store.TypeNumber},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds.Put(store.Record{"sku": "G1", "title": "Legend of Zelda", "price": "49.99"})
	ds.Put(store.Record{"sku": "G2", "title": "Halo Wars", "price": "39.99"})
	return ds
}

func TestStoreSource(t *testing.T) {
	src := &StoreSource{SourceName: "inv", Dataset: inventoryDataset(t), SearchFields: []string{"title"}}
	if src.Kind() != "proprietary" || src.Name() != "inv" {
		t.Error("identity wrong")
	}
	items, err := src.Search(context.Background(), Request{Query: "zelda", Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0]["title"] != "Legend of Zelda" {
		t.Fatalf("items = %v", items)
	}
	if items[0]["_score"] == "" || items[0]["_id"] != "G1" {
		t.Errorf("metadata fields missing: %v", items[0])
	}
}

func TestStoreSourceError(t *testing.T) {
	src := &StoreSource{SourceName: "inv", Dataset: inventoryDataset(t), SearchFields: []string{"nope"}}
	if _, err := src.Search(context.Background(), Request{Query: "x"}); err == nil {
		t.Fatal("bad field accepted")
	}
}

func TestEngineSourceDirectQuery(t *testing.T) {
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 3})
	e := engine.New(func() *webcorpus.Corpus { return corpus })
	src := &EngineSource{SourceName: "web", Engine: e}
	if src.Kind() != "websearch" {
		t.Errorf("kind = %s", src.Kind())
	}
	items, err := src.Search(context.Background(), Request{Query: "review", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 || items[0]["url"] == "" || items[0]["site"] == "" {
		t.Fatalf("items = %v", items)
	}
}

func TestEngineSourceTemplateQuery(t *testing.T) {
	corpus := webcorpus.Generate(webcorpus.Config{Seed: 3})
	e := engine.New(func() *webcorpus.Corpus { return corpus })
	entity := corpus.Pages[0].Entity
	src := &EngineSource{
		SourceName:    "reviews",
		Engine:        e,
		Vertical:      webcorpus.VerticalWeb,
		QueryTemplate: "{title} review",
	}
	items, err := src.Search(context.Background(), Request{Args: map[string]string{"title": entity}, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("templated supplemental query returned nothing")
	}
	// Empty args -> empty query -> no results, no error.
	items, err = src.Search(context.Background(), Request{Args: map[string]string{}})
	if err != nil || items != nil {
		t.Errorf("empty template query: %v, %v", items, err)
	}
}

func TestEngineSourceKinds(t *testing.T) {
	for v, want := range map[webcorpus.Vertical]string{
		webcorpus.VerticalImage: "imagesearch",
		webcorpus.VerticalVideo: "videosearch",
		webcorpus.VerticalNews:  "newssearch",
	} {
		src := &EngineSource{Vertical: v}
		if src.Kind() != want {
			t.Errorf("kind(%s) = %s", v, src.Kind())
		}
	}
}

func TestServiceSource(t *testing.T) {
	p := webservice.NewPricingService(7, []string{"Legend of Zelda"})
	srv := httptest.NewServer(p)
	defer srv.Close()
	src := &ServiceSource{
		SourceName: "pricing",
		Client:     webservice.NewClient(srv.Client()),
		Definition: webservice.Definition{
			Name:     "pricing",
			Endpoint: srv.URL + "/price",
			Params:   map[string]string{"title": "{title}"},
		},
	}
	if src.Kind() != "service" {
		t.Error("kind wrong")
	}
	items, err := src.Search(context.Background(), Request{Args: map[string]string{"title": "Legend of Zelda"}, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0]["price"] == "" {
		t.Fatalf("items = %v", items)
	}
}

func TestAdSource(t *testing.T) {
	svc := ads.NewService()
	svc.Register(ads.Ad{ID: "a1", Advertiser: "x", Title: "Buy Zelda", Text: "now", LandingURL: "http://x.example", Keywords: []string{"zelda"}, BidCPC: 1})
	src := &AdSource{SourceName: "ads", Service: svc}
	if src.Kind() != "ads" {
		t.Error("kind wrong")
	}
	items, err := src.Search(context.Background(), Request{Query: "zelda games", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0]["adid"] != "a1" || items[0]["cpc"] == "" {
		t.Fatalf("items = %v", items)
	}
}

func TestAdSourceTemplate(t *testing.T) {
	svc := ads.NewService()
	svc.Register(ads.Ad{ID: "a1", Advertiser: "x", Title: "t", Text: "x", LandingURL: "u", Keywords: []string{"zelda"}, BidCPC: 1})
	src := &AdSource{SourceName: "ads", Service: svc, QueryTemplate: "{title}"}
	items, _ := src.Search(context.Background(), Request{Args: map[string]string{"title": "zelda"}, Limit: 3})
	if len(items) != 1 {
		t.Fatalf("templated ad targeting failed: %v", items)
	}
}

func TestFuncSource(t *testing.T) {
	f := &Func{SourceName: "fn", Fn: func(_ context.Context, req Request) ([]Item, error) {
		return []Item{{"echo": req.Query}}, nil
	}}
	if f.Kind() != "func" {
		t.Error("default kind wrong")
	}
	items, err := f.Search(context.Background(), Request{Query: "hi"})
	if err != nil || items[0]["echo"] != "hi" {
		t.Fatalf("func source: %v %v", items, err)
	}
}
