package recommend

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/sitesuggest"
	"repro/internal/store"
	"repro/internal/webcorpus"
)

var corpus = webcorpus.Generate(webcorpus.Config{Seed: 31})
var eng = engine.New(func() *webcorpus.Corpus { return corpus })

func gameInventory(t testing.TB) *store.Dataset {
	t.Helper()
	s := store.New()
	s.CreateTenant("t", "o")
	ds, err := s.CreateDataset("t", "o", store.Schema{
		Name: "inv", Key: "sku",
		Fields: []store.Field{
			{Name: "sku", Required: true},
			{Name: "title", Searchable: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, title := range webcorpus.Entities(webcorpus.Config{Seed: 31}, webcorpus.TopicGames)[:12] {
		if _, err := ds.Put(store.Record{"sku": fmt.Sprintf("G%d", i), "title": title}); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestRecommendsGameSites(t *testing.T) {
	ds := gameInventory(t)
	recs, err := SupplementalSites(context.Background(), eng, ds, Options{DriveField: "title", ProbeSuffix: "review", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	gameSites := map[string]bool{}
	for _, s := range webcorpus.SitesForTopic(webcorpus.TopicGames) {
		gameSites[s] = true
	}
	// The majority of top recommendations should publish game content
	// — the paper's "good game review sites" for a game inventory.
	hits := 0
	for _, r := range recs {
		if gameSites[r.Site] {
			hits++
		}
		if r.Score <= 0 || r.Hits <= 0 {
			t.Errorf("degenerate rec %+v", r)
		}
	}
	if hits*2 < len(recs) {
		t.Errorf("only %d/%d recommendations are game sites: %+v", hits, len(recs), recs)
	}
}

func TestScoresDescendAndLimit(t *testing.T) {
	ds := gameInventory(t)
	recs, err := SupplementalSites(context.Background(), eng, ds, Options{DriveField: "title", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 3 {
		t.Fatalf("limit ignored: %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
}

func TestEmptyDriveFieldYieldsNothing(t *testing.T) {
	s := store.New()
	s.CreateTenant("t", "o")
	ds, _ := s.CreateDataset("t", "o", store.Schema{Name: "d", Fields: []store.Field{{Name: "x"}}})
	ds.Put(store.Record{"x": ""})
	recs, err := SupplementalSites(context.Background(), eng, ds, Options{DriveField: "x"})
	if err != nil || recs != nil {
		t.Fatalf("recs = %v, %v", recs, err)
	}
}

func TestSuggesterBlendBoosts(t *testing.T) {
	ds := gameInventory(t)
	base, err := SupplementalSites(context.Background(), eng, ds, Options{DriveField: "title", ProbeSuffix: "review", Limit: 10})
	if err != nil || len(base) < 2 {
		t.Skip("not enough base recommendations")
	}
	// Build a click log that ties the top site to the last site.
	top, last := base[0].Site, base[len(base)-1].Site
	var log []engine.LogEntry
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("query %d", i)
		log = append(log,
			engine.LogEntry{Query: q, Site: top, ClickedURL: "http://" + top},
			engine.LogEntry{Query: q, Site: last, ClickedURL: "http://" + last},
		)
	}
	sug := sitesuggest.Build(log)
	blended, err := SupplementalSites(context.Background(), eng, ds, Options{
		DriveField: "title", ProbeSuffix: "review", Limit: 10, Suggester: sug,
	})
	if err != nil {
		t.Fatal(err)
	}
	var baseScore, blendScore float64
	for _, r := range base {
		if r.Site == last {
			baseScore = r.Score
		}
	}
	for _, r := range blended {
		if r.Site == last {
			blendScore = r.Score
		}
	}
	if blendScore <= baseScore {
		t.Errorf("co-visitation did not boost %s: %f <= %f", last, blendScore, baseScore)
	}
}
