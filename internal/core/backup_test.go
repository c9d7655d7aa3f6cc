package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frameio"
	"repro/internal/runtime"
)

func TestBackupRestoreRoundTrip(t *testing.T) {
	p := New(Config{Seed: 1})
	_, titles := buildGamerQueen(t, p)

	var buf bytes.Buffer
	if err := p.Backup(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh platform over the same corpus seed.
	p2 := New(Config{Seed: 1})
	if err := p2.RestoreBackup(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The app is published and queryable end to end. The pricing
	// supplemental points at the old httptest server and degrades
	// gracefully; proprietary + engine content must work.
	resp, err := p2.Query(context.Background(), "gamerqueen", runtime.Query{Text: titles[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 1 || len(resp.Blocks[0].Items) == 0 {
		t.Fatal("restored app returned nothing")
	}
	if resp.Blocks[0].Items[0]["title"] != titles[0] {
		t.Errorf("top = %v", resp.Blocks[0].Items[0]["title"])
	}
	if len(resp.Blocks[0].SupplementalByItem[0]["reviews"]) == 0 {
		t.Error("restored app lost review supplementals")
	}
}

// TestRestoreBackupV1: a version-1 backup, which carried the store's
// v1 JSON document inline, is below the format floor. RestoreBackup
// refuses it with frameio.ErrUnsupportedFormat and changes nothing:
// the store keeps its datasets and no application is published.
func TestRestoreBackupV1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "backup_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: 1})
	if err := p.Store.CreateTenant("acme", "ann"); err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreBackup(bytes.NewReader(data)); !errors.Is(err, frameio.ErrUnsupportedFormat) {
		t.Fatalf("RestoreBackup(v1) = %v, want ErrUnsupportedFormat", err)
	}
	if got := p.Store.Tenants(); len(got) != 1 || got[0] != "acme" {
		t.Fatalf("refused backup changed the store: tenants %v", got)
	}
	if got := p.Registry.List(); len(got) != 0 {
		t.Fatalf("refused backup published %v", got)
	}
}

func TestRestoreBackupRejectsGarbage(t *testing.T) {
	p := New(Config{Seed: 1})
	if err := p.RestoreBackup(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := p.RestoreBackup(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestBackupExcludesOperationalState(t *testing.T) {
	p := New(Config{Seed: 1})
	_, titles := buildGamerQueen(t, p)
	p.Query(context.Background(), "gamerqueen", runtime.Query{Text: titles[0]})
	var buf bytes.Buffer
	if err := p.Backup(&buf); err != nil {
		t.Fatal(err)
	}
	p2 := New(Config{Seed: 1})
	if err := p2.RestoreBackup(&buf); err != nil {
		t.Fatal(err)
	}
	if p2.Log.Len() != 0 {
		t.Error("interaction log leaked into backup")
	}
}
