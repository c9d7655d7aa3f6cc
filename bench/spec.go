package main

import (
	"fmt"
	"time"
)

// spec is one workload: the state the platform holds, the traffic it
// receives and how the run's seconds are split between the visitor's
// phases (paced, sat), the designer's (upload) and the operator's
// (restart). Every workload runs every phase, so every metric exists
// on every workload; the workloads differ in which layers the phases
// load. The rates and sizes here are frozen: a later change compares
// itself with its parent under exactly these.
type spec struct {
	name string
	// apps publishes GamerQueen, WineFinder and VideoStore and sends
	// the visitors to them; otherwise visitors query the catalog app
	// over shop/items.
	apps bool
	// itemRows is the size of shop/items (0 with apps).
	itemRows int
	// pacedRPS is the open-loop arrival rate of the paced phase.
	pacedRPS float64
	// overlap runs the designer beside the visitors: a writer that
	// re-uploads rewriteRows existing rows every rewriteEvery beside
	// the paced and sat slices, a reader beside the upload slices, and
	// a checkpoint at the start of every upload slice.
	overlap bool
	// tailRows are appended after the last checkpoint, so they reach
	// only the write-ahead log and every restart has to replay them.
	tailRows int
	// minBoots child processes are booted at least; more if the
	// restart share of the run has time left.
	minBoots int
	// burst is how many queries a booted child answers after its
	// first one, before its memory is read.
	burst int
	// share of --seconds per phase; the five sum to 1.
	warm, paced, sat, upload, restart float64
	// replay is the number of requests in the traced replay.
	replay int
}

const (
	demoCatalogRows = 60
	batchRows       = 1000
	rewriteRows     = 256
	rewriteEvery    = 250 * time.Millisecond
	goldenQueries   = 64
)

var specs = []spec{
	{
		name: "apps-fig2", apps: true, pacedRPS: 1500,
		tailRows: 500, minBoots: 5, burst: 50,
		warm: 0.05, paced: 0.35, sat: 0.35, upload: 0.15, restart: 0.10,
		replay: 1000,
	},
	{
		name: "catalog-search", itemRows: 4000, pacedRPS: 220,
		tailRows: 500, minBoots: 5, burst: 50,
		warm: 0.05, paced: 0.35, sat: 0.35, upload: 0.15, restart: 0.10,
		replay: 250,
	},
	{
		name: "ingest-mixed", itemRows: 4000, pacedRPS: 110, overlap: true,
		tailRows: 500, minBoots: 5, burst: 50,
		warm: 0.05, paced: 0.35, sat: 0.25, upload: 0.25, restart: 0.10,
		replay: 250,
	},
	{
		name: "restart", itemRows: 8000, pacedRPS: 110,
		tailRows: 2000, minBoots: 7, burst: 30,
		warm: 0.05, paced: 0.30, sat: 0.20, upload: 0.10, restart: 0.35,
		replay: 150,
	},
}

// tailDataset is where the log-only rows go: the catalog, or bulk on
// a workload without one.
func (s spec) tailDataset() string {
	if s.itemRows > 0 {
		return "items"
	}
	return "bulk"
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload for the unit test: the same phases and
// metric names on a 2 000-row catalog, with one boot.
func (s spec) smoke() spec {
	if s.itemRows > 0 {
		s.itemRows = 2000
	}
	s.pacedRPS /= 2
	s.tailRows = 200
	s.minBoots = 1
	s.burst = 5
	s.replay = 20
	return s
}

// phase returns a phase's length for a run of the given seconds.
func phase(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}
