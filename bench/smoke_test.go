package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for bench when the restart
// phase re-executes it with -child-boot.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child-boot" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload shrunken, untraced and traced, and
// holds the metric names each prints to BENCHMARK.json's, in both
// directions: the contract is that every workload reports every
// metric of its list.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(contract.Workloads), len(specs))
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range contract.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range contract.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range contract.Workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(w.Name+"/trace"+string(rune('0'+trace)), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				var stdout bytes.Buffer
				code := run(context.Background(), []string{
					"-smoke", "-workload", w.Name, "-seed", "5", "-seconds", "1", "-trace", string(rune('0' + trace)),
					"-out", filepath.Join(dir, "out"), "-work", filepath.Join(dir, "work"),
				}, &stdout)
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				var missing, extra []string
				for name, unit := range want[trace] {
					got, ok := res.Metrics[name]
					if !ok {
						missing = append(missing, name)
					} else if got.Unit != unit || got.Value == nil {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[trace][name]; !ok {
						extra = append(extra, name)
					}
				}
				sort.Strings(missing)
				sort.Strings(extra)
				if len(missing)+len(extra) > 0 {
					t.Errorf("metrics missing from the output: %v; not in BENCHMARK.json: %v", missing, extra)
				}
				if trace == 1 {
					if st, err := os.Stat(filepath.Join(dir, "out", w.Name+".trace.jsonl")); err != nil || st.Size() == 0 {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}
