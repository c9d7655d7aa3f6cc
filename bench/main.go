// Command bench is the one benchmark of the served platform. One
// process runs one workload:
//
//	bench -workload apps-fig2 -seed 1 -seconds 20 -trace 0
//
// builds core.Platform the way cmd/symphonyd does, serves it on a
// loopback listener and drives it from this process: the visitor's
// paced and saturated query phases, the designer's uploads and the
// operator's restarts. -trace 0 prints the end-to-end metrics;
// -trace 1 prints the per-layer metrics and writes the spans of a
// replayed request sequence. README.md has the glossary.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins, per seed, the SHA-256 of the bodies a catalog
// workload answers its fixed query sequences with. Rankings are
// bit-identical by project rule, so no change may move a digest.
type goldenFile struct {
	// HeldOutSeed is pinned like the other but kept out of day-to-day
	// runs: a performance claim must also hold on it.
	HeldOutSeed int64 `json:"heldOutSeed"`
	// Digests maps seed, then "workload/check", to a digest.
	Digests map[string]map[string]string `json:"digests"`
}

// checkDigest compares a digest with the one pinned for this seed, if
// any. The demo apps' bodies carry live prices and are not pinned, and
// a smoke run has its own, smaller catalog.
func (b *bench) checkDigest(check, digest string) {
	if b.sp.apps || b.smoke {
		return
	}
	key := b.sp.name + "/" + check
	b.checks["digest "+check] = digest
	want, pinned := b.golden.Digests[fmt.Sprint(b.seed)][key]
	if pinned && want != digest {
		b.total.note(fmt.Errorf("%s: bodies hash to %s, golden.json pins %s for seed %d", key, digest, want, b.seed))
	}
}

func urlQuery(path string) (url.Values, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	return u.Query(), nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the file a run leaves under -out.
type report struct {
	Benchmark   string            `json:"benchmark"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       int               `json:"trace"`
	Environment map[string]any    `json:"environment"`
	Metrics     map[string]any    `json:"metrics"`
	Checks      map[string]string `json:"checks"`
	Errors      []string          `json:"errors,omitempty"`
	Claim       any               `json:"claim"` // a benchmark run claims no gain
	result
}

func environment(seed int64) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := os.Getenv("SYMBENCH_COMMIT") // run.sh sets it where git can tell
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"kernel":     kernel,
		"go":         runtime.Version(),
		"commit":     commit,
		"date":       time.Now().UTC().Format(time.RFC3339),
		"seed":       seed,
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// run is main without the process: it parses args, runs one workload
// (or one child boot) and returns the exit code. A result is printed
// only by a run that completed; it exits 1 if its outputs were wrong.
func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "apps-fig2, catalog-search, ingest-mixed or restart")
	seed := fs.Int64("seed", 1, "every input is a function of it")
	seconds := fs.Float64("seconds", 20, "length of the measured phases")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the span file")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for <workload>.json and <workload>.trace.jsonl")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for data dirs, removed at exit")
	smoke := fs.Bool("smoke", false, "shrunken workload, for the unit test")
	childDir := fs.String("child-boot", "", "boot from this data dir, answer a burst, report and exit (started by the restart phase)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sp, err := specByName(*workload)
	if err != nil {
		return fail(err)
	}
	if *smoke {
		sp = sp.smoke()
	}
	if *childDir != "" {
		if err := childBoot(ctx, sp, *seed, *childDir, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}

	b := &bench{sp: sp, seed: *seed, seconds: *seconds, smoke: *smoke, checks: make(map[string]string)}
	if err := json.Unmarshal(goldenJSON, &b.golden); err != nil {
		return fail(fmt.Errorf("golden.json: %w", err))
	}
	if b.self, err = os.Executable(); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	if b.workDir, err = os.MkdirTemp(*work, fmt.Sprintf("%s-%d-", sp.name, *seed)); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(b.workDir)
	b.in = newInputs(sp, *seed)

	var (
		values  map[string]float64
		samples map[string]int
		defs    = endToEnd
		file    = sp.name + ".json"
	)
	if *trace == 1 {
		defs, file = perLayer, sp.name+".layers.json"
		values, samples, err = b.perLayer(ctx, filepath.Join(*out, sp.name+".trace.jsonl"))
	} else {
		values, samples, err = b.endToEnd(ctx)
	}
	if err != nil {
		return fail(err)
	}

	res := result{
		Correct:   b.total.failed == 0,
		Attempted: b.total.attempted,
		Failed:    b.total.failed,
		Metrics:   make(map[string]measured, len(defs)),
	}
	detail := make(map[string]any, len(defs))
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			return fail(fmt.Errorf("metric %s was not measured", m.name))
		}
		res.Metrics[m.name] = measured{v, m.unit}
		d := map[string]any{"value": v, "unit": m.unit}
		line := fmt.Sprintf("%-38s %14.4f %s", m.name, v, m.unit)
		if n, ok := samples[m.name]; ok {
			d["samples"] = n
			line += fmt.Sprintf("  (n=%d)", n)
		}
		detail[m.name] = d
		fmt.Fprintln(stdout, line)
	}
	for _, e := range b.total.errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	rep := report{
		Benchmark: "symphony served platform", Workload: sp.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Environment: environment(*seed), Metrics: detail, Checks: b.checks, Errors: b.total.errs, result: res,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(*out, file), append(buf, '\n'), 0o644); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
