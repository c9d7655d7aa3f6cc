package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
)

// bootReport is what a booted child tells its parent on stdout.
type bootReport struct {
	// First200UnixNano is when the first /query was answered with 200;
	// the parent subtracts the time it started the process.
	First200UnixNano int64
	BootToFirst200Ms float64 // filled in by the parent

	RestoreMs, ReplayMs, FirstQueryMs float64
	ReplayRecords                     int
	RSSAfterBurstKB                   int64
	MappedBytes, MaterializedBytes    int64

	// TailServed is how many of the log-only rows the child holds.
	TailServed int
	Digest     string // of the burst's bodies
	Attempted  int
	Failed     int
	Errors     []string
}

// restarts boots fresh child processes from copies of the data dir,
// as an operator restarting a killed daemon would: at least minBoots,
// and more while budget lasts. Each child restores the checkpoint,
// replays the log, answers a first query and then a burst.
func (b *bench) restarts(ctx context.Context, pl *platform, budget time.Duration) ([]bootReport, error) {
	var out []bootReport
	start := time.Now()
	for i := 0; i < b.sp.minBoots || (time.Since(start) < budget && i < 4*b.sp.minBoots); i++ {
		rep, err := b.bootChild(ctx, pl.dir)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", i, err)
		}
		b.total.add(tally{attempted: rep.Attempted, failed: rep.Failed, errs: rep.Errors})
		b.total.note(nil) // the boot itself
		if rep.TailServed != b.sp.tailRows {
			b.total.note(fmt.Errorf("boot %d serves %d of the %d log-only rows", i, rep.TailServed, b.sp.tailRows))
		}
		if i > 0 && rep.Digest != out[0].Digest {
			b.total.note(fmt.Errorf("boot %d answered the burst differently from boot 0", i))
		}
		out = append(out, rep)
	}
	b.checkDigest("boot", out[0].Digest)
	b.checks["restart"] = fmt.Sprintf("%d boots, each holding all %d log-only rows", len(out), b.sp.tailRows)
	return out, nil
}

func (b *bench) bootChild(ctx context.Context, dataDir string) (bootReport, error) {
	var rep bootReport
	dir := filepath.Join(b.workDir, "boot")
	defer os.RemoveAll(dir)
	if err := copyDataDir(dataDir, dir); err != nil {
		return rep, err
	}
	args := []string{"-child-boot", dir, "-workload", b.sp.name, "-seed", strconv.FormatInt(b.seed, 10)}
	if b.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, b.self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep, err
	}
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, err
	}
	decErr := json.NewDecoder(stdout).Decode(&rep)
	if err := cmd.Wait(); err != nil {
		return rep, fmt.Errorf("child: %w", err)
	}
	if decErr != nil {
		return rep, fmt.Errorf("child report: %w", decErr)
	}
	rep.BootToFirst200Ms = ms(time.Unix(0, rep.First200UnixNano).Sub(started))
	return rep, nil
}

// copyDataDir copies what a boot reads: the current snapshot and the
// log. The retained previous snapshot is read only when the current
// one is damaged, and is left out.
func copyDataDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dst, "wal"), 0o755); err != nil {
		return err
	}
	names := []string{"store.snap"}
	segs, err := os.ReadDir(filepath.Join(src, "wal"))
	if err != nil {
		return err
	}
	for _, e := range segs {
		names = append(names, filepath.Join("wal", e.Name()))
	}
	for _, name := range names {
		if err := copyFile(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// childBoot is the measured restart, in a process of its own: boot
// from dir the way symphonyd does, serve, and query oneself.
func childBoot(ctx context.Context, sp spec, seed int64, dir string, stdout io.Writer) error {
	s, err := startServer(ctx, sp, dir, daemonCacheMB)
	if err != nil {
		return err
	}
	defer s.stop()
	// The registry is not part of the data dir; the daemon publishes
	// its applications at every boot.
	apps, err := catalogApps(sp)
	if err != nil {
		return err
	}
	for _, a := range apps {
		if err := s.p.Registry.Publish(a); err != nil {
			return err
		}
	}

	rep := bootReport{
		RestoreMs:     ms(s.restoreDur),
		ReplayMs:      ms(s.replayDur),
		ReplayRecords: s.replayed.Records,
	}
	var t tally
	in := newInputs(sp, seed)
	v := visitor{hc: newHTTPClient(1), base: s.base}
	paths := in.paths(streamBurst, 1+sp.burst)
	t0 := time.Now()
	if _, err := v.get(paths[0]); err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	rep.First200UnixNano = time.Now().UnixNano()
	rep.FirstQueryMs = ms(time.Since(t0))
	t.note(nil)

	h := sha256.New()
	for _, path := range paths[1:] {
		body, err := v.get(path)
		if t.note(err) && !sp.apps { // the demo apps' pricing fields are live
			hashBody(h, path, body, s.base)
		}
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))

	// Every row that reached only the log must be there, and a few are
	// looked up the way a visitor would.
	dataset := sp.tailDataset()
	ds, err := s.p.Store.DatasetContext(ctx, catalogTenant, catalogOwner, dataset, store.PermRead)
	if err != nil {
		return err
	}
	_, tail := in.words(streamTail).batch("T", 0, sp.tailRows)
	for i, r := range tail {
		if rec, ok := ds.Get(r.sku); ok && rec["title"] == r.title {
			rep.TailServed++
		}
		if i%(1+len(tail)/10) == 0 {
			t.note(lookUp(&v, dataset, r.sku, r.title))
		}
	}

	debug.FreeOSMemory()
	rep.RSSAfterBurstKB = procStatusKB("VmRSS")
	for _, st := range s.p.Store.Status() {
		rep.MappedBytes += st.MappedBytes
		rep.MaterializedBytes += st.MaterializedBytes
	}
	rep.Attempted, rep.Failed, rep.Errors = t.attempted, t.failed, t.errs
	return json.NewEncoder(stdout).Encode(rep)
}

// procStatusKB reads a kB field of /proc/self/status (VmRSS, VmHWM);
// 0 where there is no such file.
func procStatusKB(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return n
		}
	}
	return 0
}
