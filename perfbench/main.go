// Command perfbench is the repository's benchmark. It drives the
// multi-tenant hub from outside, through public APIs only, on three
// closed-loop workloads (see BENCHMARK.json for why each exists), checks
// every home's output against a solo gateway replay, and prints one JSON
// result line: the end-to-end metrics, or with --trace 1 the per-layer
// metrics and a ledger of where the time went.
//
//	perfbench --workload fleet-durable --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/wal"
)

// walPolicy is the WAL fsync policy of the durable workload. The WAL lives
// in the working directory, whose disk flushes in hundreds of microseconds
// with run-to-run spreads far above any bound; SyncNever keeps that disk
// latency out while the program's whole write, rotate and truncate path
// still runs.
const walPolicy = wal.SyncNever

// stateRoot holds every run's WAL and checkpoint directories, inside the
// working directory so the benchmark writes nowhere else.
const stateRoot = ".bench_state"

// traceRoot receives the span files of traced runs.
const traceRoot = ".bench_out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: fleet-durable, sparse-faults or coap-devices")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same streams, contexts and fault plans")
	seconds := flag.Float64("seconds", 10, "how long to keep running measured passes")
	traceOn := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics instead")
	flag.Parse()
	sz, ok := fullSizes[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	res, err := run(os.Stdout, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance is printed before the result so every run records what it
// measured and where.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	StateDir   string `json:"state_dir"`
	WALSync    string `json:"wal_sync"`
	Homes      int    `json:"homes"`
	Events     int    `json:"events_per_pass"`
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go file and go.mod under the working directory
// (the checkout root), skipping dot-directories, so a run names the code it
// measured even where the build saw no VCS revision.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// run generates the workload's inputs, computes the solo reference, and
// runs measured passes for at least d (and at least the workload's minimum
// pass count). Any oracle failure is an error.
func run(out io.Writer, workload string, seed int64, d time.Duration, traced bool, sz size) (*result, error) {
	in, err := generate(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	ctxs, err := trainContexts(in)
	if err != nil {
		return nil, err
	}
	ref, err := reference(in, ctxs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	abs, _ := filepath.Abs(dir)
	prov := provenance{
		Workload: workload, Seed: seed, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Source: sourceDigest(), StateDir: abs, WALSync: walPolicy.String(),
		Homes: len(in.homes), Events: in.events(),
	}
	if !in.durable {
		prov.WALSync = "none"
	}
	if err := json.NewEncoder(out).Encode(prov); err != nil {
		return nil, err
	}
	r := newRunner(in, ref, dir)
	if traced {
		return r.traced(out, ctxs, workload, seed)
	}
	// One discarded pass lets caches, pools and the heap reach their
	// steady size before anything is measured.
	if _, err := r.runPass(0); err != nil {
		return nil, err
	}
	var ps []*pass
	start := time.Now()
	for len(ps) < sz.minPasses || time.Since(start) < d {
		p, err := r.runPass(len(ps) + 1)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		fmt.Fprintf(os.Stderr, "pass %d: %.0f events/s, %.0f CPU ns/event, ingest %.3fs, recovery %.3fs, set-up %.3fs\n",
			len(ps), p.eventsPerSec(), p.cpuPerEvent(), p.ingest.Seconds(), p.recover.Seconds(), p.setup.Seconds())
	}
	return endToEnd(ps), nil
}

// endToEnd turns the passes into the end-to-end metrics. Throughput, CPU
// cost, cycle time, set-up and heap are medians over passes; the latency
// medians pool every sample of the run. The p99 tails are per-layer
// metrics of the traced run (see tails): on a shared 2-vCPU machine their
// run-to-run spread reached 0.35 of the median, too wide to gate on.
func endToEnd(ps []*pass) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var acks, alerts []time.Duration
	for _, p := range ps {
		res.Attempted += p.attempted
		res.Failed += p.failed
		acks = append(acks, p.acks...)
		alerts = append(alerts, p.alertLat...)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("events_per_s", median(perPass(ps, (*pass).eventsPerSec)), "1/s")
	put("ack_p50_us", quantile(scaled(acks, time.Microsecond), 0.5), "us")
	put("alert_p50_ms", quantile(scaled(alerts, time.Millisecond), 0.5), "ms")
	put("cpu_ns_per_event", median(perPass(ps, (*pass).cpuPerEvent)), "ns")
	put("cycle_s", median(perPass(ps, func(p *pass) float64 { return (p.ingest - p.checkpoints() + p.recover).Seconds() })), "s")
	put("setup_s", median(perPass(ps, func(p *pass) float64 { return p.setup.Seconds() })), "s")
	put("heap_mb", median(perPass(ps, func(p *pass) float64 { return p.heapBytes / (1 << 20) })), "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d acks, %d alerts timed\n", len(ps), len(acks), len(alerts))
	return res
}
