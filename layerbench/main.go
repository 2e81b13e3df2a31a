// Command layerbench is the repository's benchmark. It drives the real
// program through two workloads, checks every answer against an oracle
// computed from the base rows it generated itself, and prints end-to-end
// metrics (an untraced run) or per-layer metrics (a traced run):
//
//	skewjoin    closed loop of 2 clients on the library facade; the paper's
//	            placement-skewed joins, engine-bound
//	serve-zipf  open loop of Zipf-popular statements through an in-process
//	            coordinator and 2 sharded workers over HTTP
//
// The traced run of skewjoin also measures the storage layer: it runs the
// same statements under a memory grant far below their build sides and
// without one.
//
// Usage (normally through run.sh, which builds this from source):
//
//	layerbench --workload skewjoin --seed 1 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. An oracle mismatch or any failed operation
// exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json's
// order; perLayer lists the traced run's. The tail percentiles are printed
// in the report line beside them but not gated: on a shared 2-vCPU machine
// the serve path's p90 moved by 30-50% between runs of identical code.
var endToEnd = []metricDef{
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"dbs3.prepare_us", "us"},
	{"dbs3.plan_cache_hit_ratio", "ratio"},
	{"dbs3.plan_cache_lookups", "count"},
	{"dbs3.first_row_ms", "ms"},
	{"dbs3.drain_ms", "ms"},
	{"dbs3.self_ms", "ms"},
	{"esql.compile_us", "us"},
	{"esql.self_ms", "ms"},
	{"runtime.admit_ms", "ms"},
	{"runtime.threads_per_query", "count"},
	{"runtime.utilization_mean", "ratio"},
	{"runtime.peak_threads", "count"},
	{"runtime.rejected", "count"},
	{"runtime.peak_mem_mb", "MiB"},
	{"runtime.readmissions", "count"},
	{"runtime.self_ms", "ms"},
	{"core.activations_per_query", "count"},
	{"core.secondary_pick_ratio", "ratio"},
	{"core.worker_imbalance", "ratio"},
	{"core.self_ms", "ms"},
	{"storage.spill_bytes_per_input_byte", "ratio"},
	{"storage.spill_passes_per_query", "count"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.spill_slowdown", "ratio"},
	{"server.header_ms", "ms"},
	{"server.bytes_per_row", "B"},
	{"server.overhead_ms", "ms"},
	{"server.self_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.shard_spread", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.failures", "count"},
	{"cluster.self_ms", "ms"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.queries", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // where spill files and traces go, inside the checkout
	spillDir string
}

// report is what a workload hands back: operation counts, metrics by name
// and the details printed beside them.
type report struct {
	attempted, failed int64
	err               error // first failure, if any
	metrics           map[string]float64
	details           map[string]any
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), details: make(map[string]any)}
}

// absorb adds a phase's operation counts.
func (r *report) absorb(c *closedResult) {
	r.attempted += c.attempted
	r.failed += c.failed
	if r.err == nil {
		r.err = c.firstErr
	}
}

type workloadFunc func(ctx context.Context, cfg runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"skewjoin":   runSkewJoin,
	"serve-zipf": runServeZipf,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: skewjoin or serve-zipf")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measured duration of one phase, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for spill files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "layerbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	var err error
	if cfg.dir, err = filepath.Abs(*dir); err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	cfg.spillDir = filepath.Join(cfg.dir, fmt.Sprintf("spill-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.spillDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.spillDir)

	printJSON(stdout, map[string]any{"env": envStamp(cfg)})
	rep, err := w(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if left, _ := os.ReadDir(cfg.spillDir); len(left) > 0 {
		fmt.Fprintf(stderr, "layerbench: %d spill files left behind\n", len(left))
		return 1
	}
	correct := rep.failed == 0 && rep.attempted > 0
	if rep.err != nil {
		fmt.Fprintf(stderr, "layerbench: %s: %d of %d operations failed; first: %v\n", cfg.workload, rep.failed, rep.attempted, rep.err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && correct {
			fmt.Fprintf(stderr, "layerbench: %s did not measure %s\n", cfg.workload, d.name)
			return 1
		}
		if ok {
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	printJSON(stdout, map[string]any{"report": rep.details})
	printJSON(stdout, map[string]any{"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out})
	if !correct {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, numbers and strings are printed
	}
	fmt.Fprintf(w, "%s\n", buf)
}

// envStamp records what the numbers were measured on and with.
func envStamp(cfg runConfig) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"modified":   modified,
		"shape":      shapeOf(cfg.workload),
	}
}
