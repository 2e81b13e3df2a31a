package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbs3/internal/core"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastLine runs the command line and decodes its result line.
func lastLine(t *testing.T, args ...string) (code int, res struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]metric
}, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append(args, "--dir", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, errb.String())
	}
	return code, res, errb.String()
}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and checks the result line against BENCHMARK.json: every named metric,
// with its unit, and nothing else.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := bf.EndToEnd
			if trace == "1" {
				want = bf.PerLayer
			}
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				code, res, stderr := lastLine(t, "--workload", w.Name, "--seed", "3", "--seconds", "0.6", "--trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v, stderr %s", code, res, stderr)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestOracleCatchesWrongAnswer corrupts one expected answer and checks the
// run fails: no correct result, exit status 1.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	good := workloads["skewjoin"]
	defer func() { workloads["skewjoin"] = good }()
	bad := *skewJoin
	bad.specs = func(rels core.DB) []stmtSpec {
		specs := skewJoin.specs(rels)
		specs[1].want[2].Sum++
		return specs
	}
	workloads["skewjoin"] = bad.run
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "skewjoin", "--seconds", "0.5", "--dir", t.TempDir()}, &out, &errb)
	if code == 0 {
		t.Fatalf("a wrong expected answer passed: %s", out.String())
	}
	if !strings.Contains(errb.String(), "oracle mismatch") {
		t.Errorf("failure does not name the oracle: %s", errb.String())
	}
}

// TestServeOracleCatchesWrongAnswer checks the serve-zipf answers against
// the oracle's answer for different arguments.
func TestServeOracleCatchesWrongAnswer(t *testing.T) {
	ctx := context.Background()
	rels, _, err := serveBase(1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newServeOracle(rels)
	sc, err := startCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.close()
	argsOf := map[string][]int64{"point": {40}, "range": {400, 700}, "adhoc": {41}, "group": {5000}, "join": {40}}
	for i, s := range serveMix {
		args := argsOf[s.name]
		got, err := sc.viaCoordinator(ctx, i, args)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(s.name, got, oracle.want(i, args)); err != nil {
			t.Errorf("right answer rejected: %v", err)
		}
		wrong := append([]int64(nil), args...)
		wrong[0]++
		if check(s.name, got, oracle.want(i, wrong)) == nil {
			t.Errorf("%s: answer for %v accepted as the answer for %v", s.name, args, wrong)
		}
	}
}

// TestNothingLeftBehind runs each workload and checks that its goroutines
// have exited and its spill directory is empty once it returns.
func TestNothingLeftBehind(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := runConfig{workload: name, seed: 2, seconds: 500 * time.Millisecond, trace: true, dir: t.TempDir(), spillDir: t.TempDir()}
			if _, err := w(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
			}
			left, err := os.ReadDir(cfg.spillDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) > 0 {
				t.Errorf("%d spill files left behind", len(left))
			}
		})
	}
}

// TestCovered checks the self-time arithmetic on overlapping children.
func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}, {Start: 60, End: 60}}
	if got := covered(parent, kids); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}
