package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dbs3"
	"dbs3/internal/core"
	"dbs3/internal/lera"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/storage"
)

// facadeWorkload is a closed loop of clients on the library facade.
type facadeWorkload struct {
	budget int // manager thread budget
	// storageStmts are the statements the storage probe runs.
	storageStmts []int
	// create provisions the program's database; base generates the same
	// relations for the benchmark's oracle and replay.
	create func(db *dbs3.Database, seed int64) error
	base   func(seed int64) (core.DB, lera.MapResolver, error)
	// specs builds the statement mix with the oracle's expected answers.
	specs func(rels core.DB) []stmtSpec
}

// facadeDB is one provisioned program instance.
type facadeDB struct {
	db    *dbs3.Database
	stmts []*dbs3.Stmt
}

// setUp provisions the database, installs the manager and prepares the
// mix: everything before the first query can be issued.
func (fw *facadeWorkload) setUp(cfg runConfig, specs []stmtSpec) (*facadeDB, error) {
	db := dbs3.New()
	if err := fw.create(db, cfg.seed); err != nil {
		return nil, err
	}
	db.Manager(dbs3.ManagerConfig{Budget: fw.budget})
	f := &facadeDB{db: db}
	for _, s := range specs {
		st, err := db.Prepare(s.sql, &dbs3.Options{Materialize: s.materialize})
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", s.name, err)
		}
		f.stmts = append(f.stmts, st)
	}
	return f, nil
}

// query executes one job through the facade and checks its answer.
func (f *facadeDB) query(ctx context.Context, specs []stmtSpec, j job) error {
	s := specs[j.stmt]
	got, err := facadeQuery(ctx, f.stmts[j.stmt], s.args[j.arg])
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return check(fmt.Sprintf("%s%v", s.name, s.args[j.arg]), got, s.want[j.arg])
}

// facadeQuery runs a prepared statement and digests its rows.
func facadeQuery(ctx context.Context, st *dbs3.Stmt, args []int64) (digest, error) {
	var d digest
	rows, err := st.QueryContext(ctx, anyArgs(args)...)
	if err != nil {
		return d, err
	}
	defer rows.Close()
	row := make([]any, len(rows.Columns()))
	dest := make([]any, len(row))
	for i := range row {
		dest[i] = &row[i]
	}
	for rows.Next() {
		if err := rows.Scan(dest...); err != nil {
			return d, err
		}
		if err := d.add(row); err != nil {
			return d, err
		}
	}
	return d, rows.Err()
}

func anyArgs(args []int64) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}

// run is the whole workload: oracle, repeated set-up, warm-up, the
// untraced phase and, for a traced run, the traced phase.
func (fw *facadeWorkload) run(ctx context.Context, cfg runConfig) (*report, error) {
	rels, resolver, err := fw.base(cfg.seed)
	if err != nil {
		return nil, err
	}
	specs := fw.specs(rels)
	rep := newReport()

	var f *facadeDB
	var setups []float64
	for i := 0; i < setupReps; i++ {
		f = nil // let the previous instance go before timing the next
		t0 := time.Now()
		if f, err = fw.setUp(cfg, specs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = median(setups)
	rep.details["setup_s"] = setups

	// Warm-up: every statement once, untimed, checked.
	for s := range specs {
		if err := f.query(ctx, specs, job{s, 0}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if !cfg.trace {
		rels = nil // the oracle's copy of the base rows is not part of the measured heap
	}

	// A traced run splits its time between an untraced and a traced phase.
	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	heap := startHeapSampler(2 * time.Millisecond)
	cpu := processCPU()
	plain := runClosed(ctx, phase, clients, specs, cfg.seed, func(ctx context.Context, _ int, j job) error {
		return f.query(ctx, specs, j)
	})
	rep.metrics["cpu_ms_per_query"] = ratio(ms(processCPU()-cpu), float64(len(plain.samples)))
	rep.metrics["peak_heap_mb"] = heap.Stop()
	rep.absorb(plain)
	fig := figures(plain.samples, phase, closedWindows)
	rep.metrics["qps"] = fig.qps
	rep.metrics["p50_ms"] = fig.p50
	rep.details["p90_ms"] = fig.p90
	rep.details["completed"] = len(plain.samples)
	rep.details["whole_phase_ms"] = map[string]float64{"p50": fig.p50All, "p90": fig.p90All, "p99": fig.p99All}
	rep.details["windows"] = fig.perWindow
	if !cfg.trace || rep.failed > 0 {
		return rep, nil
	}
	f = nil
	return rep, fw.traced(ctx, cfg, rep, phase, fig.qps, rels, resolver, specs)
}

// traced replays the same closed loop through the facade's call sequence
// with a span around every layer call, then derives the per-layer metrics.
func (fw *facadeWorkload) traced(ctx context.Context, cfg runConfig, rep *report, phase time.Duration, plainQps float64, rels core.DB, resolver lera.MapResolver, specs []stmtSpec) error {
	tr := newTracer()
	mgr := dbruntime.NewManager(dbruntime.Config{Budget: fw.budget})
	defer mgr.Close()
	rp := newReplayer(rels, resolver, mgr, 0, "")
	var (
		mu   sync.Mutex
		recs []execRecord
		qid  atomic.Int64
	)
	traced := runClosed(ctx, phase, clients, specs, cfg.seed, func(ctx context.Context, _ int, j job) error {
		s := specs[j.stmt]
		q := qid.Add(1)
		root := tr.begin(q, -1, rootSpan)
		rec, err := rp.run(ctx, tr, q, root, s.sql, s.materialize, s.args[j.arg])
		tr.end(root)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if err := check(fmt.Sprintf("%s%v", s.name, s.args[j.arg]), rec.digest, s.want[j.arg]); err != nil {
			return err
		}
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
		return nil
	})
	rep.absorb(traced)
	if rep.failed > 0 {
		return nil
	}
	compileUs := compileProbe(tr, &qid, resolver, specs)

	storage, err := fw.storageProbe(ctx, cfg, tr, &qid, rels, resolver, specs)
	if err != nil {
		return err
	}

	st := mgr.Stats()
	n := float64(len(recs))
	var (
		hitCount                                    float64
		prepare, admit, first, drain, threads, util float64
		acts, sec, imb, imbOps                      float64
	)
	for _, r := range recs {
		if r.cacheHit {
			hitCount++
		}
		prepare += us(r.prepare)
		admit += ms(r.admit)
		first += ms(r.firstRow)
		drain += ms(r.drain)
		threads += float64(r.threads)
		util += r.utilization
		acts += float64(r.activations)
		sec += float64(r.secondary)
		imb += r.imbalance
		imbOps += float64(r.imbalanceOps)
	}
	imbalance := 1.0 // a single worker is perfectly balanced
	if imbOps > 0 {
		imbalance = imb / imbOps
	}
	bd := tr.reduce()
	m := rep.metrics
	m["dbs3.prepare_us"] = ratio(prepare, n)
	m["dbs3.plan_cache_hit_ratio"] = ratio(hitCount, n)
	m["dbs3.plan_cache_lookups"] = n
	m["dbs3.first_row_ms"] = ratio(first, n)
	m["dbs3.drain_ms"] = ratio(drain, n)
	m["esql.compile_us"] = compileUs
	m["runtime.admit_ms"] = ratio(admit, n)
	m["runtime.threads_per_query"] = ratio(threads, n)
	m["runtime.utilization_mean"] = ratio(util, n)
	m["runtime.peak_threads"] = float64(st.PeakThreads)
	m["runtime.rejected"] = float64(st.Rejected)
	m["runtime.peak_mem_mb"] = float64(st.PeakMem) / (1 << 20)
	m["runtime.readmissions"] = float64(st.Readmissions)
	m["core.activations_per_query"] = ratio(acts, n)
	m["core.secondary_pick_ratio"] = ratio(sec, acts)
	m["core.worker_imbalance"] = imbalance
	for k, v := range storage.metrics {
		m[k] = v
	}
	for _, k := range []string{"server.header_ms", "server.bytes_per_row", "server.overhead_ms", "cluster.overhead_ms", "cluster.shard_spread", "cluster.failovers", "cluster.failures"} {
		m[k] = 0 // no wire and no coordinator on the facade path
	}
	tracedQps := figures(traced.samples, phase, closedWindows).qps
	setTraceMetrics(rep, bd, tracedQps/plainQps)
	rep.details["bases"] = map[string]any{
		"queries": n, "activations": acts, "imbalanceOps": imbOps,
		"tracedQps": tracedQps, "untracedQps": plainQps, "storageProbe": storage.bases,
	}
	return writeTrace(cfg, tr, rep)
}

// setTraceMetrics reports the per-layer self times and the trace's own
// health figures.
func setTraceMetrics(rep *report, bd *breakdown, overhead float64) {
	for _, l := range []string{"dbs3", "esql", "runtime", "core", "server", "cluster"} {
		rep.metrics[l+".self_ms"] = bd.selfPerRootMs(l)
	}
	rep.metrics["trace.unattributed_share"] = bd.unattributedShare()
	rep.metrics["trace.overhead_ratio"] = overhead
	rep.metrics["trace.queries"] = float64(bd.Roots)
	self := make(map[string]float64, len(bd.SelfNs))
	for l, ns := range bd.SelfNs {
		self[l] = float64(ns) / 1e6
	}
	rep.details["self_ms_total"] = self
}

func writeTrace(cfg runConfig, tr *tracer, rep *report) error {
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.details["trace_file"] = path
	return nil
}

// compileReps is how often each distinct statement is compiled when timing
// the esql layer.
const compileReps = 5

// compileProbe times esql.Compiler.Compile on each distinct statement of
// the mix and returns the mean over statements of the per-statement median,
// in microseconds.
func compileProbe(tr *tracer, qid *atomic.Int64, resolver lera.MapResolver, specs []stmtSpec) float64 {
	var medians []float64
	for _, s := range specs {
		var times []float64
		for i := 0; i < compileReps; i++ {
			q := qid.Add(1)
			root := tr.begin(q, -1, rootSpan)
			_, _, d, err := newReplayer(nil, resolver, nil, 0, "").lookup(tr, q, root, s.sql, s.materialize)
			tr.end(root)
			if err == nil {
				times = append(times, us(d))
			}
		}
		medians = append(medians, median(times))
	}
	return mean(medians)
}

// storageGrant is the per-query memory grant of the storage probe: far
// below the skewjoin build sides and stores, so every statement spills.
const storageGrant = 1 << 20

// storageReps is how often the storage probe runs each statement per side.
const storageReps = 3

// storageFigures are the storage layer's metrics and their bases.
type storageFigures struct {
	metrics map[string]float64
	bases   map[string]any
}

// storageProbe measures the storage layer on the workload's own statements:
// it runs each one alone, alternately under a manager granting storageGrant
// per query and under one with no memory limit. The budgeted runs give
// spill volume, passes and read-back pool hits; the ratio of the summed
// median execution times is what spilling costs the engine.
func (fw *facadeWorkload) storageProbe(ctx context.Context, cfg runConfig, tr *tracer, qid *atomic.Int64, rels core.DB, resolver lera.MapResolver, specs []stmtSpec) (storageFigures, error) {
	var out storageFigures
	budgeted := newReplayer(rels, resolver, dbruntime.NewManager(dbruntime.Config{Budget: fw.budget, MemoryBudget: clients * storageGrant}), storageGrant, cfg.spillDir)
	free := newReplayer(rels, resolver, dbruntime.NewManager(dbruntime.Config{Budget: fw.budget}), 0, cfg.spillDir)
	defer budgeted.mgr.Close()
	defer free.mgr.Close()
	relBytes := footprints(rels)
	var withSpill, without, spilled, passes, inBytes, runs float64
	for _, i := range fw.storageStmts {
		s := specs[i]
		a := len(s.args) - 1 // the largest argument set holds the most state
		var tb, tf []float64
		for i := 0; i < storageReps; i++ {
			for _, side := range []*replayer{budgeted, free} {
				q := qid.Add(1)
				root := tr.begin(q, -1, rootSpan)
				rec, err := side.run(ctx, tr, q, root, s.sql, s.materialize, s.args[a])
				tr.end(root)
				if err != nil {
					return out, fmt.Errorf("storage probe %s: %w", s.name, err)
				}
				if err := check("storage probe "+s.name, rec.digest, s.want[a]); err != nil {
					return out, err
				}
				if side == free {
					tf = append(tf, ms(rec.execute))
					continue
				}
				tb = append(tb, ms(rec.execute))
				spilled += float64(rec.spilled)
				passes += float64(rec.passes)
				runs++
				for _, r := range s.reads {
					inBytes += float64(relBytes[r])
				}
			}
		}
		withSpill += median(tb)
		without += median(tf)
	}
	hits, misses, _ := budgeted.pool.Snapshot()
	out.metrics = map[string]float64{
		"storage.spill_bytes_per_input_byte": ratio(spilled, inBytes),
		"storage.spill_passes_per_query":     ratio(passes, runs),
		"storage.pool_hit_ratio":             ratio(float64(hits), float64(hits+misses)),
		"storage.spill_slowdown":             ratio(withSpill, without),
	}
	out.bases = map[string]any{
		"grantBytes": storageGrant, "budgetedRuns": runs, "spilledBytes": spilled, "inputBytes": inBytes,
		"poolHits": hits, "poolMisses": misses, "budgetedMs": withSpill, "unbudgetedMs": without,
	}
	return out, nil
}

// footprints is each relation's in-memory size as the spill accountant
// prices it.
func footprints(rels core.DB) map[string]int64 {
	out := make(map[string]int64, len(rels))
	for name, p := range rels {
		for _, frag := range p.Fragments {
			for _, t := range frag {
				out[name] += storage.TupleFootprint(t)
			}
		}
	}
	return out
}
