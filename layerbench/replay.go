package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dbs3/internal/core"
	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/relation"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/storage"
)

// replayer executes statements through the same sequence of public calls
// the facade's Stmt.QueryContext makes — plan lookup or esql compile,
// Plan.BindParams, Manager.Admit, core.ExecuteAllocated, Admission.Finish —
// so the traced run can time each layer and read the per-query records
// (admission stats, per-worker activations) the facade keeps private.
type replayer struct {
	rels     core.DB
	resolver lera.MapResolver
	mgr      *dbruntime.Manager
	// memCeiling is the per-query memory ceiling (the facade's
	// Options.MemoryBudget); spillDir receives the spill files.
	memCeiling int64
	spillDir   string
	pool       storage.PoolMetrics

	mu    sync.Mutex
	plans map[string]*lera.Plan // the benchmark's plan cache, keyed like the facade's
}

func newReplayer(rels core.DB, resolver lera.MapResolver, mgr *dbruntime.Manager, memCeiling int64, spillDir string) *replayer {
	return &replayer{rels: rels, resolver: resolver, mgr: mgr, memCeiling: memCeiling, spillDir: spillDir, plans: make(map[string]*lera.Plan)}
}

// execRecord is what one replayed execution reports.
type execRecord struct {
	cacheHit    bool
	prepare     time.Duration // plan lookup including any compile
	admit       time.Duration
	firstRow    time.Duration // from issuing the query (admission included) to the first row
	drain       time.Duration // from the first row to the end of the stream
	execute     time.Duration
	threads     int
	utilization float64
	activations int64
	secondary   int64
	// imbalance sums max/mean per-worker activations over the operations
	// that ran on more than one worker; imbalanceOps counts them.
	imbalance    float64
	imbalanceOps int
	spilled      int64
	passes       int64
	digest       digest
}

// tupleSink hands streamed result tuples to the consumer, converted to the
// cursor's plain-Go row form, with the facade's backpressure semantics.
type tupleSink struct {
	ctx context.Context
	ch  chan<- []any
}

func (s *tupleSink) Push(t relation.Tuple) error {
	select {
	case s.ch <- tupleRow(t):
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

func (s *tupleSink) PushBatch(ts []relation.Tuple) error {
	for _, t := range ts {
		if err := s.Push(t); err != nil {
			return err
		}
	}
	return nil
}

func tupleRow(t relation.Tuple) []any {
	row := make([]any, len(t))
	for i, v := range t {
		if v.Kind() == relation.TInt {
			row[i] = v.AsInt()
		} else {
			row[i] = v.AsString()
		}
	}
	return row
}

// lookup resolves sql through the benchmark's plan cache under a
// dbs3.prepare span, compiling on a miss under an esql.compile span.
func (rp *replayer) lookup(tr *tracer, query int64, parent int, sql string, materialize bool) (plan *lera.Plan, hit bool, compile time.Duration, err error) {
	key := fmt.Sprintf("%s\x00%t", sql, materialize)
	sp := tr.begin(query, parent, "dbs3.prepare")
	defer tr.end(sp)
	rp.mu.Lock()
	plan, hit = rp.plans[key]
	rp.mu.Unlock()
	if hit {
		return plan, true, 0, nil
	}
	// The facade compiles with its default join algorithm, the hash join.
	c := &esql.Compiler{Resolver: rp.resolver, JoinAlgo: lera.HashJoin, Materialize: materialize}
	cs := tr.begin(query, sp, "esql.compile")
	t0 := time.Now()
	plan, _, err = c.Compile(sql)
	compile = time.Since(t0)
	tr.end(cs)
	if err != nil {
		return nil, false, compile, fmt.Errorf("compile %q: %w", sql, err)
	}
	rp.mu.Lock()
	rp.plans[key] = plan
	rp.mu.Unlock()
	return plan, false, compile, nil
}

// streamBuffer matches the facade's default cursor buffer.
const streamBuffer = 64

// run replays one execution of sql (compiled with materialize as the
// facade's Options.Materialize would) with args, recording spans under
// parent, and digests the streamed rows.
func (rp *replayer) run(ctx context.Context, tr *tracer, query int64, parent int, sql string, materialize bool, args []int64) (execRecord, error) {
	var rec execRecord
	start := time.Now()
	plan, hit, _, err := rp.lookup(tr, query, parent, sql, materialize)
	rec.cacheHit, rec.prepare = hit, time.Since(start)
	if err != nil {
		return rec, err
	}

	vals := make([]relation.Value, len(args))
	for i, a := range args {
		vals[i] = relation.Int(a)
	}
	var execPlan *lera.Plan
	tr.do(query, parent, "dbs3.bind", func() { execPlan, err = plan.BindParams(vals) })
	if err != nil {
		return rec, err
	}

	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan []any, streamBuffer)
	copts := core.Options{
		MemoryBudget: rp.memCeiling,
		SpillDir:     rp.spillDir,
		StreamOutput: esql.OutputName,
		Sink:         &tupleSink{ctx: qctx, ch: ch},
	}
	as := tr.begin(query, parent, "runtime.admit")
	issued := time.Now()
	adm, err := rp.mgr.Admit(qctx, execPlan, rp.rels, &copts, dbruntime.PriorityInteractive)
	rec.admit = time.Since(issued)
	tr.end(as)
	if err != nil {
		return rec, err
	}
	var env *storage.SpillEnv
	copts.Readmit = func(chain, want, min int) int {
		grant := rp.mgr.ReadmitAt(adm, chain, want, min)
		if env != nil && adm.MemoryGrant() > 0 {
			env.Mem.SetGrant(adm.MemoryHeld())
		}
		return grant
	}
	if copts.MemoryBudget > 0 {
		env, err = storage.NewSpillEnv(copts.SpillDir, copts.MemoryBudget, storage.PoolPagesFor(copts.MemoryBudget), &rp.pool)
		if err != nil {
			adm.Finish(err)
			return rec, err
		}
		copts.Spill = env
	}

	execStart := time.Now()
	var res *core.Result
	var execErr error
	go func() {
		defer close(ch)
		tr.do(query, parent, "core.execute", func() {
			res, execErr = core.ExecuteAllocated(qctx, execPlan, rp.rels, copts, adm.Alloc())
		})
		rec.execute = time.Since(execStart)
		if env != nil {
			rec.spilled, rec.passes = env.Spilled()
			adm.NoteSpill(rec.spilled, rec.passes)
			env.Close()
		}
		tr.do(query, parent, "runtime.finish", func() { adm.Finish(execErr) })
	}()

	var firstAt time.Time
	var digestErr error
	for row := range ch {
		if firstAt.IsZero() {
			firstAt = time.Now()
		}
		if digestErr == nil {
			digestErr = rec.digest.add(row)
		}
	}
	end := time.Now()
	// The channel closes only after the goroutine's last write.
	if execErr != nil {
		return rec, execErr
	}
	if digestErr != nil {
		return rec, digestErr
	}
	if firstAt.IsZero() {
		firstAt = end
	}
	rec.firstRow = firstAt.Sub(issued)
	rec.drain = end.Sub(firstAt)
	rec.threads = adm.Stats.Threads
	rec.utilization = adm.Stats.Utilization
	for _, st := range res.Stats {
		rec.activations += st.Activations.Load()
		rec.secondary += st.SecondaryPicks.Load()
		if w := st.WorkerActivations(); len(w) > 1 {
			rec.imbalance += st.BalanceRatio()
			rec.imbalanceOps++
		}
	}
	return rec, nil
}
