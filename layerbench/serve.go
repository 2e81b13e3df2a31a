package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dbs3"
	"dbs3/internal/cluster"
	"dbs3/internal/core"
	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	dbruntime "dbs3/internal/runtime"
	"dbs3/internal/server"
)

// serveStmt is one statement kind of the serve-zipf mix.
type serveStmt struct {
	name string
	// sql has `?` placeholders for a prepared statement; for an ad-hoc
	// statement it is a format taking the literal arguments.
	sql   string
	adhoc bool
	// merged marks a grouped aggregate: each shard returns partial groups
	// the coordinator folds, so shard answers do not add up to the result.
	merged bool
	args   func(*rand.Rand) []int64
}

// text is the statement text sent for args: the literal text of an ad-hoc
// statement, the placeholder text otherwise.
func (s *serveStmt) text(args []int64) string {
	if !s.adhoc {
		return s.sql
	}
	lits := make([]any, len(args))
	for i, a := range args {
		lits[i] = a
	}
	return fmt.Sprintf(s.sql, lits...)
}

// params are the placeholder arguments sent with the statement: none for
// ad-hoc text, whose arguments are literals.
func (s *serveStmt) params(args []int64) []int64 {
	if s.adhoc {
		return nil
	}
	return args
}

// serveMix is the statement mix in Zipf popularity order: the first is the
// most frequent. Most are prepared and run through /exec; the ad-hoc point
// lookup carries its key as literal text, so its distinct texts far
// outnumber the workers' 128-entry plan caches. The two point lookups make
// up two thirds of the mix, so the latency median falls inside their mode
// rather than in the gap between fast and slow statements.
var serveMix = []serveStmt{
	{
		name: "point",
		sql:  "SELECT * FROM wisc WHERE unique2 = ?",
		args: func(r *rand.Rand) []int64 { return []int64{r.Int63n(serveWiscCard)} },
	},
	{
		name:  "adhoc",
		sql:   "SELECT unique1, unique2, stringu1 FROM wisc WHERE unique2 = %d",
		adhoc: true,
		args:  func(r *rand.Rand) []int64 { return []int64{r.Int63n(serveWiscCard)} },
	},
	{
		name: "range",
		sql:  "SELECT unique1, unique2, stringu1 FROM wisc WHERE unique1 >= ? AND unique1 < ?",
		args: func(r *rand.Rand) []int64 {
			lo := r.Int63n(serveWiscCard - serveRangeWidth)
			return []int64{lo, lo + serveRangeWidth}
		},
	},
	{
		name:   "group",
		sql:    "SELECT ten, COUNT(*) FROM wisc WHERE unique1 < ? GROUP BY ten",
		merged: true,
		args:   func(r *rand.Rand) []int64 { return []int64{serveWiscCard/10 + r.Int63n(serveWiscCard*9/10)} },
	},
	{
		name: "join",
		sql:  "SELECT A.id, B.id FROM A JOIN B ON A.k = B.k WHERE B.id < ?",
		args: func(r *rand.Rand) []int64 { return []int64{1 + r.Int63n(100)} },
	},
}

// serveDist is each relation's cluster distribution column: the join pair
// is sharded on its join key so the join stays co-partitioned.
var serveDist = map[string]string{"wisc": "unique2", "A": "k", "B": "k", "Br": "k"}

// serveOracle answers every statement of the mix from the unsharded base
// rows.
type serveOracle struct {
	byU1, byU2 []relation.Tuple
	aByB       map[int64][]int64 // B.id -> ids of the A tuples joining it
}

func newServeOracle(rels core.DB) *serveOracle {
	o := &serveOracle{
		byU1: make([]relation.Tuple, serveWiscCard),
		byU2: make([]relation.Tuple, serveWiscCard),
		aByB: make(map[int64][]int64),
	}
	eachTuple(rels["wisc"], func(t relation.Tuple) {
		o.byU1[t[0].AsInt()] = t
		o.byU2[t[1].AsInt()] = t
	})
	bOf := bIDByKey(rels["B"])
	eachTuple(rels["A"], func(t relation.Tuple) {
		b := bOf[t[0].AsInt()]
		o.aByB[b] = append(o.aByB[b], t[1].AsInt())
	})
	return o
}

var allWiscCols = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

func (o *serveOracle) want(stmt int, args []int64) digest {
	var d digest
	switch serveMix[stmt].name {
	case "point":
		d.addTuple(o.byU2[args[0]], allWiscCols...)
	case "range":
		for u1 := args[0]; u1 < args[1]; u1++ {
			d.addTuple(o.byU1[u1], 0, 1, 13)
		}
	case "adhoc":
		d.addTuple(o.byU2[args[0]], 0, 1, 13)
	case "group":
		counts := make(map[int64]int64)
		for u1 := int64(0); u1 < args[0]; u1++ {
			counts[o.byU1[u1][4].AsInt()]++
		}
		for ten, n := range counts {
			d.addInts(ten, n)
		}
	case "join":
		for b := int64(0); b < args[0]; b++ {
			for _, a := range o.aByB[b] {
				d.addInts(a, b)
			}
		}
	}
	return d
}

// serveBase generates the unsharded relations every worker provisions.
func serveBase(seed int64) (core.DB, lera.MapResolver, error) {
	rels, resolver, err := joinPairBase(serveACard, serveBCard, serveJoinDegree, serveJoinTheta)
	if err != nil {
		return nil, nil, err
	}
	if err := addWisconsin(rels, resolver, "wisc", serveWiscCard, serveWiscDegree, seed); err != nil {
		return nil, nil, err
	}
	return rels, resolver, nil
}

// shardOf restricts rels to one shard exactly as Database.ShardRelation
// does, for replaying a worker's executions.
func shardOf(rels core.DB, resolver lera.MapResolver, shard int) (core.DB, lera.MapResolver, error) {
	outRels, outRes := make(core.DB), make(lera.MapResolver)
	for name, p := range rels {
		h, err := partition.NewHash(p.Schema, []string{serveDist[name]}, serveShards)
		if err != nil {
			return nil, nil, err
		}
		kept := make([][]relation.Tuple, len(p.Fragments))
		for i, frag := range p.Fragments {
			for _, t := range frag {
				if h.FragmentOf(t) == shard {
					kept[i] = append(kept[i], t)
				}
			}
		}
		sp := &partition.Partitioned{Name: p.Name, Schema: p.Schema, Key: p.Key, Fragments: kept, Disk: p.Disk}
		outRels[name] = sp
		ri := resolver[name]
		ri.FragSizes = sp.FragmentSizes()
		outRes[name] = ri
	}
	return outRels, outRes, nil
}

// serveCluster is the in-process cluster: sharded workers behind real TCP
// listeners and a coordinator in front of them.
type serveCluster struct {
	dbs      []*dbs3.Database
	mgrs     []*dbruntime.Manager
	coord    *cluster.Coordinator
	client   *server.Client   // to the coordinator
	workers  []*server.Client // direct to each worker
	stmtIDs  []string         // coordinator statement id per mix entry ("" = ad-hoc)
	servers  []*http.Server
	serving  sync.WaitGroup
	clientTr *http.Transport // the benchmark's connections
	linkTr   *http.Transport // the coordinator's worker links
}

// startCluster boots the workers and the coordinator and prepares the mix:
// everything before the first statement can be issued.
func startCluster(ctx context.Context, seed int64) (*serveCluster, error) {
	sc := &serveCluster{
		clientTr: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		linkTr:   &http.Transport{MaxIdleConnsPerHost: 16},
	}
	ok := false
	defer func() {
		if !ok {
			sc.close()
		}
	}()
	httpc := &http.Client{Transport: sc.clientTr}
	var urls []string
	for i := 0; i < serveShards; i++ {
		db := dbs3.New()
		if err := db.CreateWisconsin("wisc", serveWiscCard, serveWiscDegree, "unique2", seed); err != nil {
			return nil, err
		}
		if err := db.CreateJoinPair("", serveACard, serveBCard, serveJoinDegree, serveJoinTheta); err != nil {
			return nil, err
		}
		for rel, col := range serveDist {
			if err := db.ShardRelation(rel, col, i, serveShards); err != nil {
				return nil, err
			}
		}
		m := db.Manager(dbs3.ManagerConfig{Budget: serveBudget})
		url, err := sc.serve(server.New(db, m, server.Config{}))
		if err != nil {
			return nil, err
		}
		sc.dbs = append(sc.dbs, db)
		sc.mgrs = append(sc.mgrs, m)
		urls = append(urls, url)
		sc.workers = append(sc.workers, &server.Client{Base: url, HTTP: httpc, Columnar: true})
	}
	coord, err := cluster.New(ctx, cluster.Config{Nodes: urls, HTTP: &http.Client{Transport: sc.linkTr}})
	if err != nil {
		return nil, err
	}
	sc.coord = coord
	url, err := sc.serve(sc.coord.Handler())
	if err != nil {
		return nil, err
	}
	sc.client = &server.Client{Base: url, HTTP: httpc, Columnar: true}
	for _, s := range serveMix {
		if s.adhoc {
			sc.stmtIDs = append(sc.stmtIDs, "")
			continue
		}
		p, err := sc.client.Prepare(ctx, s.sql, nil)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", s.name, err)
		}
		sc.stmtIDs = append(sc.stmtIDs, p.ID)
	}
	ok = true
	return sc, nil
}

// serve runs h on a fresh loopback listener and returns its base URL.
func (sc *serveCluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	sc.servers = append(sc.servers, srv)
	sc.serving.Add(1)
	go func() {
		defer sc.serving.Done()
		srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the coordinator and every server, and waits for them.
func (sc *serveCluster) close() {
	if sc.coord != nil {
		sc.coord.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := len(sc.servers) - 1; i >= 0; i-- {
		if err := sc.servers[i].Shutdown(ctx); err != nil {
			sc.servers[i].Close()
		}
	}
	sc.serving.Wait()
	sc.clientTr.CloseIdleConnections()
	sc.linkTr.CloseIdleConnections()
}

// stream is the cursor shape shared by worker and coordinator results.
type stream interface {
	Next() bool
	Row() []any
	Err() error
	Close() error
}

// drain digests a result stream.
func drain(s stream) (digest, error) {
	defer s.Close()
	var d digest
	for s.Next() {
		if err := d.add(s.Row()); err != nil {
			return d, err
		}
	}
	return d, s.Err()
}

// viaCoordinator runs one statement through the coordinator: prepared
// statements through /exec, ad-hoc ones through /query.
func (sc *serveCluster) viaCoordinator(ctx context.Context, stmt int, args []int64) (digest, error) {
	s := &serveMix[stmt]
	var rs *server.RowStream
	var err error
	if s.adhoc {
		rs, err = sc.client.Query(ctx, s.text(args), nil, nil)
	} else {
		rs, err = sc.client.Exec(ctx, sc.stmtIDs[stmt], anyArgs(args), nil)
	}
	if err != nil {
		return digest{}, err
	}
	return drain(rs)
}

// clusterCounters sums the counters the serve-zipf layer metrics are
// deltas of.
type clusterCounters struct {
	cacheHits, cacheMisses int64
	rejected, readmissions int64
	bytes, rows            int64
	failovers, failures    int64
}

func (sc *serveCluster) counters(ctx context.Context) (clusterCounters, error) {
	var c clusterCounters
	for i, db := range sc.dbs {
		h, m := db.PlanCacheStats()
		c.cacheHits += h
		c.cacheMisses += m
		st := sc.mgrs[i].Stats()
		c.rejected += st.Rejected
		c.readmissions += st.Readmissions
		ws, err := sc.workers[i].Stats(ctx)
		if err != nil {
			return c, err
		}
		c.bytes += ws.BytesWritten
		c.rows += ws.RowsStreamed
	}
	cs := sc.coord.Stats()
	c.failovers, c.failures = cs.Failovers, cs.Failures
	return c, nil
}

func runServeZipf(ctx context.Context, cfg runConfig) (*report, error) {
	rels, resolver, err := serveBase(cfg.seed)
	if err != nil {
		return nil, err
	}
	oracle := newServeOracle(rels)
	rep := newReport()

	var sc *serveCluster
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if sc != nil {
			sc.close()
		}
		t0 := time.Now()
		if sc, err = startCluster(ctx, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sc.close()
	rep.metrics["setup_s"] = median(setups)
	rep.details["setup_s"] = setups

	// Warm-up: every statement once, untimed, checked.
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := range serveMix {
		args := serveMix[i].args(rng)
		got, err := sc.viaCoordinator(ctx, i, args)
		if err == nil {
			err = check(serveMix[i].name, got, oracle.want(i, args))
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", serveMix[i].name, err)
		}
	}

	// A traced run splits its time between an untraced and a traced phase,
	// which replay the same schedule.
	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	weights := zipfWeights(len(serveMix), serveMixTheta)
	arrivals := schedule(cfg.seed, serveRates, phase, func(r *rand.Rand) (int, []int64) {
		s := pickWeighted(r, weights)
		return s, serveMix[s].args(r)
	})
	for i := range arrivals {
		arrivals[i].want = oracle.want(arrivals[i].stmt, arrivals[i].args)
	}
	// A phase that cannot drain its backlog within this grace fails instead
	// of running on.
	grace := phase + 30*time.Second

	play := func(tr *tracer, probe func(ctx context.Context, conn int, a arrival) error) *openLoopResult {
		lctx, cancel := context.WithTimeout(ctx, grace)
		defer cancel()
		var qid atomic.Int64
		perConn := make([]int, clients)
		return openLoop(lctx, arrivals, clients, func(ctx context.Context, conn int, a arrival, due time.Time) error {
			q := qid.Add(1)
			root := tr.beginAt(q, -1, rootSpan, due)
			tr.end(tr.beginAt(q, root, "loadgen.wait", due))
			sp := tr.begin(q, root, "cluster.exec")
			got, err := sc.viaCoordinator(ctx, a.stmt, a.args)
			tr.end(sp)
			tr.end(root)
			if err == nil {
				err = check(serveMix[a.stmt].name, got, a.want)
			}
			if err != nil {
				return fmt.Errorf("%s%v: %w", serveMix[a.stmt].name, a.args, err)
			}
			if perConn[conn]++; probe != nil && perConn[conn]%serveProbeEvery == 0 {
				return probe(ctx, conn, a)
			}
			return nil
		})
	}

	heap := startHeapSampler(2 * time.Millisecond)
	cpu := processCPU()
	plain := play(nil, nil)
	failed := countFailed(plain)
	rep.metrics["cpu_ms_per_query"] = ratio(ms(processCPU()-cpu), float64(len(plain.outcomes)-failed))
	rep.metrics["peak_heap_mb"] = heap.Stop()
	rep.attempted += int64(len(plain.outcomes))
	rep.failed += int64(failed)
	rep.err = firstOutcomeErr(plain)
	fig := figures(plain.samples(arrivals), phase, serveWindows)
	rep.metrics["qps"] = fig.qps
	rep.metrics["p50_ms"] = fig.p50
	rep.details["p90_ms"] = fig.p90
	rungs, slo := summarize(arrivals, plain, serveRates, phase, serveLimit)
	rep.details["whole_phase_ms"] = map[string]float64{"p50": fig.p50All, "p90": fig.p90All, "p99": fig.p99All}
	rep.details["windows"] = fig.perWindow
	rep.details["slo_qps"] = slo
	rep.details["ladder"] = rungs
	rep.details["generator"] = generatorLateness(plain)
	if !cfg.trace || rep.failed > 0 {
		return rep, nil
	}
	return rep, servedTrace(ctx, cfg, rep, sc, rels, resolver, plain, play)
}

// zipfWeights are the popularity weights 1/rank^theta, normalized.
func zipfWeights(n int, theta float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), theta)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func pickWeighted(r *rand.Rand, w []float64) int {
	x := r.Float64()
	for i, p := range w {
		if x < p {
			return i
		}
		x -= p
	}
	return len(w) - 1
}

func countFailed(res *openLoopResult) int {
	n := 0
	for _, o := range res.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

func firstOutcomeErr(res *openLoopResult) error {
	for _, o := range res.outcomes {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// serviceRate is completions per connection-busy second: the open loop's
// throughput capacity, which tracing overhead lowers even when the offered
// rate is met.
func serviceRate(res *openLoopResult) float64 {
	var busy time.Duration
	n := 0
	for _, o := range res.outcomes {
		if o.err == nil {
			busy += o.service
			n++
		}
	}
	return ratio(float64(n), busy.Seconds())
}

// generatorLateness reports how late the generator itself ran — the lag of
// arrivals a connection was idle for — next to the queueing of the others.
func generatorLateness(res *openLoopResult) map[string]float64 {
	var idle, queued []float64
	for _, o := range res.outcomes {
		if o.idle {
			idle = append(idle, ms(o.lag))
		} else {
			queued = append(queued, ms(o.lag))
		}
	}
	return map[string]float64{
		"late_p50_ms": quantile(idle, 0.5), "late_p99_ms": quantile(idle, 0.99), "late_max_ms": quantile(idle, 1),
		"queued": float64(len(queued)), "queued_mean_ms": mean(queued),
	}
}

// probeTotals accumulates the attribution probes of a traced serve run.
type probeTotals struct {
	mu                                 sync.Mutex
	n                                  float64
	prepareUs, admitMs, firstMs, drain float64
	threads, util                      float64
	facadeN                            float64
	headerMs, serverOverMs, directN    float64
	clusterOverMs, spread              float64
	recs                               []execRecord
}

// servedTrace replays the open loop with spans and, after every
// serveProbeEvery-th arrival on a connection, an attribution probe: the
// same statement through the coordinator, directly against each worker over
// HTTP, through each worker's in-process facade, and replayed on a copy of
// shard 0. Each entry point's latency minus the next one down is the self
// time of the layer it adds.
func servedTrace(ctx context.Context, cfg runConfig, rep *report, sc *serveCluster, rels core.DB, resolver lera.MapResolver, plain *openLoopResult, play func(*tracer, func(context.Context, int, arrival) error) *openLoopResult) error {
	tr := newTracer()
	shardRels, shardRes, err := shardOf(rels, resolver, 0)
	if err != nil {
		return err
	}
	rmgr := dbruntime.NewManager(dbruntime.Config{Budget: serveBudget})
	defer rmgr.Close()
	rp := newReplayer(shardRels, shardRes, rmgr, 0, "")
	before, err := sc.counters(ctx)
	if err != nil {
		return err
	}
	var pt probeTotals
	var pid atomic.Int64
	pid.Store(1 << 40) // probe query ids never collide with arrival ids
	probe := func(ctx context.Context, _ int, a arrival) error {
		q := pid.Add(1)
		root := tr.begin(q, -1, rootSpan)
		defer tr.end(root)
		return sc.probe(ctx, tr, q, root, rp, a, &pt)
	}
	traced := play(tr, probe)
	failed := countFailed(traced)
	rep.attempted += int64(len(traced.outcomes))
	rep.failed += int64(failed)
	if rep.err == nil {
		rep.err = firstOutcomeErr(traced)
	}
	if failed > 0 {
		return nil
	}
	after, err := sc.counters(ctx)
	if err != nil {
		return err
	}
	texts := make([]stmtSpec, 0, len(serveMix))
	for _, s := range serveMix {
		texts = append(texts, stmtSpec{sql: s.text([]int64{serveWiscCard / 2})})
	}
	var cid atomic.Int64
	cid.Store(1 << 41)
	compileUs := compileProbe(tr, &cid, shardRes, texts)

	peakThreads := 0
	var peakMem int64
	for _, m := range sc.mgrs {
		st := m.Stats()
		peakThreads = max(peakThreads, st.PeakThreads)
		peakMem = max(peakMem, st.PeakMem)
	}
	var acts, sec, imb, imbOps float64
	for _, r := range pt.recs {
		acts += float64(r.activations)
		sec += float64(r.secondary)
		imb += r.imbalance
		imbOps += float64(r.imbalanceOps)
	}
	imbalance := 1.0
	if imbOps > 0 {
		imbalance = imb / imbOps
	}
	lookups := float64(after.cacheHits + after.cacheMisses - before.cacheHits - before.cacheMisses)
	m := rep.metrics
	m["dbs3.prepare_us"] = ratio(pt.prepareUs, pt.facadeN)
	m["dbs3.plan_cache_hit_ratio"] = ratio(float64(after.cacheHits-before.cacheHits), lookups)
	m["dbs3.plan_cache_lookups"] = lookups
	m["dbs3.first_row_ms"] = ratio(pt.firstMs, pt.facadeN)
	m["dbs3.drain_ms"] = ratio(pt.drain, pt.facadeN)
	m["esql.compile_us"] = compileUs
	m["runtime.admit_ms"] = ratio(pt.admitMs, pt.facadeN)
	m["runtime.threads_per_query"] = ratio(pt.threads, pt.facadeN)
	m["runtime.utilization_mean"] = ratio(pt.util, pt.facadeN)
	m["runtime.peak_threads"] = float64(peakThreads)
	m["runtime.rejected"] = float64(after.rejected - before.rejected)
	m["runtime.peak_mem_mb"] = float64(peakMem) / (1 << 20)
	m["runtime.readmissions"] = float64(after.readmissions - before.readmissions)
	m["core.activations_per_query"] = ratio(acts, float64(len(pt.recs)))
	m["core.secondary_pick_ratio"] = ratio(sec, acts)
	m["core.worker_imbalance"] = imbalance
	for _, k := range []string{"storage.spill_bytes_per_input_byte", "storage.spill_passes_per_query", "storage.pool_hit_ratio", "storage.spill_slowdown"} {
		m[k] = 0 // serve-zipf runs without a memory budget and never spills
	}
	m["server.header_ms"] = ratio(pt.headerMs, pt.directN)
	m["server.bytes_per_row"] = ratio(float64(after.bytes-before.bytes), float64(after.rows-before.rows))
	m["server.overhead_ms"] = ratio(pt.serverOverMs, pt.directN)
	m["cluster.overhead_ms"] = ratio(pt.clusterOverMs, pt.n)
	m["cluster.shard_spread"] = ratio(pt.spread, pt.n)
	m["cluster.failovers"] = float64(after.failovers - before.failovers)
	m["cluster.failures"] = float64(after.failures - before.failures)
	setTraceMetrics(rep, tr.reduce(), serviceRate(traced)/serviceRate(plain))
	rep.details["bases"] = map[string]any{
		"arrivals": len(traced.outcomes), "probes": pt.n,
		"facadeProbes": pt.facadeN, "directProbes": pt.directN, "replays": len(pt.recs),
		"activations": acts, "imbalanceOps": imbOps,
		"bytes": after.bytes - before.bytes, "rows": after.rows - before.rows,
		"tracedServiceRate": serviceRate(traced), "untracedServiceRate": serviceRate(plain),
	}
	return writeTrace(cfg, tr, rep)
}

// probe attributes one arrival's statement across the layers; see
// servedTrace. Union results are checked shard by shard: the shards'
// digests must add up to the oracle's answer.
func (sc *serveCluster) probe(ctx context.Context, tr *tracer, q int64, root int, rp *replayer, a arrival, pt *probeTotals) error {
	s := &serveMix[a.stmt]
	want := a.want

	sp := tr.begin(q, root, "cluster.probe")
	t0 := time.Now()
	got, err := sc.viaCoordinator(ctx, a.stmt, a.args)
	coord := time.Since(t0)
	tr.end(sp)
	if err == nil {
		err = check(s.name+" via coordinator", got, want)
	}
	if err != nil {
		return err
	}

	direct := make([]time.Duration, len(sc.workers))
	var headers, serverOver time.Duration
	var sum, shard0 digest
	for i, w := range sc.workers {
		sp := tr.begin(q, root, "server.direct")
		t0 := time.Now()
		rs, err := w.Query(ctx, s.text(a.args), anyArgs(s.params(a.args)), nil)
		headers += time.Since(t0)
		var d digest
		if err == nil {
			d, err = drain(rs)
		}
		direct[i] = time.Since(t0)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s direct to shard %d: %w", s.name, i, err)
		}
		sum.Rows += d.Rows
		sum.Sum += d.Sum

		fd, fr, err := facadeProbe(ctx, tr, q, root, sc.dbs[i], s, a.args, pt)
		if err != nil {
			return fmt.Errorf("%s facade on shard %d: %w", s.name, i, err)
		}
		if fr != d {
			return fmt.Errorf("%s on shard %d: facade %v, wire %v", s.name, i, fr, d)
		}
		if i == 0 {
			shard0 = d
		}
		serverOver += direct[i] - fd
	}
	if !s.merged {
		if err := check(s.name+" summed over shards", sum, want); err != nil {
			return err
		}
	}

	rec, err := rp.run(ctx, tr, q, root, s.text(a.args), false, s.params(a.args))
	if err != nil {
		return fmt.Errorf("%s replay: %w", s.name, err)
	}
	if rec.digest != shard0 {
		return fmt.Errorf("%s replay on shard 0: %v, worker %v", s.name, rec.digest, shard0)
	}

	var slowest, total time.Duration
	for _, d := range direct {
		slowest = max(slowest, d)
		total += d
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.n++
	pt.directN += float64(len(direct))
	pt.headerMs += ms(headers)
	pt.serverOverMs += ms(serverOver)
	pt.clusterOverMs += ms(coord - slowest)
	pt.spread += ratio(float64(slowest), float64(total)/float64(len(direct)))
	pt.recs = append(pt.recs, rec)
	return nil
}

// facadeProbe runs the statement through one worker's in-process facade:
// Prepare (a plan-cache hit for a warm statement), Stmt.QueryContext (which
// returns once admitted) and the drain.
func facadeProbe(ctx context.Context, tr *tracer, q int64, root int, db *dbs3.Database, s *serveStmt, args []int64, pt *probeTotals) (time.Duration, digest, error) {
	var d digest
	fq := tr.begin(q, root, "dbs3.query")
	defer tr.end(fq)
	t0 := time.Now()
	sp := tr.begin(q, fq, "dbs3.prepare")
	st, err := db.Prepare(s.text(args), nil)
	prepare := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return 0, d, err
	}
	sp = tr.begin(q, fq, "runtime.admit")
	t1 := time.Now()
	rows, err := st.QueryContext(ctx, anyArgs(s.params(args))...)
	admit := time.Since(t1)
	tr.end(sp)
	if err != nil {
		return 0, d, err
	}
	defer rows.Close()
	row := make([]any, len(rows.Columns()))
	dest := make([]any, len(row))
	for i := range row {
		dest[i] = &row[i]
	}
	t2 := time.Now()
	var first time.Duration
	for rows.Next() {
		if d.Rows == 0 {
			first = time.Since(t2)
		}
		if err := rows.Scan(dest...); err != nil {
			return 0, d, err
		}
		if err := d.add(row); err != nil {
			return 0, d, err
		}
	}
	if err := rows.Err(); err != nil {
		return 0, d, err
	}
	total := time.Since(t0)
	if d.Rows == 0 {
		first = time.Since(t2)
	}
	pt.mu.Lock()
	pt.facadeN++
	pt.prepareUs += us(prepare)
	pt.admitMs += ms(admit)
	pt.firstMs += ms(admit + first)
	pt.drain += ms(time.Since(t2) - first)
	pt.threads += float64(rows.Threads())
	pt.util += rows.Utilization()
	pt.mu.Unlock()
	return total, d, nil
}

// addWisconsin generates the relation CreateWisconsin provisions, hash
// partitioned on unique2, into rels and resolver.
func addWisconsin(rels core.DB, resolver lera.MapResolver, name string, card, degree int, seed int64) error {
	r := relation.Wisconsin(name, card, seed)
	h, err := partition.NewHash(r.Schema, []string{"unique2"}, degree)
	if err != nil {
		return err
	}
	p, err := partition.Partition(r, h, 1)
	if err != nil {
		return err
	}
	rels[name] = p
	resolver[name] = lera.RelInfo{Schema: p.Schema, Degree: p.Degree(), FragSizes: p.FragmentSizes(), Part: h}
	return nil
}
