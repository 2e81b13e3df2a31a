package core

// Batch-at-a-time data plane tests: Queue.PushBatch unit semantics, and the
// equivalence property the whole design rests on — the batch grain changes
// how tuples travel and how long the runs OnBatch sees are, nothing else.
// Every grain is checked against a reference that shares no code with the
// operators (JoinDB.VerifyJoinResult for joins, aggCase.eval for grouped
// aggregates), its per-operator activation/emission accounting (tuples,
// never batches) must equal grain 1's — the paper's per-tuple activation
// protocol — per-worker activation counts must match wherever the
// allocation is deterministic, and cancellation mid-batch must behave the
// same at every grain. The join matrix covers all three algorithms,
// NestedLoop's scalar probe inside OnBatch included.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dbs3/internal/esql"
	"dbs3/internal/lera"
	"dbs3/internal/partition"
	"dbs3/internal/relation"
	"dbs3/internal/workload"
)

// --- Queue.PushBatch unit tests --------------------------------------------

func TestQueuePushBatchFIFOAndReuse(t *testing.T) {
	q := NewQueue(16)
	batch := make([]Activation, 0, 5)
	for i := int64(0); i < 5; i++ {
		batch = append(batch, tupleAct(i))
	}
	q.PushBatch(batch)
	// The queue copied the activations: clobbering the caller's slice must
	// not disturb what was pushed.
	for i := range batch {
		batch[i] = tupleAct(99)
	}
	got := q.popBatch(10, nil)
	if len(got) != 5 {
		t.Fatalf("popped %d, want 5", len(got))
	}
	for i, a := range got {
		if a.Tuple[0].AsInt() != int64(i) {
			t.Fatalf("order/copy violated at %d: %v", i, a.Tuple)
		}
	}
}

func TestQueuePushBatchLargerThanCapacity(t *testing.T) {
	// A batch bigger than the queue must fill, wait for drains, and deliver
	// everything in order — the backpressure protocol at batch granularity.
	q := NewQueue(4)
	const n = 50
	batch := make([]Activation, 0, n)
	for i := int64(0); i < n; i++ {
		batch = append(batch, tupleAct(i))
	}
	done := make(chan struct{})
	go func() {
		q.PushBatch(batch)
		close(done)
	}()
	next := int64(0)
	deadline := time.After(5 * time.Second)
	for next < n {
		for _, a := range q.popBatch(3, nil) {
			if a.Tuple[0].AsInt() != next {
				t.Errorf("out of order: got %v, want %d", a.Tuple, next)
			}
			next++
		}
		select {
		case <-deadline:
			t.Fatalf("drained only %d of %d", next, n)
		default:
		}
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("PushBatch never returned after full drain")
	}
}

func TestQueuePushBatchNotifiesBeforeBlocking(t *testing.T) {
	// The partial fill must wake consumers before the producer blocks for
	// the remainder, or a full queue with sleeping consumers deadlocks.
	q := NewQueue(2)
	woken := make(chan struct{}, 10)
	q.onPush = func() { woken <- struct{}{} }
	batch := []Activation{tupleAct(1), tupleAct(2), tupleAct(3)}
	go q.PushBatch(batch)
	select {
	case <-woken:
	case <-time.After(time.Second):
		t.Fatal("no consumer wake for the delivered part of a blocked batch")
	}
	if got := q.popBatch(10, nil); len(got) != 2 {
		t.Fatalf("delivered part = %d activations, want 2", len(got))
	}
}

func TestQueuePushBatchAbortDrops(t *testing.T) {
	q := NewQueue(2)
	q.Push(tupleAct(1))
	q.Push(tupleAct(2))
	done := make(chan struct{})
	go func() {
		q.PushBatch([]Activation{tupleAct(3), tupleAct(4)})
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Abort()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Abort did not release a blocked PushBatch")
	}
	q.PushBatch([]Activation{tupleAct(5)}) // dropped, must not block or panic
	if q.Len() != 2 {
		t.Errorf("aborted queue grew: len = %d", q.Len())
	}
}

func TestQueuePushBatchClosedPanics(t *testing.T) {
	q := NewQueue(4)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Error("PushBatch to closed queue should panic")
		}
	}()
	q.PushBatch([]Activation{tupleAct(1)})
}

func TestBatchGrainDefaultsAndClamp(t *testing.T) {
	if o := (Options{}).withDefaults(); o.BatchGrain != DefaultBatchGrain {
		t.Errorf("default grain = %d, want %d", o.BatchGrain, DefaultBatchGrain)
	}
	if o := (Options{BatchGrain: -3}).withDefaults(); o.BatchGrain != 1 {
		t.Errorf("negative grain = %d, want 1", o.BatchGrain)
	}
	// The grain is a per-destination buffer capacity reachable from wire
	// options; it must clamp to the queue capacity, not be trusted.
	if o := (Options{BatchGrain: 1 << 30}).withDefaults(); o.BatchGrain != o.QueueCap {
		t.Errorf("huge grain = %d, want clamp to queue cap %d", o.BatchGrain, o.QueueCap)
	}
	if o := (Options{BatchGrain: 1 << 30, QueueCap: 8}).withDefaults(); o.BatchGrain != 8 {
		t.Errorf("grain = %d, want clamp to explicit queue cap 8", o.BatchGrain)
	}
}

// --- Batch-vs-tuple equivalence property -----------------------------------

// grainsUnderTest pits the per-tuple protocol against a deliberately awkward
// grain (forcing partial flushes at trigger boundaries) and the default.
var grainsUnderTest = []int{7, DefaultBatchGrain}

// vectorGrains are the grains the equivalence suites check: grain 1 first
// (runs of one tuple — the paper's per-tuple protocol and the accounting
// reference), an awkward odd grain, and the default.
var vectorGrains = []int{1, 7, DefaultBatchGrain}

// statsSnapshot flattens the per-node counters that must not depend on the
// transport grain.
func statsSnapshot(res *Result) map[int][3]int64 {
	out := make(map[int][3]int64, len(res.Stats))
	for id, st := range res.Stats {
		out[id] = [3]int64{st.Activations.Load(), st.Emitted.Load(), st.Setups.Load()}
	}
	return out
}

func TestBatchGrainEquivalenceJoins(t *testing.T) {
	for _, theta := range []float64{0, 1} { // flat and Zipf-skewed placement
		db, err := workload.NewJoinDB(2000, 200, 8, theta)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []lera.JoinAlgo{lera.NestedLoop, lera.HashJoin, lera.TempIndex} {
			for _, assoc := range []bool{false, true} {
				for _, trigGrain := range []int{0, 3} { // whole-fragment and partial triggers
					name := fmt.Sprintf("theta=%v/algo=%v/assoc=%v/grain=%d", theta, algo, assoc, trigGrain)
					var refStats map[int][3]int64
					for _, bg := range vectorGrains {
						got := executeJoin(t, db, assoc, algo, Options{Threads: 4, TriggerGrain: trigGrain, BatchGrain: bg})
						if err := db.VerifyJoinResult(got.Outputs["Res"]); err != nil {
							t.Errorf("%s: grain %d result wrong: %v", name, bg, err)
						}
						gs := statsSnapshot(got)
						if refStats == nil {
							refStats = gs
						} else if !statsEqual(gs, refStats) {
							t.Errorf("%s: grain %d accounting %v, grain 1 %v — activations must count tuples, not batches",
								name, bg, gs, refStats)
						}
					}
				}
			}
		}
	}
}

func statsEqual(a, b map[int][3]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		if b[id] != v {
			return false
		}
	}
	return true
}

// wisconsinPlan compiles an ESQL statement against a generated Wisconsin
// relation partitioned on the given key — hash-partitioning on a
// low-cardinality column like "four" leaves most fragments empty, the
// placement-skew shape the consumption strategies exist for.
func wisconsinPlan(t *testing.T, sql, partKey string, card, degree int) (*lera.Plan, DB) {
	t.Helper()
	r := relation.Wisconsin("wisc", card, 42)
	h, err := partition.NewHash(r.Schema, []string{partKey}, degree)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Partition(r, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	resolver := lera.MapResolver{"wisc": {Schema: p.Schema, Degree: degree, FragSizes: p.FragmentSizes(), Part: h}}
	c := &esql.Compiler{Resolver: resolver, JoinAlgo: lera.HashJoin}
	plan, _, err := c.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	return plan, DB{"wisc": p}
}

// aggCase is one grouped aggregate over the generated Wisconsin relation,
// expressible both as ESQL (sql) and as a direct evaluation (eval).
type aggCase struct {
	group    string // grouping column
	fn       string // COUNT, SUM or MAX
	col      string // aggregated column; unused by COUNT
	filtered bool   // WHERE unique1 < 3000
}

func (c aggCase) sql() string {
	agg := "COUNT(*)"
	if c.fn != "COUNT" {
		agg = c.fn + "(" + c.col + ")"
	}
	where := ""
	if c.filtered {
		where = " WHERE unique1 < 3000"
	}
	return fmt.Sprintf("SELECT %s, %s FROM wisc%s GROUP BY %s", c.group, agg, where, c.group)
}

// eval computes the case's expected (group, aggregate) rows with plain maps
// straight over relation.Wisconsin("wisc", card, 42) — a reference that
// shares no code with the engine's filter or aggregate operators.
func (c aggCase) eval(card int) *relation.Relation {
	s := relation.WisconsinSchema
	gi, u1 := s.MustIndex(c.group), s.MustIndex("unique1")
	ci := -1
	if c.fn != "COUNT" {
		ci = s.MustIndex(c.col)
	}
	acc := make(map[int64]int64)
	for _, t := range relation.Wisconsin("wisc", card, 42).Tuples {
		if c.filtered && t[u1].AsInt() >= 3000 {
			continue
		}
		g := t[gi].AsInt()
		cur, seen := acc[g]
		switch c.fn {
		case "COUNT":
			acc[g] = cur + 1
		case "SUM":
			acc[g] = cur + t[ci].AsInt()
		case "MAX":
			if v := t[ci].AsInt(); !seen || v > cur {
				acc[g] = v
			}
		}
	}
	out := relation.New("want", nil)
	for g, v := range acc {
		out.Tuples = append(out.Tuples, relation.NewTuple(relation.Int(g), relation.Int(v)))
	}
	return out
}

func TestBatchGrainEquivalenceAggregate(t *testing.T) {
	const card = 4000
	for _, partKey := range []string{"unique2", "four"} { // flat and skewed placement
		for _, c := range []aggCase{
			{group: "ten", fn: "COUNT"},
			{group: "four", fn: "SUM", col: "unique1"},
			{group: "onePercent", fn: "MAX", col: "unique2", filtered: true},
		} {
			sql := c.sql()
			want := c.eval(card)
			if want.Cardinality() == 0 {
				t.Fatalf("sql=%q: empty reference result", sql)
			}
			plan, db := wisconsinPlan(t, sql, partKey, card, 8)
			var refStats map[int][3]int64
			for _, bg := range vectorGrains {
				res, err := Execute(plan, db, Options{Threads: 4, BatchGrain: bg})
				if err != nil {
					t.Fatalf("part=%s sql=%q grain=%d: %v", partKey, sql, bg, err)
				}
				got, err := res.Relation(esql.OutputName)
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualMultiset(want) {
					t.Errorf("part=%s sql=%q: grain %d result differs from the direct evaluation", partKey, sql, bg)
				}
				gs := statsSnapshot(res)
				if refStats == nil {
					refStats = gs
				} else if !statsEqual(gs, refStats) {
					t.Errorf("part=%s sql=%q: grain %d accounting %v, grain 1 %v", partKey, sql, bg, gs, refStats)
				}
			}
		}
	}
}

// TestBatchGrainPerWorkerActivationCounts pins the strongest accounting
// claim: per-worker activation counts (OpStats.WorkerActivations) are
// identical across batch grains wherever they are deterministic — every
// single-worker pool — and their per-node sums are identical everywhere
// (multi-worker pools interleave nondeterministically at any grain). The
// transport batches, the accounting never does.
func TestBatchGrainPerWorkerActivationCounts(t *testing.T) {
	db, err := workload.NewJoinDB(1500, 150, 6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	run := func(bg int) (map[int][]int64, Allocation) {
		res, err := Execute(plan, db.Relations(), Options{Threads: len(plan.Nodes), BatchGrain: bg})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int][]int64)
		for id := range res.Stats {
			out[id] = res.Stats[id].WorkerActivations()
		}
		return out, res.Alloc
	}
	sum := func(ws []int64) int64 {
		var s int64
		for _, w := range ws {
			s += w
		}
		return s
	}
	ref, refAlloc := run(1)
	singleWorkerNodes := 0
	for _, n := range refAlloc.Node {
		if n == 1 {
			singleWorkerNodes++
		}
	}
	if singleWorkerNodes == 0 {
		t.Fatalf("allocation %v has no single-worker pool; the deterministic check needs one", refAlloc.Node)
	}
	for _, bg := range grainsUnderTest {
		got, gotAlloc := run(bg)
		for id, want := range ref {
			g := got[id]
			if len(g) != len(want) {
				t.Fatalf("node %d: worker count %d vs %d", id, len(g), len(want))
			}
			if sum(g) != sum(want) {
				t.Errorf("node %d: grain %d processed %d activations total, grain 1 processed %d",
					id, bg, sum(g), sum(want))
			}
			if refAlloc.Node[id] == 1 && gotAlloc.Node[id] == 1 && g[0] != want[0] {
				t.Errorf("node %d (single worker): grain %d processed %d activations, grain 1 processed %d",
					id, bg, g[0], want[0])
			}
		}
	}
}

// cancelSink cancels the execution's context after n pushed rows — the
// cursor-close shape, landing mid-batch from the engine's point of view.
type cancelSink struct {
	n      atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (s *cancelSink) PushBatch(ts []relation.Tuple) error {
	if s.n.Add(int64(len(ts))) >= s.after {
		s.cancel()
	}
	return nil
}

// TestBatchGrainCancellationMidBatch: cancelling while route buffers are in
// flight behaves exactly like the per-tuple protocol — prompt ctx.Err(), no
// goroutine leaks, blocked producers drained — at every grain.
func TestBatchGrainCancellationMidBatch(t *testing.T) {
	db, err := workload.NewJoinDB(30_000, 3_000, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.AssocJoinPlan(lera.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	for _, bg := range []int{1, 7, DefaultBatchGrain} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelSink{after: 50, cancel: cancel}
		// Tiny queues: producers sit in PushBatch backpressure when the
		// abort lands, proving the batched push drains on Abort.
		_, err := ExecuteContext(ctx, plan, db.Relations(), Options{
			Threads: 4, QueueCap: 2, BatchGrain: bg,
			StreamOutput: "Res", Sink: sink,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("grain %d: err = %v, want context.Canceled", bg, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("grain %d: goroutines leaked: %d before, %d after", bg, before, n)
		}
	}
}
