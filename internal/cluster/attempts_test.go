package cluster

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbs3"
	"dbs3/internal/server"
)

// refusingAddr returns a loopback address with no listener: every dial to
// it is refused.
func refusingAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// recordSleeps installs a backoff seam that records each drawn pause and
// returns at once, after running each (when non-nil) — tests use it to act
// during the pause.
func recordSleeps(c *Coordinator, each func(n int)) *[]time.Duration {
	var mu sync.Mutex
	var sleeps []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		sleeps = append(sleeps, d)
		n := len(sleeps)
		mu.Unlock()
		if each != nil {
			each(n)
		}
		return ctx.Err()
	}
	return &sleeps
}

// TestBudgetBoundsPingPongReplicas: one shard, two replicas that each send
// a header and then abort. Every re-open succeeds (the header arrives), so
// only the attempt budget stops the failover ping-pong: 2 attempts per
// replica is exactly 4 worker requests, and the request fails with the
// last replica's fault, not with the caller's deadline.
func TestBudgetBoundsPingPongReplicas(t *testing.T) {
	var hits atomic.Int64
	dying := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Type", ndjsonWire)
			enc := server.NewStreamEncoder(w, ndjsonWire, []string{"INT"})
			enc.Header(&server.Header{Columns: []string{"unique1"}, Types: []string{"INT"}, Threads: 1})
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { ts.Client().CloseIdleConnections() })
		return ts
	}
	a, b := dying(), dying()
	coord := newFailoverCoord(t, Config{Nodes: []string{a.URL + "|" + b.URL}, Wire: "ndjson"})
	recordSleeps(coord, nil)

	// The deadline only guards against an unbounded policy; the budget must
	// end the request long before it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rows, err := coord.Query(ctx, "SELECT unique1 FROM wisc", nil, nil)
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if n := hits.Load(); n != 4 {
		t.Errorf("one query made %d worker requests, want exactly 4 (2 per replica)", n)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T), want a *ShardError", err, err)
	}
	var ne *NodeError
	if !errors.As(se.Err, &ne) || (ne.Node != a.URL && ne.Node != b.URL) {
		t.Errorf("shard error cause %v, want a NodeError naming a replica", se.Err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("request ended on the caller's deadline: %v", err)
	}
	st := coord.Stats()
	if st.Attempts != 4 || st.BudgetExhausted != 1 || st.Failures != 1 {
		t.Errorf("stats attempts=%d budgetExhausted=%d failures=%d, want 4/1/1", st.Attempts, st.BudgetExhausted, st.Failures)
	}
}

// TestBudgetBoundsRefusingShard: three shards of two replicas, shard 1
// refusing every connection. Its passes share the request's budget of 12
// with the healthy shards' opens, so the query dials at most 12 times and
// fails naming shard 1.
func TestBudgetBoundsRefusingShard(t *testing.T) {
	var dials atomic.Int64
	var d net.Dialer
	hc := &http.Client{Transport: &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	dead := []string{"http://" + refusingAddr(t), "http://" + refusingAddr(t)}
	coord := newFailoverCoord(t, Config{
		Nodes: []string{
			newWorkerURL(t, 0, true) + "|" + newWorkerURL(t, 0, true),
			dead[0] + "|" + dead[1],
			newWorkerURL(t, 2, true) + "|" + newWorkerURL(t, 2, true),
		},
		HTTP: hc,
	})
	// Hold the first pause until the healthy shards drew their opens, so
	// the order in which the shards reach the budget is fixed.
	sleeps := recordSleeps(coord, func(n int) {
		for deadline := time.Now().Add(5 * time.Second); n == 1 && coord.attempts.Load() < 4 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	})

	_, err := coord.Query(context.Background(), "SELECT unique1 FROM wisc WHERE unique2 < 10", nil, nil)
	if n := dials.Load(); n > 12 {
		t.Errorf("one query dialed %d times, want at most 12", n)
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 || se.Replicas != 2 {
		t.Fatalf("error %v, want a ShardError for shard 1 after both replicas", err)
	}
	var ne *NodeError
	if !errors.As(se.Err, &ne) || (ne.Node != dead[0] && ne.Node != dead[1]) {
		t.Errorf("shard error cause %v, want a NodeError naming a shard 1 replica", se.Err)
	}
	st := coord.Stats()
	if st.Attempts != 12 || st.BudgetExhausted != 1 || st.Failures != 1 {
		t.Errorf("stats attempts=%d budgetExhausted=%d failures=%d, want 12/1/1", st.Attempts, st.BudgetExhausted, st.Failures)
	}
	// Shard 1 made 5 passes of 2 dials with a pause between each.
	if len(*sleeps) != 4 {
		t.Errorf("paused %d times, want 4", len(*sleeps))
	}
}

// TestBudgetRidesOutLateBindingWorker: a single-replica worker that binds
// its listener only during the coordinator's first pause. Pass 1 is
// refused, pass 2 finds it up, and the client never sees the refusal — for
// an ad-hoc query and for a prepare alike.
func TestBudgetRidesOutLateBindingWorker(t *testing.T) {
	const sql = "SELECT unique1 FROM wisc WHERE unique2 < 10"
	for _, tc := range []struct {
		name string
		// attempts: the prepare's two, plus one for its exec, which is a
		// request of its own.
		attempts int64
		run      func(c *Coordinator) (*Rows, error)
	}{
		{"query", 2, func(c *Coordinator) (*Rows, error) {
			return c.Query(context.Background(), sql, nil, nil)
		}},
		{"prepare", 3, func(c *Coordinator) (*Rows, error) {
			pr, err := c.Prepare(context.Background(), sql, nil)
			if err != nil {
				return nil, err
			}
			return c.Exec(context.Background(), pr.ID, nil, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := refusingAddr(t)
			db := dbs3.New()
			populate(t, db)
			srv := &http.Server{Handler: server.New(db, db.Manager(dbs3.ManagerConfig{Budget: testBudget}), server.Config{})}
			t.Cleanup(func() { srv.Close() })
			coord := newFailoverCoord(t, Config{Nodes: []string{"http://" + addr}})
			sleeps := recordSleeps(coord, func(n int) {
				if n != 1 {
					return
				}
				l, err := net.Listen("tcp", addr)
				if err != nil {
					t.Errorf("rebinding %s: %v", addr, err)
					return
				}
				go srv.Serve(l)
			})

			rows, err := tc.run(coord)
			if err != nil {
				t.Fatalf("%s against a late-binding worker: %v", tc.name, err)
			}
			if got, _ := drain(t, rows); len(got) != 10 {
				t.Errorf("late-binding worker returned %d rows, want 10", len(got))
			}
			if len(*sleeps) != 1 {
				t.Errorf("paused %d times, want 1", len(*sleeps))
			}
			st := coord.Stats()
			if st.Attempts != tc.attempts || st.Failures != 0 || st.BudgetExhausted != 0 {
				t.Errorf("stats attempts=%d failures=%d budgetExhausted=%d, want %d/0/0",
					st.Attempts, st.Failures, st.BudgetExhausted, tc.attempts)
			}
		})
	}
}

// TestBackoffFullJitter: every pause is a full-jitter draw in
// [0, maxBackoff) — spread out, so coordinators that lost the same worker
// never reconnect in lockstep.
func TestBackoffFullJitter(t *testing.T) {
	coord := newFailoverCoord(t, Config{Nodes: []string{"http://" + refusingAddr(t)}})
	sleeps := recordSleeps(coord, nil)
	const queries = 50
	for i := 0; i < queries; i++ {
		if _, err := coord.Query(context.Background(), "SELECT unique1 FROM wisc", nil, nil); err == nil {
			t.Fatal("query against a refusing worker succeeded")
		}
	}
	// One replica: the open, one pause, the second pass, then the budget is
	// spent.
	if len(*sleeps) != queries {
		t.Fatalf("paused %d times over %d queries, want one each", len(*sleeps), queries)
	}
	distinct := map[time.Duration]bool{}
	for _, d := range *sleeps {
		if d < 0 || d >= maxBackoff {
			t.Errorf("pause %v outside [0, %v)", d, maxBackoff)
		}
		distinct[d] = true
	}
	if len(distinct) < queries/2 {
		t.Errorf("%d pauses took only %d distinct values — no jitter", queries, len(distinct))
	}
}

// TestBackoffEnvelopeIsConstant: successive pauses within one request all
// draw from the same [0, maxBackoff) envelope — it does not grow with the
// pass number, so a request's total stall is bounded by its budget alone.
func TestBackoffEnvelopeIsConstant(t *testing.T) {
	// Three shards of two replicas, shard 1 refusing: the healthy shards
	// draw one attempt each, so shard 1 gets at least 10 of the 12 — five
	// passes of two dials with four pauses between them.
	dead := []string{"http://" + refusingAddr(t), "http://" + refusingAddr(t)}
	coord := newFailoverCoord(t, Config{
		Nodes: []string{
			newWorkerURL(t, 0, true) + "|" + newWorkerURL(t, 0, true),
			dead[0] + "|" + dead[1],
			newWorkerURL(t, 2, true) + "|" + newWorkerURL(t, 2, true),
		},
	})
	for i := 0; i < 10; i++ {
		sleeps := recordSleeps(coord, nil)
		if _, err := coord.Query(context.Background(), "SELECT unique1 FROM wisc WHERE unique2 < 10", nil, nil); err == nil {
			t.Fatal("query with a refusing shard succeeded")
		}
		if len(*sleeps) < 4 {
			t.Fatalf("paused %d times in one request, want at least 4", len(*sleeps))
		}
		for pass, d := range *sleeps {
			if d < 0 || d >= maxBackoff {
				t.Errorf("request %d pause %d = %v, outside the constant envelope [0, %v)", i, pass, d, maxBackoff)
			}
		}
	}
}

// TestBackoffDefaultJitterInEnvelope: without the seam, the real timer
// path pauses inside the envelope — end to end through a query against a
// refusing worker, and directly.
func TestBackoffDefaultJitterInEnvelope(t *testing.T) {
	coord := newFailoverCoord(t, Config{Nodes: []string{"http://" + refusingAddr(t)}})
	start := time.Now()
	if _, err := coord.Query(context.Background(), "SELECT unique1 FROM wisc", nil, nil); err == nil {
		t.Fatal("query against a refusing worker succeeded")
	}
	// One real pause of at most maxBackoff; generous slack for scheduler
	// noise.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("a query with one real pause took %v, envelope is %v", elapsed, maxBackoff)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := coord.backoff(context.Background()); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("real pause took %v, envelope is %v", elapsed, maxBackoff)
		}
	}
}

// TestBackoffCancelAborts: a caller cancelling during the pause ends the
// request at once with the cancellation — no further pass is made.
func TestBackoffCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := newFailoverCoord(t, Config{Nodes: []string{"http://" + refusingAddr(t)}})
	sleeps := recordSleeps(coord, func(int) { cancel() })
	_, err := coord.Query(ctx, "SELECT unique1 FROM wisc", nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-pause, got %v", err)
	}
	if len(*sleeps) != 1 {
		t.Errorf("paused %d times after cancellation, want 1", len(*sleeps))
	}
	if n := coord.attempts.Load(); n != 1 {
		t.Errorf("attempts = %d, want 1 (no pass after the cancel)", n)
	}
	// The real timer path aborts on a dead context too.
	coord.sleep = nil
	if err := coord.backoff(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("real pause on a cancelled context returned %v", err)
	}
}

// TestHeaderTimeoutIsReplicaFault: a replica that accepts but never
// answers trips the worker link's header timeout, and that is a replica
// fault — the request fails over to the sibling and the breaker counts it —
// even though the timeout's error chain ends in context.Canceled.
func TestHeaderTimeoutIsReplicaFault(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() { // hold open until the client hangs up, never respond
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	hole := "http://" + l.Addr().String()
	good := newWorkerURL(t, 0, false)
	coord := newFailoverCoord(t, Config{Nodes: []string{hole + "|" + good}, Timeout: 100 * time.Millisecond})
	prefer(coord.shards[0].replicas[0], coord.shards[0].replicas[1])

	rows, err := coord.Query(context.Background(), "SELECT unique1 FROM wisc WHERE unique2 < 10", nil, nil)
	if err != nil {
		t.Fatalf("query with a wedged preferred replica: %v", err)
	}
	if got, _ := drain(t, rows); len(got) != 10 {
		t.Errorf("failed-over query returned %d rows, want 10", len(got))
	}
	if n := coord.failovers.Load(); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
	coord.shards[0].replicas[0].brk.mu.Lock()
	fails := coord.shards[0].replicas[0].brk.fails
	coord.shards[0].replicas[0].brk.mu.Unlock()
	if fails != 1 {
		t.Errorf("wedged replica's breaker counted %d failures, want 1", fails)
	}
}
