package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"dbs3/internal/esql"
	"dbs3/internal/server"
)

// The attempt policy is the coordinator's one reaction to a replica fault.
// Every client request (Query, Exec, Prepare) mints one budget, and every
// coordinator→worker request made on its behalf draws one attempt from it:
// each subquery open, each failover re-open, each open of a whole-scatter
// re-run. A lazy re-prepare after a worker's 404 stays inside its open — the
// statement is gone, the replica did not fail. The budget is a constant rule
// rather than a knob, so the worst case one client request can inflict on
// the cluster is fixed by the cluster's shape alone.
const attemptsPerReplica = 2

// maxBackoff bounds the pause before another pass over a shard whose every
// candidate just faulted. The pause is uniform in [0, maxBackoff) — full
// jitter, so coordinators that lost the same worker do not reconnect in
// lockstep — which is long enough for a restarting worker to bind its
// listener and short enough that a fan-out barely notices it.
const maxBackoff = 100 * time.Millisecond

// errBudgetExhausted is a shard's cause when the request's budget ran out
// before any of the shard's replicas could be tried.
var errBudgetExhausted = errors.New("attempt budget exhausted")

// request is one client request under the attempt policy: the budget, and —
// for scatters — what a whole-scatter re-run needs.
type request struct {
	c    *Coordinator
	ctx  context.Context
	spec *esql.ScatterSpec // nil for Prepare
	open openFn            // nil for Prepare

	left      atomic.Int64
	exhausted atomic.Bool // the policy wanted an attempt the budget no longer had
}

// newRequest mints one client request's budget.
func (c *Coordinator) newRequest(ctx context.Context, spec *esql.ScatterSpec, open openFn) *request {
	q := &request{c: c, ctx: ctx, spec: spec, open: open}
	q.left.Store(c.budget)
	return q
}

// draw takes one attempt from the budget, or reports that none is left.
func (q *request) draw() bool {
	if q.left.Add(-1) < 0 {
		q.exhausted.Store(true)
		return false
	}
	q.c.attempts.Add(1)
	return true
}

// affords reports whether n more attempts remain, marking the request
// exhausted when they do not.
func (q *request) affords(n int) bool {
	if q.left.Load() >= int64(n) {
		return true
	}
	q.exhausted.Store(true)
	return false
}

// fail accounts one client-visible failure and returns err.
func (q *request) fail(err error) error {
	q.c.failures.Add(1)
	if q.exhausted.Load() {
		q.c.budgetExhausted.Add(1)
	}
	return err
}

// backoff pauses before the next pass over a shard, aborted by ctx.
func (c *Coordinator) backoff(ctx context.Context) error {
	d := rand.N(maxBackoff)
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// onShard runs do against one replica of sh under the request's budget,
// making passes over sh.candidates() (placement-preference order). A
// replica fault feeds that replica's breaker and moves on to the next
// candidate; any other error is returned at once, since it would fail the
// same way on every replica. A pass that ends with every candidate faulted
// is followed by one backoff and a fresh pass while budget remains — which
// also rides out a single replica that briefly refuses connections. prior
// holds faults this request already saw on the shard (the stream that just
// died, Prepare's first round): the first pass skips those replicas, and
// they count as tried. faulted reports that some attempt faulted before one
// succeeded. Once the budget is spent the result is a *ShardError whose Err
// is the last replica's *NodeError.
func (q *request) onShard(ctx context.Context, sh *shard, prior []*NodeError, do func(context.Context, *replica) error) (rep *replica, faulted bool, err error) {
	tried := make(map[string]bool, len(sh.replicas))
	var lastErr error = errBudgetExhausted
	skip := make(map[string]bool, len(prior))
	for _, ne := range prior {
		tried[ne.Node], skip[ne.Node] = true, true
		lastErr = ne
	}
	for {
		for _, rep := range sh.candidates() {
			if skip[rep.name] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			if !q.draw() {
				return nil, false, &ShardError{Shard: sh.index, Replicas: len(tried), Err: lastErr}
			}
			err := do(ctx, rep)
			if err == nil {
				rep.brk.success()
				return rep, len(tried) > 0, nil
			}
			ne := &NodeError{Node: rep.name, Err: err}
			if !replicaFault(err) {
				return nil, false, ne
			}
			rep.brk.failure()
			tried[rep.name] = true
			lastErr = ne
		}
		skip = nil
		if !q.affords(1) {
			return nil, false, &ShardError{Shard: sh.index, Replicas: len(tried), Err: lastErr}
		}
		if err := q.c.backoff(ctx); err != nil {
			return nil, false, err
		}
	}
}

// openOnShard establishes a shard's subquery under the policy. failed, when
// non-nil, is the NodeError of a replica whose stream just died; want, when
// non-nil, is the cluster result shape a replacement stream must match.
func (q *request) openOnShard(ctx context.Context, sh *shard, failed *NodeError, want *server.Header) (*subquery, bool, error) {
	var prior []*NodeError
	if failed != nil {
		prior = []*NodeError{failed}
	}
	var st *server.RowStream
	rep, faulted, err := q.onShard(ctx, sh, prior, func(ctx context.Context, rep *replica) (err error) {
		st, err = q.open(ctx, rep)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	if want != nil {
		h := st.Header()
		if !equalStrings(h.Columns, want.Columns) || !equalStrings(h.Types, want.Types) {
			st.Close()
			return nil, false, &NodeError{Node: rep.name,
				Err: fmt.Errorf("failover result shape %v %v disagrees with the cluster header %v %v (diverged catalogs?)",
					h.Columns, h.Types, want.Columns, want.Types)}
		}
	}
	return &subquery{sh: sh, rep: rep, st: st}, faulted, nil
}

// restart is the policy's last step, taken wherever a scatter's failure
// surfaces (run, for the open phase and aggregate merges; Rows.Next, for
// streams): a replica fault that escaped the shard-level passes re-runs the
// whole scatter when nothing reached the consumer and the budget still
// affords one open per shard.
func (q *request) restart(err error, delivered int64) bool {
	if delivered > 0 || !replicaFault(err) || q.ctx.Err() != nil || !q.affords(len(q.c.shards)) {
		return false
	}
	q.c.wholeQueryRetries.Add(1)
	return true
}

// run executes the scatter, re-running it while restart allows; a final
// failure is accounted as client-visible.
func (q *request) run() (*Rows, error) {
	for {
		rows, err := q.c.runScatter(q)
		if err == nil {
			return rows, nil
		}
		if !q.restart(err, 0) {
			return nil, q.fail(err)
		}
	}
}
