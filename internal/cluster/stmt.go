package cluster

import (
	"context"
	"fmt"
	"sync"

	"dbs3/internal/esql"
	"dbs3/internal/server"
)

// coordStmt is one coordinator-side prepared statement: the original SQL
// and prepare-time options (kept for re-preparing), the merge shape
// compiled once at prepare time, the result metadata, and each replica's
// server-side statement id. A replica missing from ids (down at prepare
// time, or it expired its half) is re-prepared lazily the first time a
// subquery lands on it.
type coordStmt struct {
	sql  string
	opt  *server.Options
	spec *esql.ScatterSpec
	info server.PrepareResponse // coordinator-facing metadata; the registry holds the id

	mu  sync.Mutex
	ids map[*replica]string
}

// id returns a replica's server-side statement id, if it holds one.
func (s *coordStmt) id(r *replica) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[r]
	return id, ok
}

func (s *coordStmt) setID(r *replica, id string) {
	s.mu.Lock()
	s.ids[r] = id
	s.mu.Unlock()
}

// closeOnReplicas best-effort closes every replica's half of the statement
// (a replica that already expired it answers 404, which is the desired end
// state anyway).
func (s *coordStmt) closeOnReplicas(ctx context.Context) {
	s.mu.Lock()
	ids := make(map[*replica]string, len(s.ids))
	for r, nodeID := range s.ids {
		ids[r] = nodeID
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for r, nodeID := range ids {
		wg.Add(1)
		go func(r *replica, nodeID string) {
			defer wg.Done()
			_ = r.client.CloseStmt(ctx, nodeID)
		}(r, nodeID)
	}
	wg.Wait()
}

// Prepare compiles a statement once cluster-wide: the coordinator derives
// the merge shape, prepares the statement on every replica of every shard
// in parallel, and registers the bundle under one coordinator id.
// Executions then skip both the coordinator-side parse and the workers'
// parse/compile (their plan caches hold the compiled plan against each
// shard). A replica that is down may miss the prepare — tolerated as long
// as one replica per shard holds the statement; the missing half is
// re-prepared lazily if a subquery ever lands on it. A shard left with no
// prepared replica gets further passes under the request's attempt budget.
// A full registry fails with server.ErrTooManyStatements after the
// replicas' halves are closed again.
func (c *Coordinator) Prepare(ctx context.Context, sql string, opt *server.Options) (*server.PrepareResponse, error) {
	spec, err := esql.ScatterPlan(sql)
	if err != nil {
		return nil, err
	}
	stmt := &coordStmt{sql: sql, opt: opt, spec: spec, ids: make(map[*replica]string)}
	q := c.newRequest(ctx, nil, nil)
	var mu sync.Mutex
	var first *server.PrepareResponse
	prepareOn := func(ctx context.Context, r *replica) error {
		pr, err := r.client.Prepare(ctx, sql, c.shardOptions(c.shards[r.shard], opt))
		if err != nil {
			return err
		}
		stmt.setID(r, pr.ID)
		mu.Lock()
		if first == nil {
			first = pr
		}
		mu.Unlock()
		return nil
	}

	// First round: every replica at once, one attempt each.
	faults := make([][]*NodeError, len(c.shards))
	var badErr error
	var wg sync.WaitGroup
	c.replicas(func(r *replica) {
		q.draw() // the budget holds attemptsPerReplica per replica
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			err := prepareOn(ctx, r)
			if err == nil {
				r.brk.success()
				return
			}
			ne := &NodeError{Node: r.name, Err: err}
			mu.Lock()
			defer mu.Unlock()
			if replicaFault(err) {
				r.brk.failure()
				faults[r.shard] = append(faults[r.shard], ne)
			} else if badErr == nil {
				badErr = ne
			}
		}(r)
	})
	wg.Wait()
	fail := func(err error) (*server.PrepareResponse, error) {
		stmt.closeOnReplicas(ctx)
		return nil, q.fail(err)
	}
	// A non-fault failure (the statement itself is bad) fails the prepare
	// outright — every replica would reject it the same way.
	if badErr != nil {
		return fail(badErr)
	}
	// Shards whose every replica faulted get further passes.
	errs := make([]error, len(c.shards))
	for i, sh := range c.shards {
		if len(faults[i]) < len(sh.replicas) {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			_, _, errs[i] = q.onShard(ctx, sh, faults[i], prepareOn)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}

	stmt.info = server.PrepareResponse{
		SQL:     sql,
		Columns: first.Columns,
		Types:   first.Types,
		Params:  spec.Params,
	}
	id, err := c.stmts.Add(stmt)
	if err != nil {
		stmt.closeOnReplicas(ctx)
		return nil, err
	}
	out := stmt.info
	out.ID = id
	return &out, nil
}

// Stmt returns a prepared statement's metadata.
func (c *Coordinator) Stmt(id string) (*server.PrepareResponse, bool) {
	stmt, err := c.stmts.Get(id)
	if err != nil {
		return nil, false
	}
	out := stmt.info
	out.ID = id
	return &out, true
}

// Exec scatter-gathers one execution of a prepared statement. A replica
// whose server-side statement vanished (expired by its idle-TTL sweep, a
// restart, or it was down at prepare time and a failover just landed on
// it) is transparently re-prepared with the prepare-time options and
// retried, inside the same attempt; a second miss fails that attempt, at
// which point the attempt policy tries a sibling.
func (c *Coordinator) Exec(ctx context.Context, id string, args []any, opt *server.Options) (*Rows, error) {
	stmt, err := c.stmts.Get(id)
	if err != nil {
		return nil, err
	}
	if len(args) != stmt.spec.Params {
		return nil, fmt.Errorf("cluster: statement %s has %d parameters, got %d arguments", id, stmt.spec.Params, len(args))
	}
	return c.scatter(ctx, stmt.spec, func(ctx context.Context, rep *replica) (*server.RowStream, error) {
		opts := c.shardOptions(c.shards[rep.shard], opt)
		if nodeID, ok := stmt.id(rep); ok {
			st, err := rep.client.Exec(ctx, nodeID, args, opts)
			if err == nil || !errIsStmtGone(err) {
				return st, err
			}
		}
		// The replica holds no (live) half of the statement; re-prepare it
		// there and retry once.
		pr, perr := rep.client.Prepare(ctx, stmt.sql, c.shardOptions(c.shards[rep.shard], stmt.opt))
		if perr != nil {
			return nil, fmt.Errorf("re-preparing expired statement: %w", perr)
		}
		stmt.setID(rep, pr.ID)
		c.repreparations.Add(1)
		return rep.client.Exec(ctx, pr.ID, args, opts)
	})
}

// CloseStmt discards a coordinator-side prepared statement and best-effort
// closes each replica's half (a replica that already expired it returns
// 404, which is the desired end state anyway).
func (c *Coordinator) CloseStmt(ctx context.Context, id string) error {
	stmt, err := c.stmts.Remove(id)
	if err != nil {
		return err
	}
	stmt.closeOnReplicas(ctx)
	return nil
}
