package server

import (
	"context"
	"time"

	"dbs3"
	dbruntime "dbs3/internal/runtime"
)

// Config tunes a Server.
type Config struct {
	// DefaultOptions seeds every request's execution options; request
	// bodies and the X-DBS3-Priority header override per field.
	DefaultOptions dbs3.Options
	// StmtTTL is the idle lifetime of a server-side prepared statement:
	// one that is neither executed nor inspected for this long is expired
	// and its id returns 404, so abandoned clients cannot hold the capped
	// registry at its limit (0 = 15 minutes; negative disables expiry).
	// Expired statements count on /stats as statementsExpired.
	StmtTTL time.Duration
	// AuthToken, when non-empty, locks every endpoint behind bearer-token
	// auth: requests must carry "Authorization: Bearer <token>" or they are
	// rejected with 401 before any handler runs. Serve nodes joined into a
	// cluster set it so coordinator→worker links are not open to the
	// network.
	AuthToken string
}

// Server is the HTTP front end over a Database and its QueryManager: the
// protocol Handler over a local backend. Wire it to a listener with
// http.Server or httptest.
type Server struct {
	*Handler
	db      *dbs3.Database
	manager *dbruntime.Manager
	opts    dbs3.Options
	stmts   *Registry[*stmtEntry]
}

// stmtEntry is one server-side prepared statement: the compiled handle plus
// the options it was prepared with, kept as the baseline for per-execution
// overrides (an exec with different options re-resolves through the plan
// cache, so the compile work is still amortized). info lacks the id, which
// the registry assigns.
type stmtEntry struct {
	stmt *dbs3.Stmt
	opt  dbs3.Options
	info PrepareResponse
}

// New builds a Server over db. The manager must be the one installed on db
// (Database.Manager's return value); it feeds /stats and is how the serve
// front end shares one thread budget across all clients.
func New(db *dbs3.Database, manager *dbruntime.Manager, cfg Config) *Server {
	if manager == nil {
		panic("server: nil manager (install one with Database.Manager)")
	}
	s := &Server{
		db:      db,
		manager: manager,
		opts:    cfg.DefaultOptions,
		stmts:   NewRegistry[*stmtEntry]("s", cfg.StmtTTL, 0, nil),
	}
	s.Handler = NewHandler(local{s}, cfg.AuthToken)
	return s
}

// local is the Backend over the server's own database.
type local struct{ s *Server }

// overlayOptions applies per-request wire options on top of a baseline.
func overlayOptions(base dbs3.Options, wire *Options) dbs3.Options {
	opt := base
	if wire == nil {
		return opt
	}
	if wire.Threads != 0 {
		opt.Threads = wire.Threads
	}
	if wire.Strategy != "" {
		opt.Strategy = wire.Strategy
	}
	if wire.JoinAlgo != "" {
		opt.JoinAlgo = wire.JoinAlgo
	}
	if wire.Grain != 0 {
		opt.Grain = wire.Grain
	}
	if wire.Priority != "" {
		opt.Priority = wire.Priority
	}
	if wire.StreamBuffer != 0 {
		opt.StreamBuffer = wire.StreamBuffer
	}
	if wire.BatchGrain != 0 {
		opt.BatchGrain = wire.BatchGrain
	}
	if wire.Materialize {
		opt.Materialize = true
	}
	if wire.Utilization != 0 {
		opt.Utilization = wire.Utilization
	}
	if wire.MemoryBudget != 0 {
		opt.MemoryBudget = wire.MemoryBudget
	}
	return opt
}

// Query runs one ad-hoc statement. The plan cache makes repeated SQL cheap;
// `?` placeholders bind from args.
func (l local) Query(ctx context.Context, sql string, args []any, wire *Options) (Result, error) {
	opt := overlayOptions(l.s.opts, wire)
	stmt, err := l.s.db.Prepare(sql, &opt)
	if err != nil {
		return nil, err
	}
	return run(ctx, stmt, args)
}

// Prepare compiles a statement and registers it.
func (l local) Prepare(_ context.Context, sql string, wire *Options) (*PrepareResponse, error) {
	opt := overlayOptions(l.s.opts, wire)
	stmt, err := l.s.db.Prepare(sql, &opt)
	if err != nil {
		return nil, err
	}
	e := &stmtEntry{stmt: stmt, opt: opt, info: PrepareResponse{
		SQL:     sql,
		Columns: stmt.Columns(),
		Types:   stmt.ColumnTypes(),
		Params:  stmt.NumParams(),
	}}
	id, err := l.s.stmts.Add(e)
	if err != nil {
		return nil, err
	}
	info := e.info
	info.ID = id
	return &info, nil
}

// Stmt returns a prepared statement's metadata.
func (l local) Stmt(id string) (*PrepareResponse, error) {
	e, err := l.s.stmts.Get(id)
	if err != nil {
		return nil, err
	}
	info := e.info
	info.ID = id
	return &info, nil
}

// Exec executes a prepared statement. The statement's prepare-time options
// are the baseline; wire options override per execution, re-resolving the
// statement through the plan cache (a hit unless the join algorithm
// changed, which genuinely needs a different plan).
func (l local) Exec(ctx context.Context, id string, args []any, wire *Options) (Result, error) {
	e, err := l.s.stmts.Get(id)
	if err != nil {
		return nil, err
	}
	stmt := e.stmt
	if opt := overlayOptions(e.opt, wire); opt != e.opt {
		if stmt, err = l.s.db.Prepare(e.info.SQL, &opt); err != nil {
			return nil, err
		}
	}
	return run(ctx, stmt, args)
}

// CloseStmt discards a prepared statement.
func (l local) CloseStmt(_ context.Context, id string) error {
	e, err := l.s.stmts.Remove(id)
	if err != nil {
		return err
	}
	e.stmt.Close()
	return nil
}

// Stats snapshots the manager, plan-cache and stream counters.
func (l local) Stats(context.Context) any {
	s := l.s
	st := s.manager.Stats()
	hits, misses := s.db.PlanCacheStats()
	poolHits, poolMisses, poolResident := s.db.BufferPoolStats()
	open, expired := s.stmts.Counts()
	return StatsResponse{
		Budget:                s.manager.Budget(),
		ActiveThreads:         st.ThreadsInFlight,
		PeakThreads:           st.PeakThreads,
		Active:                st.Active,
		Queued:                st.Queued,
		Admitted:              st.Admitted,
		Completed:             st.Completed,
		Failed:                st.Failed,
		Cancelled:             st.Cancelled,
		Rejected:              st.Rejected,
		Readmissions:          st.Readmissions,
		ThreadsReturnedEarly:  st.ThreadsReturnedEarly,
		ThreadsGrownMidFlight: st.ThreadsGrownMidFlight,
		SmoothedUtilization:   st.SmoothedUtilization,
		MemBudget:             st.MemBudget,
		MemInFlight:           st.MemInFlight,
		PeakMem:               st.PeakMem,
		SpilledBytes:          st.SpilledBytes,
		SpillPasses:           st.SpillPasses,
		BufferPoolHits:        poolHits,
		BufferPoolMisses:      poolMisses,
		BufferPoolResident:    poolResident,
		PlanCacheHits:         hits,
		PlanCacheMisses:       misses,
		Statements:            open,
		StatementsExpired:     expired,
		BytesWritten:          s.bytesWritten.Load(),
		RowsStreamed:          s.rowsStreamed.Load(),
		Relations:             s.db.Relations(),
	}
}

// run executes stmt under ctx — the request's context, so a client that
// disconnects mid-stream cancels the query, the engine unwinds, and
// Admission.Finish returns its threads to the shared budget.
func run(ctx context.Context, stmt *dbs3.Stmt, args []any) (Result, error) {
	rows, err := stmt.QueryContext(ctx, args...)
	if err != nil {
		return nil, err
	}
	return &localRows{rows: rows, width: len(rows.Columns())}, nil
}

// localRows adapts a facade row cursor to Result.
type localRows struct {
	rows  *dbs3.Rows
	width int
	cur   []any
	count int64
	err   error // a Scan failure, which ends the stream
}

func (r *localRows) Header() *Header {
	return &Header{
		Columns:     r.rows.Columns(),
		Types:       r.rows.ColumnTypes(),
		Threads:     r.rows.Threads(),
		Utilization: r.rows.Utilization(),
	}
}

func (r *localRows) Next() bool {
	if r.err != nil || !r.rows.Next() {
		return false
	}
	row := make([]any, r.width)
	ptrs := make([]any, r.width)
	for i := range row {
		ptrs[i] = &row[i]
	}
	if r.err = r.rows.Scan(ptrs...); r.err != nil {
		return false
	}
	r.cur = row
	r.count++
	return true
}

func (r *localRows) Row() []any { return r.cur }

func (r *localRows) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.rows.Err()
}

func (r *localRows) Footer() *Footer {
	f := &Footer{RowCount: r.count, Threads: r.rows.Threads(), ChainThreads: r.rows.ChainThreads(), Operators: r.rows.Operators()}
	f.SpilledBytes, f.SpillPasses = r.rows.SpillStats()
	return f
}

func (r *localRows) Close() error { return r.rows.Close() }
