package cluster

import (
	"context"
	"fmt"
	"net/http"

	"dbs3/internal/server"
)

// Handler returns the coordinator's HTTP front end: the serve nodes' own
// protocol handler over the coordinator, so any client (server.Client
// included) points at a coordinator exactly as it would at one node —
// same routes, auth, encodings and statuses — and gets scatter-gather
// transparently.
func (c *Coordinator) Handler() http.Handler {
	return server.NewHandler(backend{c}, c.token)
}

// backend adapts the Coordinator to server.Backend.
type backend struct{ c *Coordinator }

func (b backend) Query(ctx context.Context, sql string, args []any, opt *server.Options) (server.Result, error) {
	rows, err := b.c.Query(ctx, sql, args, opt)
	if err != nil {
		return nil, err
	}
	return result{rows}, nil
}

func (b backend) Prepare(ctx context.Context, sql string, opt *server.Options) (*server.PrepareResponse, error) {
	return b.c.Prepare(ctx, sql, opt)
}

func (b backend) Exec(ctx context.Context, id string, args []any, opt *server.Options) (server.Result, error) {
	rows, err := b.c.Exec(ctx, id, args, opt)
	if err != nil {
		return nil, err
	}
	return result{rows}, nil
}

func (b backend) Stmt(id string) (*server.PrepareResponse, error) {
	if pr, ok := b.c.Stmt(id); ok {
		return pr, nil
	}
	return nil, fmt.Errorf("%w %q", server.ErrNoStatement, id)
}

func (b backend) CloseStmt(ctx context.Context, id string) error { return b.c.CloseStmt(ctx, id) }

// Stats refreshes the node snapshots and returns the cluster view.
func (b backend) Stats(ctx context.Context) any {
	b.c.Poll(ctx)
	return b.c.Stats()
}

// result adapts a scatter-gather cursor to server.Result: the wire footer
// carries the cluster row count and thread total.
type result struct{ *Rows }

func (r result) Footer() *server.Footer {
	f := r.Rows.Footer()
	return &server.Footer{RowCount: f.RowCount, Threads: f.Threads}
}
