package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbs3/internal/server"
)

// lockedClock is a fake clock safe to read from handler goroutines while
// the test advances it.
type lockedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *lockedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *lockedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// serveFrontEnd serves the coordinator's HTTP front end and returns its URL.
func serveFrontEnd(t *testing.T, coord *Coordinator) string {
	t.Helper()
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	t.Cleanup(func() { front.Client().CloseIdleConnections() })
	return front.URL
}

// call sends one raw request and returns the status and body.
func call(t *testing.T, method, url, body, token string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	httpc := &http.Client{}
	defer httpc.CloseIdleConnections()
	resp, err := httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestCoordinatorStatementTTL: a coordinator statement idle past the TTL is
// gone — its exec answers 404, exactly like a serve node's — and the expiry
// shows on the coordinator's /stats.
func TestCoordinatorStatementTTL(t *testing.T) {
	tc := newTestCluster(t, "")
	clk := &lockedClock{t: time.Unix(1_000_000, 0)}
	tc.coord.stmts = server.NewRegistry[*coordStmt]("c", time.Minute, 0, clk.now)
	front := serveFrontEnd(t, tc.coord)
	client := &server.Client{Base: front}
	ctx := context.Background()

	pr, err := client.Prepare(ctx, "SELECT ten, COUNT(*) FROM wisc GROUP BY ten", nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)
	code, body := call(t, http.MethodPost, front+"/stmt/"+pr.ID+"/exec", `{}`, "")
	if code != http.StatusNotFound {
		t.Fatalf("exec of an expired coordinator statement = %d %q, want 404", code, body)
	}
	code, body = call(t, http.MethodGet, front+"/stats", "", "")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d %q", code, body)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Statements != 0 || st.StatementsExpired != 1 {
		t.Errorf("statements=%d expired=%d, want 0/1", st.Statements, st.StatementsExpired)
	}
}

// TestCoordinatorPrepareCap: concurrent prepares against a small cap never
// overshoot it — the cap check and the insert are one atomic step — and an
// HTTP prepare at the cap is shed with 429, as on a serve node.
func TestCoordinatorPrepareCap(t *testing.T) {
	const maxStmts, callers = 4, 64
	tc := newTestCluster(t, "")
	tc.coord.stmts = server.NewRegistry[*coordStmt]("c", 0, maxStmts, nil)
	ctx := context.Background()

	var ok, full atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tc.coord.Prepare(ctx, "SELECT unique1 FROM wisc WHERE unique2 < ?", nil)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, server.ErrTooManyStatements):
				full.Add(1)
			default:
				t.Errorf("prepare: %v", err)
			}
			if n := tc.coord.Stats().Statements; n > maxStmts {
				t.Errorf("registry holds %d statements, cap %d", n, maxStmts)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != maxStmts || full.Load() != callers-maxStmts {
		t.Errorf("prepares: %d accepted, %d shed; want %d/%d", ok.Load(), full.Load(), maxStmts, callers-maxStmts)
	}
	if n := tc.coord.Stats().Statements; n != maxStmts {
		t.Errorf("open statements = %d, want %d", n, maxStmts)
	}
	code, body := call(t, http.MethodPost, serveFrontEnd(t, tc.coord)+"/prepare", `{"sql":"SELECT ten FROM wisc"}`, "")
	if code != http.StatusTooManyRequests {
		t.Errorf("HTTP prepare at the cap = %d %q, want 429", code, body)
	}
}

// TestFrontEndParity sends the same bad requests to a serve node and to a
// coordinator: both front ends are one handler, so status and error text
// must match exactly.
func TestFrontEndParity(t *testing.T) {
	const token = "parity-secret"
	tc := newTestCluster(t, token)
	fronts := map[string]string{"worker": tc.urls[0], "coordinator": serveFrontEnd(t, tc.coord)}
	cases := []struct {
		name, method, path, body string
		noToken                  bool
		want                     int
	}{
		{name: "empty sql", method: http.MethodPost, path: "/query", body: `{"sql":"  "}`, want: http.StatusBadRequest},
		{name: "non-integer argument", method: http.MethodPost, path: "/query",
			body: `{"sql":"SELECT unique1 FROM wisc WHERE unique2 < ?","args":[1.5]}`, want: http.StatusBadRequest},
		{name: "unknown wire", method: http.MethodPost, path: "/query",
			body: `{"sql":"SELECT unique1 FROM wisc","options":{"wire":"csv"}}`, want: http.StatusBadRequest},
		{name: "unknown statement", method: http.MethodPost, path: "/stmt/nope/exec", body: `{}`, want: http.StatusNotFound},
		{name: "missing token", method: http.MethodPost, path: "/query",
			body: `{"sql":"SELECT unique1 FROM wisc"}`, noToken: true, want: http.StatusUnauthorized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tok := token
			if tc.noToken {
				tok = ""
			}
			codes := map[string]int{}
			bodies := map[string]string{}
			for who, base := range fronts {
				codes[who], bodies[who] = call(t, tc.method, base+tc.path, tc.body, tok)
			}
			if codes["worker"] != tc.want || codes["coordinator"] != tc.want {
				t.Errorf("status worker=%d coordinator=%d, want %d", codes["worker"], codes["coordinator"], tc.want)
			}
			if bodies["worker"] != bodies["coordinator"] {
				t.Errorf("error text differs: worker %q, coordinator %q", bodies["worker"], bodies["coordinator"])
			}
		})
	}
}
