package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dbruntime "dbs3/internal/runtime"
)

// chunkRows is how many rows a result stream batches per message. Small
// enough that the first chunk leaves while a big query is still producing,
// large enough that encoding overhead amortizes.
const chunkRows = 64

// writeBuffer sizes the bufio.Writer that coalesces result frames: a wide
// streamed result pays one Write to the connection per buffer fill, not one
// per chunk.
const writeBuffer = 32 << 10

// streamFlushInterval bounds how stale buffered rows may get on a slowly
// producing query: a chunk emitted at least this long after the last flush
// forces the buffer (and the HTTP flusher) out, so coalescing never turns a
// trickle of rows into a stalled client.
const streamFlushInterval = 100 * time.Millisecond

// ErrUpstream marks an error that blames a remote node the backend called
// (the cluster tier's NodeError and ShardError match it with errors.Is);
// the front end answers 502.
var ErrUpstream = errors.New("server: upstream node failed")

// Backend is what the protocol front end serves: a local database (New) or
// a cluster coordinator. The handler owns everything protocol-shaped —
// routes, auth, body and argument decoding, the priority header, wire
// negotiation, result streaming and error statuses — and a backend only
// executes. opt already carries the X-DBS3-Priority header folded in.
type Backend interface {
	Query(ctx context.Context, sql string, args []any, opt *Options) (Result, error)
	Prepare(ctx context.Context, sql string, opt *Options) (*PrepareResponse, error)
	Exec(ctx context.Context, id string, args []any, opt *Options) (Result, error)
	Stmt(id string) (*PrepareResponse, error)
	CloseStmt(ctx context.Context, id string) error
	// Stats returns the JSON body of GET /stats.
	Stats(ctx context.Context) any
}

// Result is one executing statement's row cursor, in the shape of
// RowStream: the header is known before the first Next, Footer only after a
// complete iteration.
type Result interface {
	Header() *Header
	Next() bool
	Row() []any
	Err() error
	Footer() *Footer
	Close() error
}

// Handler is the HTTP protocol front end over a Backend:
//
//	POST /query, POST /prepare, GET|DELETE /stmt/{id},
//	POST /stmt/{id}/exec, GET /stats, GET /healthz
//
// With a token, every request — /healthz included, so an unauthenticated
// prober learns nothing — must carry it as a bearer credential.
type Handler struct {
	backend Backend
	token   string
	mux     *http.ServeMux
	// bytesWritten and rowsStreamed are lifetime result-stream counters
	// (bytes on the wire after encoding, rows across all streams): together
	// they put a number on what an encoding costs per row.
	bytesWritten atomic.Int64
	rowsStreamed atomic.Int64
}

// NewHandler builds the front end over b; an empty token disables auth.
func NewHandler(b Backend, token string) *Handler {
	h := &Handler{backend: b, token: token, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /query", h.handleQuery)
	h.mux.HandleFunc("POST /prepare", h.handlePrepare)
	h.mux.HandleFunc("GET /stmt/{id}", h.handleStmtInfo)
	h.mux.HandleFunc("POST /stmt/{id}/exec", h.handleExec)
	h.mux.HandleFunc("DELETE /stmt/{id}", h.handleStmtClose)
	h.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, h.backend.Stats(r.Context()))
	})
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !authorized(r, h.token) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="dbs3"`)
		http.Error(w, "server: missing or wrong bearer token", http.StatusUnauthorized)
		return
	}
	h.mux.ServeHTTP(w, r)
}

// authorized reports whether r carries the bearer token (an empty token
// disables auth). Comparison is constant-time so the check does not leak
// prefix lengths.
func authorized(r *http.Request, token string) bool {
	if token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const scheme = "Bearer "
	if len(auth) < len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(scheme):]), []byte(token)) == 1
}

// errorStatus maps a backend error to an HTTP status. An upstream node's own
// HTTP rejection keeps its code; an upstream that could not be reached is a
// bad gateway; a missing statement is 404, a full registry 429; a full
// admission queue is load shedding and a closed manager shutdown (both
// 503). Everything else — parse and bind errors, bad options, argument
// counts — is the client's statement (400).
func errorStatus(err error) int {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, ErrUpstream):
		return http.StatusBadGateway
	case errors.Is(err, ErrNoStatement):
		return http.StatusNotFound
	case errors.Is(err, ErrTooManyStatements):
		return http.StatusTooManyRequests
	case errors.Is(err, dbruntime.ErrQueueFull), errors.Is(err, dbruntime.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// decodeBody parses a JSON request body with UseNumber so integer arguments
// survive undamaged.
func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// decodeQuery decodes the body shared by /query and /prepare.
func decodeQuery(r *http.Request) (*QueryRequest, error) {
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.SQL) == "" {
		return nil, errors.New("server: empty sql")
	}
	return &req, nil
}

// streamParams validates what /query and /exec share: the placeholder
// arguments and the response encoding. It also folds the per-connection
// X-DBS3-Priority header into the options; the body's own priority wins.
func streamParams(r *http.Request, rawArgs []any, wire *Options) (args []any, contentType string, opt *Options, err error) {
	if args, err = decodeArgs(rawArgs); err != nil {
		return nil, "", nil, err
	}
	if contentType, err = negotiateWire(r, wire); err != nil {
		return nil, "", nil, err
	}
	return args, contentType, requestOptions(r, wire), nil
}

// requestOptions folds the X-DBS3-Priority header into the request's wire
// options (the body's own priority overrides the header).
func requestOptions(r *http.Request, wire *Options) *Options {
	p := r.Header.Get("X-DBS3-Priority")
	if p == "" || (wire != nil && wire.Priority != "") {
		return wire
	}
	var o Options
	if wire != nil {
		o = *wire
	}
	o.Priority = p
	return &o
}

// negotiateWire picks the result-stream encoding for one request: the wire
// Options field wins, then the Accept header, then the NDJSON default. The
// returned string is the Content-Type to declare. An unknown wire name is
// the client's error.
func negotiateWire(r *http.Request, wire *Options) (string, error) {
	if wire != nil && wire.Wire != "" {
		switch wire.Wire {
		case "ndjson":
			return contentTypeNDJSON, nil
		case "columnar":
			return ContentTypeColumnar, nil
		default:
			return "", fmt.Errorf("server: unknown wire encoding %q (want ndjson or columnar)", wire.Wire)
		}
	}
	if strings.Contains(r.Header.Get("Accept"), ContentTypeColumnar) {
		return ContentTypeColumnar, nil
	}
	return contentTypeNDJSON, nil
}

// handleQuery runs one ad-hoc statement and streams its result.
func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	args, contentType, opt, err := streamParams(r, req.Args, req.Options)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := h.backend.Query(r.Context(), req.SQL, args, opt)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	h.stream(w, res, contentType)
}

// handlePrepare compiles a statement and registers it under an id for
// compile-once / execute-many clients.
func (h *Handler) handlePrepare(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pr, err := h.backend.Prepare(r.Context(), req.SQL, requestOptions(r, req.Options))
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, pr)
}

// handleStmtInfo returns a prepared statement's metadata.
func (h *Handler) handleStmtInfo(w http.ResponseWriter, r *http.Request) {
	pr, err := h.backend.Stmt(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, pr)
}

// handleExec executes a prepared statement with per-execution arguments;
// the request's options and priority header override the statement's
// prepare-time options for this execution only.
func (h *Handler) handleExec(w http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if err := decodeBody(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	args, contentType, opt, err := streamParams(r, req.Args, req.Options)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := h.backend.Exec(r.Context(), r.PathValue("id"), args, opt)
	if err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	h.stream(w, res, contentType)
}

// handleStmtClose discards a prepared statement.
func (h *Handler) handleStmtClose(w http.ResponseWriter, r *http.Request) {
	if err := h.backend.CloseStmt(r.Context(), r.PathValue("id")); err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// countingWriter counts the encoded bytes a stream puts on the wire (it sits
// under the bufio.Writer, so it sees coalesced writes, not per-frame ones)
// and feeds the handler's lifetime counter as they happen — a stats poll
// during a long stream sees its progress, not zero.
type countingWriter struct {
	w     io.Writer
	total *atomic.Int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.total.Add(int64(n))
	return n, err
}

// stream writes res onto the response in the negotiated encoding
// (contentType: NDJSON or binary columnar; see colwire.go) and closes it.
// The backend executes under the request's context, so a client that
// disconnects mid-stream cancels the query and its threads return to the
// shared budget. A failure after the header travels in-band as an error
// message; the missing done message tells a half-read client the stream is
// truncated, not complete.
func (h *Handler) stream(w http.ResponseWriter, res Result, contentType string) {
	defer res.Close()
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not re-buffer the stream

	// Frames coalesce in a sized bufio.Writer: a wide streamed result pays
	// one connection Write per buffer fill instead of one per chunk.
	// Streaming latency stays bounded: the header, the first row chunk and
	// the terminal message flush immediately, and a background ticker
	// flushes anything buffered at least every streamFlushInterval — so a
	// slowly producing query can never strand rows in the buffer while it
	// blocks for the next chunk. wmu serializes the handler's writes with
	// the ticker's flushes (neither bufio.Writer nor http.ResponseWriter is
	// concurrency-safe).
	head := res.Header()
	bw := bufio.NewWriterSize(&countingWriter{w: w, total: &h.bytesWritten}, writeBuffer)
	enc := NewStreamEncoder(bw, contentType, head.Types)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	dirty := false // buffered bytes not yet flushed; guarded by wmu
	flushLocked := func() {
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
		dirty = false
	}
	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		ticker := time.NewTicker(streamFlushInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				wmu.Lock()
				if dirty {
					flushLocked()
				}
				wmu.Unlock()
			case <-stopFlush:
				return
			}
		}
	}()
	defer func() {
		close(stopFlush)
		<-flushDone
		// Final drain for the error-return paths; success paths flushed.
		wmu.Lock()
		flushLocked()
		wmu.Unlock()
	}()
	// write runs one encoder call under the write mutex; flush forces its
	// bytes (and anything buffered) out. Without flush the bytes leave when
	// the buffer fills or the ticker fires.
	write := func(fn func() error, flush bool) error {
		wmu.Lock()
		defer wmu.Unlock()
		err := fn()
		if flush {
			flushLocked()
		} else {
			dirty = true
		}
		return err
	}

	if err := write(func() error { return enc.Header(head) }, true); err != nil {
		return
	}
	firstChunk := true
	chunk := make([][]any, 0, chunkRows)
	emit := func() bool {
		if len(chunk) == 0 {
			return true
		}
		// Counted before the write, so a client that has read the
		// terminal message already sees its rows on /stats.
		h.rowsStreamed.Add(int64(len(chunk)))
		err := write(func() error { return enc.Rows(chunk) }, firstChunk)
		firstChunk = false
		chunk = chunk[:0]
		return err == nil
	}
	for res.Next() {
		chunk = append(chunk, res.Row())
		if len(chunk) >= chunkRows && !emit() {
			return
		}
	}
	if err := res.Err(); err != nil {
		write(func() error { return enc.Fail(err.Error()) }, true)
		return
	}
	if !emit() {
		return
	}
	foot := res.Footer()
	write(func() error { return enc.Done(foot) }, true)
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
