package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// defaultMaxStatements caps a prepared-statement registry: beyond it
// /prepare answers 429, so a client that leaks statements cannot grow a
// node's memory without bound.
const defaultMaxStatements = 1024

// defaultStmtTTL is the idle lifetime of a prepared statement when
// Config.StmtTTL is zero: long enough for any interactive pause, short
// enough that abandoned clients cannot pin the capped registry forever.
const defaultStmtTTL = 15 * time.Minute

var (
	// ErrNoStatement reports an unknown, closed or expired prepared-statement
	// id; the front end answers 404.
	ErrNoStatement = errors.New("server: no prepared statement")
	// ErrTooManyStatements reports a registry at its cap; the front end
	// answers 429.
	ErrTooManyStatements = errors.New("server: too many prepared statements")
)

// Registry is the idle-TTL, capped prepared-statement table behind /prepare
// and /stmt/{id}. Both backends — a local database and the cluster
// coordinator — keep their statements in one, so expiry, the cap and the
// error a missing id produces are the same on every node.
//
// A statement neither executed nor inspected for the TTL is expired: its id
// behaves exactly as if it was never prepared, and it counts in Expired.
// Add sweeps expired entries before it checks the cap, so abandoned
// statements never lock a live client out.
type Registry[T any] struct {
	prefix string
	ttl    time.Duration // <= 0: never expire
	max    int
	now    func() time.Time // the clock; a test seam

	mu      sync.Mutex
	entries map[string]*regEntry[T]
	next    int64
	expired int64
}

type regEntry[T any] struct {
	v        T
	lastUsed time.Time
}

// NewRegistry returns an empty registry issuing ids prefix1, prefix2, ….
// ttl follows Config.StmtTTL (0 = 15 minutes, negative = never expire);
// max <= 0 caps at 1024 statements; a nil now reads the wall clock.
func NewRegistry[T any](prefix string, ttl time.Duration, max int, now func() time.Time) *Registry[T] {
	if ttl == 0 {
		ttl = defaultStmtTTL
	}
	if max <= 0 {
		max = defaultMaxStatements
	}
	if now == nil {
		now = time.Now
	}
	return &Registry[T]{prefix: prefix, ttl: ttl, max: max, now: now, entries: make(map[string]*regEntry[T])}
}

// Add registers v under a fresh id. The sweep, the cap check and the insert
// happen under one lock, so concurrent adds can never overshoot the cap.
func (r *Registry[T]) Add(v T) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.sweepLocked(now)
	if len(r.entries) >= r.max {
		return "", fmt.Errorf("%w: %d open; close some", ErrTooManyStatements, r.max)
	}
	r.next++
	id := r.prefix + strconv.FormatInt(r.next, 10)
	r.entries[id] = &regEntry[T]{v: v, lastUsed: now}
	return id, nil
}

// Get resolves id and touches its idle clock. Expiry is enforced here too,
// not only at sweep points: an id past its TTL is removed and reported
// missing.
func (r *Registry[T]) Get(id string) (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	e, ok := r.entries[id]
	if ok && r.expiredLocked(e, now) {
		delete(r.entries, id)
		r.expired++
		ok = false
	}
	if !ok {
		var zero T
		return zero, fmt.Errorf("%w %q", ErrNoStatement, id)
	}
	e.lastUsed = now
	return e.v, nil
}

// Remove deletes id and returns what it held.
func (r *Registry[T]) Remove(id string) (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		var zero T
		return zero, fmt.Errorf("%w %q", ErrNoStatement, id)
	}
	delete(r.entries, id)
	return e.v, nil
}

// Counts sweeps expired entries and returns the open count and the
// lifetime expiry count.
func (r *Registry[T]) Counts() (open int, expired int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.now())
	return len(r.entries), r.expired
}

func (r *Registry[T]) expiredLocked(e *regEntry[T], now time.Time) bool {
	return r.ttl > 0 && now.Sub(e.lastUsed) > r.ttl
}

// sweepLocked removes every entry idle beyond the TTL: O(open entries),
// bounded by the cap.
func (r *Registry[T]) sweepLocked(now time.Time) {
	if r.ttl <= 0 {
		return
	}
	for id, e := range r.entries {
		if r.expiredLocked(e, now) {
			delete(r.entries, id)
			r.expired++
		}
	}
}
