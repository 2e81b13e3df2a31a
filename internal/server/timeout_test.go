package server

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// deadAddr returns an address with no listener: every dial is refused.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestHeaderTimeoutIsTyped: a header-phase timeout surfaces as
// *TimeoutError — the classification the cluster breaker counts — while a
// plain connect error does not.
func TestHeaderTimeoutIsTyped(t *testing.T) {
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
			defer conn.Close() // hold open, never respond
		}
	}()
	c := &Client{Base: "http://" + l.Addr().String(), Timeout: 50 * time.Millisecond}
	err = c.Health(context.Background())
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("black-hole server produced %T (%v), want *TimeoutError", err, err)
	}
	if te.Limit != 50*time.Millisecond || !te.Timeout() {
		t.Errorf("TimeoutError limit=%v timeout=%v, want 50ms/true", te.Limit, te.Timeout())
	}

	// A refused connection is a connect error, not a timeout.
	dead := &Client{Base: "http://" + deadAddr(t), Timeout: time.Second}
	err = dead.Health(context.Background())
	if err == nil {
		t.Fatal("health against a dead address succeeded")
	}
	if errors.As(err, &te) {
		t.Errorf("connect error classified as TimeoutError: %v", err)
	}
	var se *StatusError
	if errors.As(err, &se) {
		t.Errorf("connect error classified as StatusError: %v", err)
	}
}
