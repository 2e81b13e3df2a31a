package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled statement of the open loop.
type arrival struct {
	due  time.Duration // offset from the start of the schedule
	rung int           // index into the rate ladder
	stmt int
	args []int64
	want digest // the oracle's answer, computed before the phase starts
}

// schedule draws a seeded Poisson arrival stream over d. The stream is
// split into serveWindows windows, and each window climbs the whole
// rate ladder, one equal step per rate, with exponential gaps at that
// step's rate; every window thus offers the same load shape. pick draws
// each arrival's statement and arguments.
func schedule(seed int64, rates []float64, d time.Duration, pick func(*rand.Rand) (int, []int64)) []arrival {
	rng := rand.New(rand.NewSource(seed))
	step := d / serveWindows / time.Duration(len(rates))
	var out []arrival
	for w := 0; w < serveWindows; w++ {
		for r, rate := range rates {
			start := time.Duration(w*len(rates)+r) * step
			for t := 0.0; ; {
				t += rng.ExpFloat64() / rate
				due := start + time.Duration(t*float64(time.Second))
				if due >= start+step {
					break
				}
				stmt, args := pick(rng)
				out = append(out, arrival{due: due, rung: r, stmt: stmt, args: args})
			}
		}
	}
	return out
}

// outcome is what happened to one arrival.
type outcome struct {
	latency time.Duration // from the due time to completion
	lag     time.Duration // from the due time to the send
	service time.Duration // from the send to completion
	// idle is true when a connection sat waiting for the due time, so lag
	// is the generator's own lateness rather than queueing.
	idle bool
	err  error
}

// openLoopResult is one open-loop phase.
type openLoopResult struct {
	outcomes []outcome
}

// samples lists the completed arrivals, each at its due time.
func (r *openLoopResult) samples(arrivals []arrival) []sample {
	var out []sample
	for i, o := range r.outcomes {
		if o.err == nil {
			out = append(out, sample{at: arrivals[i].due, latency: o.latency})
		}
	}
	return out
}

// openLoop plays the schedule over conns connections. Arrivals queue in due
// order: a connection takes the oldest unsent arrival as soon as it is free
// and sleeps only if that arrival is not yet due. Nothing is dropped; a
// stall shows as latency on every arrival queued behind it, because each is
// timed from its due time. do runs one arrival on connection conn.
func openLoop(ctx context.Context, arrivals []arrival, conns int, do func(ctx context.Context, conn int, a arrival, due time.Time) error) *openLoopResult {
	res := &openLoopResult{outcomes: make([]outcome, len(arrivals))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				due := start.Add(a.due)
				o := &res.outcomes[i]
				if wait := time.Until(due); wait > 0 {
					o.idle = true
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
					}
				}
				sent := time.Now()
				o.err = ctx.Err()
				if o.err == nil {
					o.err = do(ctx, c, a, due)
				}
				done := time.Now()
				o.latency, o.lag, o.service = done.Sub(due), sent.Sub(due), done.Sub(sent)
			}
		}(c)
	}
	wg.Wait()
	return res
}

// ladderRung summarizes one rate of the ladder.
type ladderRung struct {
	Rate      float64 `json:"rate"`
	Arrivals  int     `json:"arrivals"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	TailLagMs float64 `json:"tail_lag_ms"` // mean lag over the last quarter of the rate's steps
	OK        bool    `json:"ok"`
}

// summarize splits the outcomes of a phase of length d by rate and finds
// the highest rate whose p99 meets limit with no growing backlog (the last
// quarter of its steps did not queue longer than the limit), counting up
// from the lowest rate.
func summarize(arrivals []arrival, res *openLoopResult, rates []float64, d, limit time.Duration) (rungs []ladderRung, sloQps float64) {
	step := d / serveWindows / time.Duration(len(rates))
	lats := make([][]float64, len(rates))
	tails := make([][]float64, len(rates))
	failed := make([]bool, len(rates))
	for i, a := range arrivals {
		o := res.outcomes[i]
		if o.err != nil {
			failed[a.rung] = true
			continue
		}
		lats[a.rung] = append(lats[a.rung], ms(o.latency))
		if a.due%step >= step*3/4 {
			tails[a.rung] = append(tails[a.rung], ms(o.lag))
		}
	}
	stillOK := true
	for r, rate := range rates {
		rung := ladderRung{Rate: rate, Arrivals: len(lats[r]), P50Ms: quantile(lats[r], 0.5), P99Ms: quantile(lats[r], 0.99), TailLagMs: mean(tails[r])}
		rung.OK = !failed[r] && rung.P99Ms <= ms(limit) && rung.TailLagMs <= ms(limit)
		stillOK = stillOK && rung.OK
		if stillOK {
			sloQps = rate
		}
		rungs = append(rungs, rung)
	}
	return rungs, sloQps
}
