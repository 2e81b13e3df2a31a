package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// stmtSpec is one statement of a workload's mix with its fixed argument
// sets and, per argument set, the answer the oracle expects.
type stmtSpec struct {
	name        string
	sql         string
	materialize bool     // compile with the facade's Options.Materialize
	reads       []string // base relations the statement scans
	args        [][]int64
	want        []digest
}

// job is one execution of a closed loop: a statement and an argument set.
type job struct{ stmt, arg int }

// jobCycle is one client's seeded order over every (statement, argument)
// pair. Each client walks its cycle round and round, so every run executes
// the same mix in proportion and the seed only reorders it.
func jobCycle(specs []stmtSpec, seed int64, client int) []job {
	var jobs []job
	for s, spec := range specs {
		for a := range spec.args {
			jobs = append(jobs, job{s, a})
		}
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	samples   []sample // one per completed job
	attempted int64
	failed    int64
	firstErr  error
}

// runClosed drives clients goroutines, each issuing its next job as soon as
// the previous one completes, until d has passed; jobs in flight at the
// deadline finish and count in the window they started in. do runs one
// job; an error marks it failed.
func runClosed(ctx context.Context, d time.Duration, clients int, specs []stmtSpec, seed int64, do func(ctx context.Context, client int, j job) error) *closedResult {
	res := &closedResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cycle := jobCycle(specs, seed, c)
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				j := cycle[i%len(cycle)]
				t0 := time.Now()
				err := do(ctx, c, j)
				smp := sample{at: t0.Sub(start), latency: time.Since(t0)}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.samples = append(res.samples, smp)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res
}
