package main

import "time"

// The workload shapes. They are fixed here, never derived from the machine,
// so a parent commit and a change see identical load; every report prints
// them in its env stamp.

// clients is the closed-loop client count and the open loop's connection
// cap: the benchmark's own load never needs more than 2 cores.
const clients = 2

// setupReps is how often each run repeats its set-up; setup_s is the median.
const setupReps = 5

// closedWindows and serveWindows split a measured phase into windows whose
// median figures a run reports (see figures): a closed-loop window must
// hold enough of the run's couple of hundred queries for a median, an
// open-loop window of a few seconds holds hundreds of arrivals.
const (
	closedWindows = 5
	serveWindows  = 10
)

// skewjoin: the paper's join pair with placement skew theta = 1 (§5.4).
const (
	skewACard  = 200_000
	skewBCard  = 40_000
	skewDegree = 40
	skewTheta  = 1.0
	// skewBudget is the manager's thread budget, one per core: at 8
	// threads on 2 cores qps swung by 10% between runs of one process.
	skewBudget = 2
)

// skewArgs are the B.id bounds; with 1000 B tuples per fragment, the bound
// selects whole B fragments, the largest A fragment first.
var skewArgs = [][]int64{{1000}, {5000}, {20000}, {40000}}

// serve-zipf: an in-process coordinator over sharded workers.
const (
	serveShards     = 2
	serveBudget     = 2 // thread budget per worker
	serveWiscCard   = 20_000
	serveWiscDegree = 8
	serveACard      = 20_000
	serveBCard      = 4_000
	serveJoinDegree = 8
	serveJoinTheta  = 0.5
	// serveMixTheta is the Zipf skew of statement popularity.
	serveMixTheta = 1.0
	// serveRangeWidth is the width of the range selection, in rows.
	serveRangeWidth = 300
	// serveLimit is the p99 latency limit of the SLO ladder.
	serveLimit = 100 * time.Millisecond
	// serveProbeEvery: in the traced run, every this-many-th arrival on a
	// connection is followed by an attribution probe.
	serveProbeEvery = 8
)

// serveRates is the arrival-rate ladder, in statements per second, which
// every measurement window climbs (see schedule).
var serveRates = []float64{50, 100, 150}

func shapeOf(workload string) map[string]any {
	switch workload {
	case "skewjoin":
		return map[string]any{
			"clients": clients, "budget": skewBudget, "a": skewACard, "b": skewBCard,
			"degree": skewDegree, "theta": skewTheta, "args": skewArgs, "setupReps": setupReps,
			"storageGrant": storageGrant, "storageReps": storageReps, "windows": closedWindows,
		}
	case "serve-zipf":
		return map[string]any{
			"connections": clients, "shards": serveShards, "budget": serveBudget,
			"wisc": serveWiscCard, "a": serveACard, "b": serveBCard, "degree": serveJoinDegree,
			"mixTheta": serveMixTheta, "rates": serveRates, "limitMs": ms(serveLimit),
			"probeEvery": serveProbeEvery, "setupReps": setupReps, "windows": serveWindows,
		}
	}
	return nil
}
