package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one completed operation: when it started (in the open loop,
// when it was due), relative to the start of its phase, and its latency.
type sample struct {
	at, latency time.Duration
}

// phaseFigures are the end-to-end figures of one measured phase of length
// d split into equal windows: throughput over the phase, p50 and p90
// latency (ms) as medians over the windows, and for comparison the p50, p90
// and p99 over the whole phase. The shared machine has slow spells of
// several seconds; the median over windows is what keeps one spell from
// moving a run's figures.
type phaseFigures struct {
	qps, p50, p90          float64
	p50All, p90All, p99All float64
	perWindow              [][2]float64 // each window's p50, p90
}

func figures(samples []sample, d time.Duration, windows int) phaseFigures {
	w := d / time.Duration(windows)
	per := make([][]float64, windows)
	all := make([]float64, 0, len(samples))
	var last time.Duration
	for _, s := range samples {
		i := min(int(s.at/w), windows-1)
		per[i] = append(per[i], ms(s.latency))
		all = append(all, ms(s.latency))
		last = max(last, s.at+s.latency)
	}
	f := phaseFigures{
		qps:    ratio(float64(len(samples)), last.Seconds()),
		p50All: quantile(all, 0.5), p90All: quantile(all, 0.9), p99All: quantile(all, 0.99),
	}
	var p50, p90 []float64
	for _, l := range per {
		p50 = append(p50, quantile(l, 0.5))
		p90 = append(p90, quantile(l, 0.9))
		f.perWindow = append(f.perWindow, [2]float64{p50[len(p50)-1], p90[len(p90)-1]})
	}
	f.p50, f.p90 = median(p50), median(p90)
	return f
}

// ratio is a/b, 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the CPU time the process has used, user plus system. On a
// shared machine it is the steadiest cost figure: time the host lends to
// other guests (steal) stretches wall-clock latency but is not charged here.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the Go heap while a measured phase runs and keeps the
// high-water mark of its live part — the bytes the last garbage collection
// found reachable. The live heap is what the program holds; the total heap
// adds garbage awaiting collection and swings with GC timing from run to
// run. runtime/metrics reads do not stop the world, so the sampler barely
// perturbs the run.
type heapSampler struct {
	peak   uint64 // written by the poller only, read after done
	sample []metrics.Sample
	stop   chan struct{}
	done   chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

// startHeapSampler collects garbage left over from set-up, so the peak
// reflects the measured phase, and starts polling every interval.
func startHeapSampler(interval time.Duration) *heapSampler {
	runtime.GC()
	h := &heapSampler{
		sample: []metrics.Sample{{Name: heapMetric}},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			h.read()
			select {
			case <-h.stop:
				h.read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	metrics.Read(h.sample)
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

// Stop ends sampling, waits for the poller to exit and returns the peak
// live heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
