package main

import (
	"math/rand"
	"sort"
	"time"

	"funcx/internal/metrics"
)

// median returns the middle value of vs (mean of the middle two for an
// even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// best returns the best of vs: the largest when higher is better, the
// smallest otherwise. Rounds do identical work, and what disturbs one on
// a shared machine (a neighbour filling the cache, a preempted virtual
// CPU) only ever makes it slower, so the best round is the least
// disturbed one and repeats from run to run, where the median round
// inherits however many of them were disturbed.
func best(vs []float64, higherIsBetter bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	b := vs[0]
	for _, v := range vs[1:] {
		if (v > b) == higherIsBetter {
			b = v
		}
	}
	return b
}

// schedule returns n due-time offsets in [0, span), ascending: a
// Poisson process conditioned on its count, so every seed offers
// exactly n arrivals (the rate is pinned by construction) while the
// gaps between them stay exponential.
func schedule(seed int64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// payloadPool returns poolSize distinct incompressible buffers of size
// bytes each, drawn from seed.
func payloadPool(seed int64, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]byte, poolSize)
	for i := range pool {
		pool[i] = make([]byte, size)
		rng.Read(pool[i])
	}
	return pool
}

// sample is the outcome of one operation: a task, or a whole batch on
// batch256. Every attempted task lands in exactly one sample.
type sample struct {
	done    time.Duration // completion, as an offset from the run start
	latency time.Duration // submit call (closed loop) or due time (open loop) -> verified result
	tasks   int           // tasks the operation attempted
	failed  int           // of those: errored, timed out, or returned wrong bytes
}

// snapshot is the process state at one window boundary.
type snapshot struct {
	at         time.Duration // offset from the run start
	cpu        time.Duration // user+sys
	mallocs    uint64
	allocBytes uint64
	traced     bool // spans were on for the window that starts here
}

// window holds one window's end-to-end numbers.
type window struct {
	samples     int
	tasksPerS   float64
	p50, p90    float64 // ms
	p99         float64 // ms
	met         int     // attempted tasks verified within the limit
	sloMet      float64 // met as a share of the attempted
	cpuUs       float64 // per verified task
	allocs      float64
	allocKB     float64
	traced      bool
	attempted   int
	failedTasks int
}

// windows cuts the samples at the snapshot times and computes each
// window's metrics; samples completing after the last snapshot (the
// operations in flight when the clock ran out) belong to no window.
func windows(samples []sample, snaps []snapshot, slo time.Duration) []window {
	sort.Slice(samples, func(i, j int) bool { return samples[i].done < samples[j].done })
	out := make([]window, 0, len(snaps)-1)
	i := 0
	for k := 0; k+1 < len(snaps); k++ {
		from, to := snaps[k], snaps[k+1]
		for i < len(samples) && samples[i].done < from.at {
			i++
		}
		w := window{traced: from.traced}
		lat := metrics.NewSummary()
		for ; i < len(samples) && samples[i].done < to.at; i++ {
			s := samples[i]
			w.samples++
			w.attempted += s.tasks
			w.failedTasks += s.failed
			if s.failed == 0 {
				lat.Add(s.latency)
				if s.latency <= slo {
					w.met += s.tasks
				}
			}
		}
		ps := lat.Percentiles(50, 90, 99)
		w.p50, w.p90, w.p99 = ms(ps[0]), ms(ps[1]), ms(ps[2])
		if ok := float64(w.attempted - w.failedTasks); ok > 0 {
			w.tasksPerS = ok / (to.at - from.at).Seconds()
			w.cpuUs = float64(to.cpu-from.cpu) / float64(time.Microsecond) / ok
			w.allocs = float64(to.mallocs-from.mallocs) / ok
			w.allocKB = float64(to.allocBytes-from.allocBytes) / 1024 / ok
		}
		if w.attempted > 0 {
			w.sloMet = float64(w.met) / float64(w.attempted)
		}
		out = append(out, w)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf reports the median over ws of one window field.
func medianOf(ws []window, field func(window) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = field(w)
	}
	return median(vs)
}
