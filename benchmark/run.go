package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"funcx/internal/metrics"
	"funcx/internal/sdk"
)

// run drives one workload against one fixture and collects what the
// metrics are computed from.
type run struct {
	w    workload
	f    *fixture
	seed int64

	start   time.Time
	tracing atomic.Bool // spans are on for the current window

	mu      sync.Mutex
	samples []sample
	lags    *metrics.Summary // open loop: how late the pacer released each task
	spans   []span
	checks  []string // invariant violations found while tracing

	goroutinesPeak int
}

func newRun(w workload, f *fixture, seed int64) *run {
	return &run{w: w, f: f, seed: seed, start: time.Now(), lags: metrics.NewSummary()}
}

func (r *run) record(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// operate performs one whole operation of the workload, timed from
// from, and returns its outcome.
func (r *run) operate(c *sdk.Client, payload int, from time.Time, traced bool) sample {
	if r.w.batch {
		return r.batchOp(c, from, traced)
	}
	return r.single(c, payload, from, traced)()
}

// single submits one task now and returns the function that waits for
// its result and verifies it, so an open-loop sender can hand the wait
// to another goroutine. Latency runs from from: the call time in a
// closed loop, the due time in an open one.
func (r *run) single(c *sdk.Client, payload int, from time.Time, traced bool) func() sample {
	ctx, cancel := context.WithDeadline(context.Background(), from.Add(taskDeadline))
	called := time.Now()
	fut, err := c.SubmitFuture(ctx, sdk.SubmitSpec{Function: r.f.fn, Endpoint: r.f.ep.ID, Payload: r.f.payloads[payload]})
	submitted := time.Now()
	return func() sample {
		defer cancel()
		s := sample{tasks: 1}
		var res *sdk.Result
		if err == nil {
			res, err = fut.Get(ctx)
		}
		resolved := time.Now()
		if err != nil || res == nil || res.Err != nil || !bytes.Equal(res.Output, r.f.want[payload]) {
			s.failed = 1
		}
		s.done, s.latency = resolved.Sub(r.start), resolved.Sub(from)
		if traced && s.failed == 0 {
			r.traceTask(ctx, c, fut.TaskID(), called, submitted, resolved)
		}
		return s
	}
}

// batchOp submits batchSize no-ops in one request and gathers them
// over batch-wait; its latency is the whole batch's.
func (r *run) batchOp(c *sdk.Client, from time.Time, traced bool) sample {
	ctx, cancel := context.WithDeadline(context.Background(), from.Add(taskDeadline))
	defer cancel()
	s := sample{tasks: batchSize}
	called := time.Now()
	ids, err := c.RunBatch(ctx, r.f.batchReqs)
	submitted := time.Now()
	var results []*sdk.Result
	if err == nil {
		results, err = c.GetResults(ctx, ids)
	}
	resolved := time.Now()
	if err != nil || len(results) != batchSize {
		s.failed = batchSize
	} else {
		for _, res := range results {
			if res == nil || res.Err != nil || !bytes.Equal(res.Output, r.f.want[0]) {
				s.failed++
			}
		}
	}
	s.done, s.latency = resolved.Sub(r.start), resolved.Sub(from)
	if traced && s.failed == 0 {
		r.traceTask(ctx, c, ids[batchSize/2], called, submitted, resolved)
	}
	return s
}

// measure applies load for len(plan) windows of the given length and
// returns each window's numbers; plan says which windows run with
// spans on. It returns once every operation has an outcome.
func (r *run) measure(windowLen time.Duration, plan []bool) []window {
	total := windowLen * time.Duration(len(plan))
	r.tracing.Store(plan[0])
	r.start = time.Now()
	snaps := []snapshot{takeSnapshot(r.start, plan[0])}

	var load sync.WaitGroup
	if r.w.open {
		r.openLoop(&load, total)
	} else {
		deadline := r.start.Add(total)
		r.closedLoop(&load, func() bool { return time.Now().Before(deadline) })
	}

	// One goroutine watches the clock: a snapshot at every window
	// boundary, and the goroutine count in between.
	tick := time.NewTicker(20 * time.Millisecond)
	for len(snaps) <= len(plan) {
		<-tick.C
		r.goroutinesPeak = max(r.goroutinesPeak, runtime.NumGoroutine())
		if time.Since(r.start) >= windowLen*time.Duration(len(snaps)) {
			next := len(snaps) < len(plan) && plan[len(snaps)]
			r.tracing.Store(next)
			snaps = append(snaps, takeSnapshot(r.start, next))
		}
	}
	tick.Stop()
	load.Wait()
	return windows(r.samples, snaps, r.w.slo)
}

// round performs exactly ops operations (offers exactly ops arrivals
// on the open loop) and returns their numbers as one window: the same
// work every time, so two rounds differ by the machine alone.
func (r *run) round(ops int) window {
	r.start = time.Now()
	from := takeSnapshot(r.start, false)
	var load sync.WaitGroup
	if r.w.open {
		r.openLoop(&load, time.Duration(ops)*time.Second/openRate)
	} else {
		var taken atomic.Int64
		r.closedLoop(&load, func() bool { return taken.Add(1) <= int64(ops) })
	}
	load.Wait()
	return windows(r.samples, []snapshot{from, takeSnapshot(r.start, false)}, r.w.slo)[0]
}

// closedLoop starts the workload's callers per client, each
// submitting its next operation when the previous one has its result,
// for as long as more says there is one.
func (r *run) closedLoop(load *sync.WaitGroup, more func() bool) {
	for i := 0; i < len(r.f.clients)*r.w.callers; i++ {
		c := r.f.clients[i%len(r.f.clients)]
		load.Add(1)
		go func(i int, c *sdk.Client) {
			defer load.Done()
			rng := rand.New(rand.NewSource(r.seed<<8 + int64(i)))
			every := traceEvery
			if r.w.batch {
				every = 1 // one task of every batch
			}
			for n := 0; more(); n++ {
				traced := r.tracing.Load() && n%every == 0
				r.record(r.operate(c, rng.Intn(len(r.f.payloads)), time.Now(), traced))
			}
		}(i, c)
	}
}

// openLoop offers openRate tasks/s on the seeded schedule regardless of
// completions. One pacer sleeps to each due time and hands the task to
// its own goroutine, clients taking turns, so neither a slow submit nor
// a slow result delays the next arrival; latency runs from the due
// time, which charges a stall to everything queued behind it.
func (r *run) openLoop(load *sync.WaitGroup, total time.Duration) {
	due := schedule(r.seed, int(openRate*total.Seconds()), total)
	load.Add(1)
	go func() {
		defer load.Done()
		alarm := newAlarm()
		defer alarm.close()
		for i := range due {
			at := r.start.Add(due[i])
			alarm.sleepUntil(at)
			r.lags.Add(time.Since(at))
			traced := r.tracing.Load() && i%traceEvery == 0
			load.Add(1)
			go func(i int) {
				defer load.Done()
				c := r.f.clients[i%len(r.f.clients)]
				r.record(r.single(c, i%len(r.f.payloads), at, traced)())
			}(i)
		}
	}()
}

// outcome totals every attempted task, inside a window or not.
func (r *run) outcome() (attempted, failed int) {
	for _, s := range r.samples {
		attempted += s.tasks
		failed += s.failed
	}
	return attempted, failed
}

func takeSnapshot(start time.Time, traced bool) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:         time.Since(start),
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		traced:     traced,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }
