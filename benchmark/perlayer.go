package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"funcx/internal/api"
)

// perLayer is the traced run plus the layer pass. The traced pass
// alternates windows with spans off and on (off, on, off, on) against
// one fixture, so both halves see the same machine weather: the off
// windows give the untraced reference (and the end-to-end numbers that
// could not hold a bound, kept here under harness.), the on windows
// give the spans, and their ratio is the tracing overhead.
func perLayer(w workload, seed int64, seconds int, outDir string) (result, []string, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return result{}, nil, err
	}
	f, err := setUp(w, in, outDir)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	ctx := context.Background()
	before, err := f.clients[0].Stats(ctx)
	if err != nil {
		f.close()
		return result{}, nil, err
	}
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)

	// One fixture carries the whole traced pass and keeps every task it
	// has finished (about 3 KB each), so the pass stops at tracedSeconds
	// however long the end-to-end run is.
	windowLen := time.Duration(min(seconds, tracedSeconds)) * time.Second / 4
	r := newRun(w, f, seed)
	ws := r.measure(windowLen, []bool{false, true, false, true})
	elapsed := time.Since(r.start).Seconds()

	runtime.ReadMemStats(&gcAfter)
	after, err := f.clients[0].Stats(ctx)
	f.close()
	if err != nil {
		return result{}, nil, err
	}

	var off, on []window
	for _, win := range ws {
		if win.traced {
			on = append(on, win)
		} else {
			off = append(off, win)
		}
	}
	res := result{Metrics: map[string]measured{}}
	res.Attempted, res.Failed = r.outcome()
	put := func(name string, v float64, unit string) { res.Metrics[name] = measured{v, unit} }

	med := spanMedians(r.spans)
	traced := 0
	for _, s := range r.spans {
		if s.Name == spanTask {
			traced++
		}
	}
	for _, name := range append(stageSpans[:], spanSubmit, spanResolve, spanAgentQueue, spanMgrQueue, spanExec, spanOverhead) {
		put(name+"_us", med[name], "us")
	}
	counts(put, before, after, float64(res.Attempted-res.Failed), elapsed)
	put("runtime.gc_pause_ms_per_s", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6/elapsed, "ms/s")
	put("runtime.goroutines_peak", float64(r.goroutinesPeak), "count")
	lag := r.lags.Percentiles(50, 99)
	put("harness.generator_lag_p50_ms", ms(lag[0]), "ms")
	put("harness.generator_lag_p99_ms", ms(lag[1]), "ms")
	rate := func(w window) float64 { return w.tasksPerS }
	put("harness.trace_overhead_ratio", medianOf(on, rate)/medianOf(off, rate), "ratio")
	put("harness.traced_tasks", float64(traced), "count")
	put("harness.task_latency_p90_ms", medianOf(off, func(w window) float64 { return w.p90 }), "ms")
	put("harness.task_latency_p99_ms", medianOf(off, func(w window) float64 { return w.p99 }), "ms")
	put("harness.slo_miss_ratio", 1-medianOf(off, func(w window) float64 { return w.sloMet }), "ratio")
	put("harness.failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")

	if err := layerPass(put, seed, outDir); err != nil {
		return result{}, nil, fmt.Errorf("layer pass: %w", err)
	}

	problems := r.checks
	if gap := reconcile(med); w.name == "noop_closed" && gap > 0.10 {
		problems = append(problems, fmt.Sprintf("stage medians + client overhead miss the client round trip by %.1f%% (limit 10%%)", gap*100))
	}
	if err := writeSpans(outDir, w.name, r.spans); err != nil {
		return result{}, nil, err
	}
	fmt.Printf("%s seed=%d traced pass: windows=%dx%.1fs (off,on,off,on) samples/window=%v traced tasks=%d attempted=%d succeeded=%d failed=%d\n",
		w.name, seed, len(ws), windowLen.Seconds(), sampleCounts(ws), traced, res.Attempted, res.Attempted-res.Failed, res.Failed)
	return res, problems, nil
}

// counts turns the deltas of the service's own counters over the
// measured phase into per-task and per-second numbers.
func counts(put func(string, float64, string), before, after *api.StatsResponse, tasks, seconds float64) {
	var ep0, ep1 api.EndpointStats
	if len(before.Endpoints) > 0 && len(after.Endpoints) > 0 {
		ep0, ep1 = before.Endpoints[0], after.Endpoints[0]
	}
	put("forwarder.dispatched_per_task", float64(ep1.Dispatched-ep0.Dispatched)/tasks, "count")
	put("forwarder.requeued", float64(ep1.Requeued-ep0.Requeued), "count")
	put("forwarder.reclaimed", float64(ep1.Reclaimed-ep0.Reclaimed), "count")
	put("service.retried", float64(after.Retried-before.Retried), "count")
	put("service.lost", float64(after.Lost-before.Lost), "count")
	put("events.buffered_events", float64(after.EventBufferedEvents), "count")
	put("trace.evicted", float64(after.TraceEvicted-before.TraceEvicted), "count")
	var w0, w1 api.WALStats
	if before.WAL != nil && after.WAL != nil {
		w0, w1 = *before.WAL, *after.WAL
	}
	fsyncs := float64(w1.Fsyncs - w0.Fsyncs)
	put("wal.appends_per_task", float64(w1.Appends-w0.Appends)/tasks, "count")
	put("wal.bytes_per_task", float64(w1.AppendedBytes-w0.AppendedBytes)/tasks, "B")
	put("wal.fsyncs_per_s", fsyncs/seconds, "1/s")
	fsyncMs := 0.0
	if fsyncs > 0 {
		fsyncMs = float64(w1.FsyncNanos-w0.FsyncNanos) / 1e6 / fsyncs
	}
	put("wal.fsync_ms_mean", fsyncMs, "ms")
}
