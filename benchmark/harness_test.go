package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if !reflect.DeepEqual(in, []float64{9, 1, 5}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

// The best round is reported, whichever way the metric improves, and
// disturbed rounds do not move it.
func TestBest(t *testing.T) {
	rounds := []float64{100, 110, 101, 109, 102}
	if got := best(rounds, true); got != 110 {
		t.Errorf("higher is better: %v, want 110", got)
	}
	if got := best(rounds, false); got != 100 {
		t.Errorf("lower is better: %v, want 100", got)
	}
	if got := best([]float64{50, 110, 55, 60, 65}, true); got != 110 {
		t.Errorf("with most rounds disturbed: %v, want 110", got)
	}
	if got := best([]float64{7}, false); got != 7 {
		t.Errorf("one round: %v, want 7", got)
	}
}

// Three windows, the middle one twice as slow: the reported value is
// the median window's, not the whole run's mean.
func TestWindowsAndMedianOfWindows(t *testing.T) {
	ms := time.Millisecond
	snaps := []snapshot{
		{at: 0},
		{at: 1000 * ms, cpu: 100 * ms, mallocs: 1000, allocBytes: 10 << 10},
		{at: 2000 * ms, cpu: 300 * ms, mallocs: 3000, allocBytes: 30 << 10},
		{at: 3000 * ms, cpu: 400 * ms, mallocs: 4000, allocBytes: 40 << 10},
	}
	var samples []sample
	add := func(from, n int, latency time.Duration) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{done: time.Duration(from)*ms + time.Duration(i)*ms, latency: latency, tasks: 1})
		}
	}
	add(0, 10, 1*ms)
	add(1000, 5, 2*ms)
	add(2000, 10, 1*ms)
	samples = append(samples, sample{done: 3500 * ms, latency: ms, tasks: 1}) // after the last snapshot: no window

	ws := windows(samples, snaps, 25*ms)
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3", len(ws))
	}
	if got := sampleCounts(ws); !reflect.DeepEqual(got, []int{10, 5, 10}) {
		t.Errorf("samples per window = %v, want [10 5 10]", got)
	}
	if ws[1].tasksPerS != 5 || ws[1].p50 != 2 || ws[1].cpuUs != 40000 || ws[1].allocs != 400 || ws[1].allocKB != 4 {
		t.Errorf("slow window = %+v", ws[1])
	}
	if got := medianOf(ws, func(w window) float64 { return w.tasksPerS }); got != 10 {
		t.Errorf("median tasks/s = %v, want 10 (a whole-run mean would say 8.3)", got)
	}
	if got := medianOf(ws, func(w window) float64 { return w.p50 }); got != 1 {
		t.Errorf("median p50 = %v ms, want 1", got)
	}
}

// A failed task and a slow task both miss the latency limit; only the
// failed one leaves the latency sample and the throughput.
func TestWindowsCountFailuresAsMisses(t *testing.T) {
	ms := time.Millisecond
	snaps := []snapshot{{at: 0}, {at: 1000 * ms}}
	samples := []sample{
		{done: 100 * ms, latency: 1 * ms, tasks: 1},
		{done: 200 * ms, latency: 30 * ms, tasks: 1},                     // verified, but past 25 ms
		{done: 300 * ms, latency: taskDeadline, tasks: 1, failed: 1},     // timed out
		{done: 400 * ms, latency: 40 * ms, tasks: batchSize, failed: 16}, // a batch with wrong bytes in 16 results
	}
	w := windows(samples, snaps, 25*ms)[0]
	if w.attempted != 3+batchSize || w.failedTasks != 17 {
		t.Errorf("attempted %d failed %d, want %d and 17", w.attempted, w.failedTasks, 3+batchSize)
	}
	if want := 1.0 / float64(3+batchSize); w.sloMet != want {
		t.Errorf("slo met = %v, want %v (one task of %d)", w.sloMet, want, 3+batchSize)
	}
	if want := float64(3 + batchSize - 17); w.tasksPerS != want {
		t.Errorf("tasks/s = %v, want %v verified in one second", w.tasksPerS, want)
	}
	if w.p50 != 15.5 || w.p99 > 30 {
		t.Errorf("p50 %v p99 %v, want 15.5 and at most 30: failed operations carry no latency", w.p50, w.p99)
	}
}

func TestScheduleIsSeededAndPinned(t *testing.T) {
	const n, span = 5000, 5 * time.Second
	a, b, other := schedule(7, n, span), schedule(7, n, span), schedule(8, n, span)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("different seeds gave one schedule")
	}
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Error("due times are not ascending")
	}
	if a[0] < 0 || a[n-1] >= span {
		t.Errorf("due times leave [0, %v): first %v last %v", span, a[0], a[n-1])
	}
	// Exponential gaps: about 1/e of them exceed the mean gap.
	long := 0
	for i := 1; i < n; i++ {
		if a[i]-a[i-1] > span/n {
			long++
		}
	}
	if share := float64(long) / n; share < 0.33 || share > 0.41 {
		t.Errorf("%.3f of the gaps exceed the mean, want about 0.368", share)
	}
}

func TestPayloadPoolIsSeeded(t *testing.T) {
	a, b, other := payloadPool(3, 1024), payloadPool(3, 1024), payloadPool(4, 1024)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, other) {
		t.Error("the pool must depend on the seed and on nothing else")
	}
	if len(a) != poolSize || len(a[0]) != 1024 || reflect.DeepEqual(a[0], a[1]) {
		t.Errorf("want %d distinct buffers of 1024 bytes", poolSize)
	}
}

// One real fixture serves both timing tests: latency is charged from
// the due time when the sender runs late, and a task whose deadline
// passes is a failure with exactly one outcome.
func TestDueTimeLatencyAndTimeout(t *testing.T) {
	w, _ := workloadByName("noop_open")
	in, err := makeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := setUp(w, in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	r := newRun(w, f, 1)

	const late = 50 * time.Millisecond
	s := r.single(f.clients[0], 0, time.Now().Add(-late), false)()
	if s.failed != 0 || s.tasks != 1 {
		t.Fatalf("late task: %+v", s)
	}
	if s.latency < late || s.latency > late+time.Second {
		t.Errorf("latency %v, want the %v the sender ran late plus the round trip", s.latency, late)
	}

	s = r.single(f.clients[0], 0, time.Now().Add(-taskDeadline), false)()
	if s.failed != 1 || s.tasks != 1 {
		t.Errorf("task past its deadline: %+v, want one attempted and one failed", s)
	}
	r.record(s)
	if attempted, failed := r.outcome(); attempted != 1 || failed != 1 {
		t.Errorf("outcome = %d attempted, %d failed, want 1 and 1", attempted, failed)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name     string
		a, b     []float64
		higher   bool
		bound    float64
		absolute bool
		want     string
	}{
		{"lower is better, inside the bound", []float64{100, 101, 102}, []float64{108}, false, 0.10, false, "ok"},
		{"lower is better, past the bound", []float64{100, 101, 102}, []float64{113}, false, 0.10, false, "regressed"},
		{"higher is better, a gain", []float64{100}, []float64{150}, true, 0.10, false, "ok"},
		{"higher is better, a loss", []float64{100}, []float64{85}, true, 0.10, false, "regressed"},
		{"A disagrees with itself", []float64{80, 100, 120}, []float64{150}, false, 0.10, false, "unresolved"},
		{"ratio from zero, absolute", []float64{0, 0, 0}, []float64{0.002}, false, 0.001, true, "regressed"},
		{"ratio from zero, unchanged", []float64{0}, []float64{0}, false, 0.001, true, "ok"},
	} {
		if got := judge(c.a, c.b, c.higher, c.bound, c.absolute).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// Every workload BENCHMARK.json names is one the code runs, and both
// name the same end-to-end metrics.
func TestSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the code does not run", w.Name)
		}
	}
	printed := map[string]measured{"setup_s": {Unit: "s"}, "slo_met_ratio": {Unit: "ratio"}, "peak_rss_mb": {Unit: "MiB"}}
	for _, m := range endToEndMetrics {
		printed[m.name] = measured{Unit: m.unit}
	}
	if err := sameNames(printed, sp.EndToEnd); err != nil {
		t.Errorf("end-to-end metrics: %v", err)
	}
}
