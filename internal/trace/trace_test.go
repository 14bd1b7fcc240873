package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"funcx/internal/types"
)

func TestTimelineStampOrderAndDedup(t *testing.T) {
	c := NewCollector(8)
	id := types.TaskID("t1")
	c.Begin(id, "ep", "", time.Now())
	c.Stamp(id, StageQueued)
	c.Stamp(id, StageDispatched)
	c.Stamp(id, StageDispatched) // dup: first observation wins
	tl, ok := c.Get(id)
	if !ok {
		t.Fatal("timeline missing")
	}
	if len(tl.Stamps) != 3 {
		t.Fatalf("got %d stamps, want 3 (received, queued, dispatched)", len(tl.Stamps))
	}
	if tl.Stamps[0].Stage != StageReceived || tl.Stamps[0].Offset != 0 {
		t.Fatalf("first stamp = %+v, want received@0", tl.Stamps[0])
	}
	q, _ := tl.Offset(StageQueued)
	d, _ := tl.Offset(StageDispatched)
	if d < q {
		t.Fatalf("dispatched offset %v before queued %v", d, q)
	}
}

func TestDecomposePartitionsTotal(t *testing.T) {
	tl := &Timeline{
		TaskID: "t1",
		Start:  time.Now(),
		Stamps: []Stamp{
			{StageReceived, 0},
			{StageQueued, 1 * time.Millisecond},
			{StageDispatched, 3 * time.Millisecond},
			{StageRunning, 6 * time.Millisecond},
			{StageResult, 16 * time.Millisecond},
			{StagePublished, 17 * time.Millisecond},
		},
		Remote: &types.TraceDeltas{Exec: 8 * time.Millisecond},
	}
	d, ok := Decompose(tl)
	if !ok {
		t.Fatal("decompose failed")
	}
	if d.Sum() != d.Total {
		t.Fatalf("stage sum %v != total %v", d.Sum(), d.Total)
	}
	if d.Total != 17*time.Millisecond {
		t.Fatalf("total = %v, want 17ms", d.Total)
	}
	want := Decomposition{
		Submit: 1 * time.Millisecond, Queue: 2 * time.Millisecond,
		Dispatch: 3 * time.Millisecond, Execute: 8 * time.Millisecond,
		Return: 2 * time.Millisecond, Publish: 1 * time.Millisecond,
		Total: 17 * time.Millisecond,
	}
	if d != want {
		t.Fatalf("decomposition = %+v, want %+v", d, want)
	}
}

func TestDecomposeClampsRunawayExec(t *testing.T) {
	// Endpoint-reported execution longer than the service-observed
	// running → result window (fast endpoint clock) must be clamped so
	// Return never goes negative.
	tl := &Timeline{
		Stamps: []Stamp{
			{StageReceived, 0},
			{StageQueued, time.Millisecond},
			{StageDispatched, 2 * time.Millisecond},
			{StageRunning, 3 * time.Millisecond},
			{StageResult, 5 * time.Millisecond},
			{StagePublished, 6 * time.Millisecond},
		},
		Remote: &types.TraceDeltas{Exec: time.Hour},
	}
	d, ok := Decompose(tl)
	if !ok {
		t.Fatal("decompose failed")
	}
	if d.Execute != 2*time.Millisecond || d.Return != 0 {
		t.Fatalf("execute=%v return=%v, want 2ms / 0", d.Execute, d.Return)
	}
	if d.Sum() != d.Total {
		t.Fatalf("stage sum %v != total %v", d.Sum(), d.Total)
	}
}

func TestDecomposeMissingStampsFallBack(t *testing.T) {
	// A memoized / fast-failed task may never be dispatched: missing
	// intermediate stamps collapse to zero-width stages.
	tl := &Timeline{
		Stamps: []Stamp{
			{StageReceived, 0},
			{StageResult, 4 * time.Millisecond},
			{StagePublished, 5 * time.Millisecond},
		},
	}
	d, ok := Decompose(tl)
	if !ok {
		t.Fatal("decompose failed")
	}
	if d.Sum() != d.Total || d.Total != 5*time.Millisecond {
		t.Fatalf("sum=%v total=%v, want both 5ms", d.Sum(), d.Total)
	}
	if d.Submit != 0 || d.Queue != 0 || d.Dispatch != 0 || d.Execute != 0 {
		t.Fatalf("expected zero-width early stages, got %+v", d)
	}
	// In-flight timelines don't decompose.
	if _, ok := Decompose(&Timeline{Stamps: []Stamp{{StageReceived, 0}}}); ok {
		t.Fatal("in-flight timeline decomposed")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	// counts: ≤1ms: 2 (0.0005 and the exact-bound 0.001), ≤10ms: 1,
	// ≤100ms: 1, +Inf: 1.
	want := []uint64{2, 1, 1}
	for i, n := range h.counts {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if h.inf != 1 || h.count != 5 {
		t.Fatalf("inf=%d count=%d, want 1/5", h.inf, h.count)
	}
}

func TestCollectorFoldsAndEvicts(t *testing.T) {
	c := NewCollector(2)
	for i := 0; i < 3; i++ {
		id := types.TaskID(fmt.Sprintf("t%d", i))
		c.Begin(id, "ep", "g", time.Now().Add(-10*time.Millisecond))
		c.Stamp(id, StageQueued)
		c.Stamp(id, StageDispatched)
		c.Stamp(id, StageRunning)
		c.Stamp(id, StageResult)
		c.Remote(id, &types.TraceDeltas{Exec: time.Millisecond})
		c.Finish(id)
	}
	if _, ok := c.Get("t0"); ok {
		t.Fatal("t0 should have been evicted (capacity 2)")
	}
	for _, id := range []types.TaskID{"t1", "t2"} {
		tl, ok := c.Get(id)
		if !ok || !tl.Done {
			t.Fatalf("%s missing or not done", id)
		}
	}
	active, completed, evicted := c.Stats()
	if active != 0 || completed != 2 || evicted != 1 {
		t.Fatalf("stats = %d/%d/%d, want 0/2/1", active, completed, evicted)
	}

	snaps := c.Histograms()
	if len(snaps) != 7 { // six stages + total
		t.Fatalf("got %d histogram series, want 7", len(snaps))
	}
	for _, s := range snaps {
		if s.Count != 3 {
			t.Fatalf("series %s count = %d, want 3", s.Stage, s.Count)
		}
		var prev uint64
		for i, n := range s.Cumulative {
			if n < prev {
				t.Fatalf("series %s bucket %d not monotone (%d < %d)", s.Stage, i, n, prev)
			}
			prev = n
		}
		if prev > s.Count {
			t.Fatalf("series %s last bucket %d exceeds count %d", s.Stage, prev, s.Count)
		}
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := types.TaskID(fmt.Sprintf("g%d-t%d", g, i))
				c.Begin(id, "ep", "", time.Now())
				c.Stamp(id, StageQueued)
				c.Stamp(id, StageDispatched)
				c.Stamp(id, StageRunning)
				c.Stamp(id, StageResult)
				c.Remote(id, &types.TraceDeltas{Exec: time.Microsecond})
				c.Get(id)
				c.Finish(id)
			}
		}(g)
	}
	wg.Wait()
	if _, completed, _ := func() (int, int, int64) { return c.Stats() }(); completed != 64 {
		t.Fatalf("completed = %d, want ring capacity 64", completed)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Begin("t", "ep", "", time.Now())
	c.Stamp("t", StageQueued)
	c.Remote("t", &types.TraceDeltas{})
	c.Finish("t")
	c.Drop("t")
	if _, ok := c.Get("t"); ok {
		t.Fatal("nil collector returned a timeline")
	}
	if c.Histograms() != nil {
		t.Fatal("nil collector returned histograms")
	}
}

// TraceID and SpanID give the strings the fmt.Sprintf formulas they
// replaced gave: an exported span's ids must not change with the build
// that exports it.
func TestTraceAndSpanIDGolden(t *testing.T) {
	fnv := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	for _, c := range []struct {
		id  types.TaskID
		dag types.DAGID
	}{
		{"", ""},
		{"t1", ""},
		{"t1", "d1"},
		{"4f1c2e9a-7b3d-4c8e-9a21-0d6f5b3e8c17", ""},
		{"4f1c2e9a-7b3d-4c8e-9a21-0d6f5b3e8c17", "9c0e7d1b-2a4f-4e6b-8d3c-5f1a7e9b0c24"},
		{"tâche-ü", ""},
		{"x\x00y", ""},
	} {
		key := string(c.id)
		if c.dag != "" {
			key = string(c.dag)
		}
		want := fmt.Sprintf("%016x%016x", fnv(key), fnv("trace\x00"+key))
		if got := TraceID(c.id, c.dag); got != want {
			t.Errorf("TraceID(%q, %q) = %s, want %s", c.id, c.dag, got, want)
		}
		for _, span := range []string{key, key + "/queued", key + "/execute"} {
			if got, want := SpanID(span), fmt.Sprintf("%016x", fnv("span\x00"+span)); got != want {
				t.Errorf("SpanID(%q) = %s, want %s", span, got, want)
			}
		}
	}
}
