// Package trace records per-task lifecycle timelines for the funcX
// service: every stage a task passes through — submit received,
// routed, queued, dispatched, running, result received, terminal event
// published — is stamped as a monotonic offset from the moment the
// submit arrived, all on the service's own clock. The endpoint stack
// measures its stages (worker execution, manager queue, agent queue)
// as local deltas shipped back with the result (types.TraceDeltas), so
// cross-machine clock skew never corrupts a span.
//
// Completed timelines are folded into per-stage latency histograms
// (exposed as a Prometheus histogram family on GET /v1/metrics) and
// kept in a bounded ring for the raw timeline API
// (GET /v1/tasks/{id}/trace).
package trace

import (
	"sort"
	"sync"
	"time"

	"funcx/internal/types"
)

// fnvOffset is FNV-64a's initial state.
const fnvOffset = 14695981039346656037

// fnv64a folds s into the FNV-64a state h — the same hash trace
// sampling uses, so id derivation and sampling stay keyed identically.
// Hashing a prefix and then a key this way equals hashing the two
// concatenated, without building that string.
func fnv64a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// putHex writes v into dst[:16] as %016x does: zero-padded lower-case
// hex.
func putHex(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// TraceID derives the 16-byte OpenTelemetry trace id (32 hex chars)
// for a task. The derivation keys on the graph id for DAG nodes and on
// the task id otherwise — the same key selection trace sampling uses —
// so every node of a sampled workflow shares one trace id and the
// workflow renders as a single distributed trace.
func TraceID(id types.TaskID, dagID types.DAGID) string {
	key := string(id)
	if dagID != "" {
		key = string(dagID)
	}
	hi := fnv64a(fnvOffset, key)
	lo := fnv64a(fnv64a(fnvOffset, "trace\x00"), key)
	if hi == 0 && lo == 0 {
		lo = 1 // the all-zero trace id is invalid in OTLP
	}
	var b [32]byte
	putHex(b[:16], hi)
	putHex(b[16:], lo)
	return string(b[:])
}

// SpanID derives the 8-byte OpenTelemetry span id (16 hex chars) for a
// named span within a task's trace.
func SpanID(key string) string {
	h := fnv64a(fnv64a(fnvOffset, "span\x00"), key)
	if h == 0 {
		h = 1 // the all-zero span id is invalid in OTLP
	}
	var b [16]byte
	putHex(b[:], h)
	return string(b[:])
}

// Stage names one stamped point in a task's service-side timeline.
type Stage string

// Timeline stages, in lifecycle order.
const (
	// StageReceived is the submit's arrival at the HTTP layer (offset
	// zero — the timeline anchor).
	StageReceived Stage = "received"
	// StageRouted is the placement decision: the target endpoint is
	// known (router choice for groups, echo for pinned submissions).
	StageRouted Stage = "routed"
	// StageQueued is the task landing on its endpoint's reliable queue.
	StageQueued Stage = "queued"
	// StageDispatched is the forwarder shipping the task to the agent.
	StageDispatched Stage = "dispatched"
	// StageRunning is the worker's execution-start signal arriving
	// back at the service.
	StageRunning Stage = "running"
	// StageResult is the result's arrival at the service.
	StageResult Stage = "result"
	// StagePublished is the terminal event reaching the owner's event
	// stream — the end of the timeline.
	StagePublished Stage = "published"
)

// Stamp is one recorded stage: its offset from the timeline start on
// the service's monotonic clock.
type Stamp struct {
	Stage  Stage
	Offset time.Duration
}

// Timeline is the service-side record of one traced task.
type Timeline struct {
	TaskID   types.TaskID
	Endpoint types.EndpointID
	Group    types.GroupID
	// Function is the invoked function — carried for span attributes.
	Function types.FunctionID
	// DAGID links a DAG node's timeline to its graph: exported spans
	// and exemplars derive the trace id from it (see TraceID), so a
	// workflow's nodes share one trace.
	DAGID types.DAGID
	// Start is the wall-clock anchor (submit arrival). Its embedded
	// monotonic reading is what every offset is measured against.
	Start time.Time
	// Stamps are the recorded stages in arrival order.
	Stamps []Stamp
	// Remote carries the endpoint-side deltas once the result arrives.
	Remote *types.TraceDeltas
	// Done marks a completed (published) timeline.
	Done bool

	// buf is the inline backing array for Stamps: the full lifecycle
	// fits without a second allocation per task.
	buf [8]Stamp
}

// Offset returns the recorded offset of a stage (ok false when the
// stage was never stamped).
func (t *Timeline) Offset(s Stage) (time.Duration, bool) {
	for _, st := range t.Stamps {
		if st.Stage == s {
			return st.Offset, true
		}
	}
	return 0, false
}

// clone returns a deep copy safe to hand outside the collector's lock.
func (t *Timeline) clone() *Timeline {
	cp := *t
	cp.Stamps = append([]Stamp(nil), t.Stamps...)
	if t.Remote != nil {
		r := *t.Remote
		cp.Remote = &r
	}
	return &cp
}

// Decomposition is the per-stage latency breakdown of one completed
// timeline: the paper's latency-decomposition view of where a task's
// end-to-end time went. The stages partition Total exactly:
//
//	Submit   — received → queued (auth, store, route, enqueue; ≈ TS)
//	Queue    — queued → dispatched (reliable-queue wait + forwarder pop)
//	Dispatch — dispatched → running (ship to agent, agent/manager
//	           scheduling, worker pickup)
//	Execute  — function execution (endpoint-measured, clamped into the
//	           running → result window)
//	Return   — result leg: running → result minus Execute
//	Publish  — result → terminal event published
type Decomposition struct {
	Submit   time.Duration
	Queue    time.Duration
	Dispatch time.Duration
	Execute  time.Duration
	Return   time.Duration
	Publish  time.Duration
	// Total is the service-observed end-to-end time
	// (received → published); the six stages sum to it exactly.
	Total time.Duration
}

// Stages returns the decomposition's named components in order.
func (d Decomposition) Stages() []struct {
	Name string
	D    time.Duration
} {
	return []struct {
		Name string
		D    time.Duration
	}{
		{"submit", d.Submit},
		{"queue", d.Queue},
		{"dispatch", d.Dispatch},
		{"execute", d.Execute},
		{"return", d.Return},
		{"publish", d.Publish},
	}
}

// Sum returns the sum of the six stage components.
func (d Decomposition) Sum() time.Duration {
	return d.Submit + d.Queue + d.Dispatch + d.Execute + d.Return + d.Publish
}

// Decompose computes the per-stage breakdown of a completed timeline.
// ok is false when the timeline is missing its terminal stamps (still
// in flight, or the task died before a result). Missing intermediate
// stamps fall back to the nearest recorded neighbor, so a memoized or
// fast-failed task still decomposes without negative stages.
func Decompose(t *Timeline) (Decomposition, bool) {
	received, ok1 := t.Offset(StageReceived)
	result, ok2 := t.Offset(StageResult)
	published, ok3 := t.Offset(StagePublished)
	if !ok1 || !ok2 || !ok3 {
		return Decomposition{}, false
	}
	at := func(s Stage, fallback time.Duration) time.Duration {
		if off, ok := t.Offset(s); ok {
			return off
		}
		return fallback
	}
	queued := at(StageQueued, received)
	dispatched := at(StageDispatched, queued)
	running := at(StageRunning, dispatched)

	var d Decomposition
	d.Submit = queued - received
	d.Queue = dispatched - queued
	d.Dispatch = running - dispatched
	retWindow := result - running
	if retWindow < 0 {
		retWindow = 0
	}
	// Execute is endpoint-measured; clamp it into the service-observed
	// running → result window so the stages keep partitioning Total
	// even if the endpoint's clock runs fast.
	if t.Remote != nil {
		d.Execute = min(t.Remote.Exec, retWindow)
	}
	d.Return = retWindow - d.Execute
	d.Publish = published - result
	d.Total = published - received
	return d, true
}

// DefaultBuckets are the histogram upper bounds (seconds) used for the
// per-stage latency families: sub-millisecond through tens of seconds,
// matching the paper's observed range (ms-scale hops, second-scale
// cold starts).
var DefaultBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket latency histogram in the Prometheus
// style: cumulative bucket counts over sorted upper bounds, plus a sum
// and total count. Not safe for concurrent use; the Collector guards
// its histograms with its own lock.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []uint64  // per-bound (non-cumulative) counts
	inf    uint64    // observations above the last bound
	sum    float64
	count  uint64
	// exemplars remembers, per bucket (last entry = +Inf), the most
	// recent linked observation; allocated lazily on the first one.
	exemplars []bucketExemplar
}

// bucketExemplar is one bucket's remembered observation: enough to
// derive (task id, trace id, value) at snapshot time without any
// per-observe string work.
type bucketExemplar struct {
	id  types.TaskID
	dag types.DAGID
	v   float64
}

// Exemplar links one histogram bucket to a recent sample task — the
// OpenMetrics exemplar surfaced on funcx_task_stage_seconds, letting
// an operator jump from a slow bucket to an offending task's trace.
type Exemplar struct {
	TaskID  types.TaskID
	TraceID string
	Value   float64
}

// NewHistogram creates a histogram over the given upper bounds
// (seconds, must be sorted ascending; nil selects DefaultBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)),
	}
}

// Observe records one value (seconds).
func (h *Histogram) Observe(v float64) {
	h.ObserveLinked(v, "", "")
}

// ObserveLinked records one value (seconds) and, when a task id is
// given, remembers it as the receiving bucket's exemplar (most recent
// observation wins).
func (h *Histogram) ObserveLinked(v float64, id types.TaskID, dag types.DAGID) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i]++
	} else {
		h.inf++
	}
	if id != "" {
		if h.exemplars == nil {
			h.exemplars = make([]bucketExemplar, len(h.bounds)+1)
		}
		h.exemplars[i] = bucketExemplar{id: id, dag: dag, v: v}
	}
	h.sum += v
	h.count++
}

// Snapshot is a point-in-time copy of one histogram with its label
// identity, ready for exposition.
type Snapshot struct {
	Stage    string
	Endpoint types.EndpointID
	Group    types.GroupID
	// Bounds are the bucket upper bounds (seconds); Cumulative the
	// matching cumulative counts (same length; +Inf == Count).
	Bounds     []float64
	Cumulative []uint64
	Sum        float64
	Count      uint64
	// Exemplars pairs with Bounds plus a final +Inf entry: each slot
	// is the bucket's most recent linked observation, zero-valued
	// (empty TaskID) when the bucket never saw one. Trace ids are
	// derived at snapshot time via TraceID.
	Exemplars []Exemplar
}

// histKey identifies one histogram series.
type histKey struct {
	stage    string
	endpoint types.EndpointID
	group    types.GroupID
}

// nShards spreads collector state across independently locked shards:
// every traced task takes several collector operations on the
// lifecycle hot path (submit, dispatch, running, result, publish),
// and a single mutex measurably serializes concurrent submitters.
const nShards = 64

// cshard is one lock's worth of collector state. Timelines live
// entirely in the shard their task id hashes to; histograms are
// folded per-shard and merged at scrape time, keeping the hot path
// free of any cross-shard lock.
type cshard struct {
	mu        sync.Mutex
	active    map[types.TaskID]*Timeline
	completed map[types.TaskID]*Timeline
	ring      []types.TaskID // eviction order for completed
	ringPos   int
	hists     map[histKey]*Histogram
	dropped   int64
}

// Collector is the service's trace store: in-flight timelines, a
// bounded ring of completed ones (for the timeline API), and per-stage
// latency histograms keyed by endpoint and group.
type Collector struct {
	shards []cshard
	bounds []float64

	// OnFinish, when set, receives every completed timeline right
	// after Finish folds it — the feed point for the OTLP exporter.
	// Set it once, before the collector sees traffic. The callback
	// runs outside the shard lock but on the task-retirement path, so
	// it must never block (the exporter's Enqueue is drop-oldest for
	// exactly this reason). The timeline is no longer mutated after
	// the call, but Get may clone it concurrently — treat it as
	// read-only.
	OnFinish func(*Timeline)
}

// NewCollector creates a collector retaining up to capacity completed
// timelines (≤ 0 selects 4096). The shard count scales with capacity:
// small collectors get a single shard (exact global eviction order),
// production-sized ones the full spread.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 4096
	}
	n := capacity / nShards
	if n < 1 {
		n = 1
	}
	if n > nShards {
		n = nShards
	}
	per := capacity / n
	c := &Collector{bounds: DefaultBuckets, shards: make([]cshard, n)}
	for i := range c.shards {
		c.shards[i] = cshard{
			active:    make(map[types.TaskID]*Timeline),
			completed: make(map[types.TaskID]*Timeline, per),
			ring:      make([]types.TaskID, per),
			hists:     make(map[histKey]*Histogram),
		}
	}
	return c
}

// shard maps a task id to its shard (FNV-1a over the id bytes).
func (c *Collector) shard(id types.TaskID) *cshard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// Begin opens a timeline anchored at start (the submit's arrival) and
// stamps StageReceived at offset zero.
func (c *Collector) Begin(id types.TaskID, ep types.EndpointID, group types.GroupID, start time.Time) {
	c.BeginLinked(id, ep, group, "", "", start)
}

// BeginLinked is Begin carrying the function and (for DAG nodes) the
// graph id, so the completed timeline can export spans and exemplars
// linked by the graph-derived trace id.
func (c *Collector) BeginLinked(id types.TaskID, ep types.EndpointID, group types.GroupID, fn types.FunctionID, dagID types.DAGID, start time.Time) {
	if c == nil {
		return
	}
	tl := &Timeline{
		TaskID:   id,
		Endpoint: ep,
		Group:    group,
		Function: fn,
		DAGID:    dagID,
		Start:    start,
	}
	tl.buf[0] = Stamp{Stage: StageReceived}
	tl.Stamps = tl.buf[:1]
	sh := c.shard(id)
	sh.mu.Lock()
	sh.active[id] = tl
	sh.mu.Unlock()
}

// Stamp records a stage on an in-flight timeline at the current
// monotonic offset. Re-stamps of an already-recorded stage are ignored
// (first observation wins), so redeliveries cannot rewind a span.
func (c *Collector) Stamp(id types.TaskID, s Stage) {
	if c == nil {
		return
	}
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tl, ok := sh.active[id]
	if !ok {
		return
	}
	if _, dup := tl.Offset(s); dup {
		return
	}
	//funcx:ignore clockdiscipline offset against the timeline's in-process anchor: Start was captured on this machine, so its monotonic reading is intact.
	tl.Stamps = append(tl.Stamps, Stamp{Stage: s, Offset: time.Since(tl.Start)})
}

// SetEndpoint updates the timeline's endpoint (failover re-routing
// moves a task after Begin).
func (c *Collector) SetEndpoint(id types.TaskID, ep types.EndpointID) {
	if c == nil {
		return
	}
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if tl, ok := sh.active[id]; ok {
		tl.Endpoint = ep
	}
}

// Remote attaches the endpoint-side deltas shipped back with the
// result. The collector takes ownership of d — callers pass the
// freshly decoded result's deltas and must not mutate them after.
func (c *Collector) Remote(id types.TaskID, d *types.TraceDeltas) {
	if c == nil || d == nil {
		return
	}
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if tl, ok := sh.active[id]; ok {
		tl.Remote = d
	}
}

// Drop discards an in-flight timeline (submission rollback).
func (c *Collector) Drop(id types.TaskID) {
	if c == nil {
		return
	}
	sh := c.shard(id)
	sh.mu.Lock()
	delete(sh.active, id)
	sh.mu.Unlock()
}

// Finish stamps StagePublished, folds the completed timeline into the
// per-stage histograms, and moves it to the completed ring (evicting
// the oldest entry when full).
func (c *Collector) Finish(id types.TaskID) {
	if c == nil {
		return
	}
	sh := c.shard(id)
	sh.mu.Lock()
	tl, ok := sh.active[id]
	if !ok {
		sh.mu.Unlock()
		return
	}
	delete(sh.active, id)
	if _, dup := tl.Offset(StagePublished); !dup {
		//funcx:ignore clockdiscipline offset against the timeline's in-process anchor: Start was captured on this machine, so its monotonic reading is intact.
		tl.Stamps = append(tl.Stamps, Stamp{Stage: StagePublished, Offset: time.Since(tl.Start)})
	}
	tl.Done = true

	if d, ok := Decompose(tl); ok {
		// Folded inline rather than via Stages() — Finish is on the
		// per-task retirement path and the slice alloc adds up.
		sh.observeLocked(c.bounds, "submit", tl, d.Submit)
		sh.observeLocked(c.bounds, "queue", tl, d.Queue)
		sh.observeLocked(c.bounds, "dispatch", tl, d.Dispatch)
		sh.observeLocked(c.bounds, "execute", tl, d.Execute)
		sh.observeLocked(c.bounds, "return", tl, d.Return)
		sh.observeLocked(c.bounds, "publish", tl, d.Publish)
		sh.observeLocked(c.bounds, "total", tl, d.Total)
	}

	// Ring insert with eviction.
	if old := sh.ring[sh.ringPos]; old != "" {
		delete(sh.completed, old)
		sh.dropped++
	}
	sh.ring[sh.ringPos] = id
	sh.ringPos = (sh.ringPos + 1) % len(sh.ring)
	sh.completed[id] = tl
	hook := c.OnFinish
	sh.mu.Unlock()

	if hook != nil {
		hook(tl)
	}
}

func (sh *cshard) observeLocked(bounds []float64, stage string, tl *Timeline, d time.Duration) {
	k := histKey{stage: stage, endpoint: tl.Endpoint, group: tl.Group}
	h, ok := sh.hists[k]
	if !ok {
		h = NewHistogram(bounds)
		sh.hists[k] = h
	}
	h.ObserveLinked(d.Seconds(), tl.TaskID, tl.DAGID)
}

// Get returns a copy of a task's timeline — in flight or completed —
// or ok false when the task was never traced (or its record was
// evicted).
func (c *Collector) Get(id types.TaskID) (*Timeline, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if tl, ok := sh.active[id]; ok {
		return tl.clone(), true
	}
	if tl, ok := sh.completed[id]; ok {
		return tl.clone(), true
	}
	return nil, false
}

// Histograms snapshots every per-stage histogram series, merging the
// per-shard folds and sorting by (stage, endpoint, group) for
// deterministic exposition.
func (c *Collector) Histograms() []Snapshot {
	if c == nil {
		return nil
	}
	// Merge per-shard histograms by key: scrape-time cost, so the
	// lifecycle hot path never crosses shards.
	type agg struct {
		counts    []uint64
		inf       uint64
		sum       float64
		count     uint64
		exemplars []bucketExemplar
	}
	merged := make(map[histKey]*agg)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, h := range sh.hists {
			a, ok := merged[k]
			if !ok {
				a = &agg{
					counts:    make([]uint64, len(h.counts)),
					exemplars: make([]bucketExemplar, len(h.counts)+1),
				}
				merged[k] = a
			}
			for j, n := range h.counts {
				a.counts[j] += n
			}
			a.inf += h.inf
			a.sum += h.sum
			a.count += h.count
			for j, e := range h.exemplars {
				if e.id != "" {
					a.exemplars[j] = e
				}
			}
		}
		sh.mu.Unlock()
	}
	out := make([]Snapshot, 0, len(merged))
	for k, a := range merged {
		cum := make([]uint64, len(a.counts))
		var run uint64
		for i, n := range a.counts {
			run += n
			cum[i] = run
		}
		ex := make([]Exemplar, len(a.exemplars))
		for i, e := range a.exemplars {
			if e.id != "" {
				ex[i] = Exemplar{TaskID: e.id, TraceID: TraceID(e.id, e.dag), Value: e.v}
			}
		}
		out = append(out, Snapshot{
			Stage:      k.stage,
			Endpoint:   k.endpoint,
			Group:      k.group,
			Bounds:     c.bounds,
			Cumulative: cum,
			Sum:        a.sum,
			Count:      a.count,
			Exemplars:  ex,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		if out[i].Endpoint != out[j].Endpoint {
			return out[i].Endpoint < out[j].Endpoint
		}
		return out[i].Group < out[j].Group
	})
	return out
}

// Stats returns collector occupancy: in-flight timelines, retained
// completed timelines, and how many completed records were evicted.
func (c *Collector) Stats() (active, completed int, evicted int64) {
	if c == nil {
		return 0, 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		active += len(sh.active)
		completed += len(sh.completed)
		evicted += sh.dropped
		sh.mu.Unlock()
	}
	return active, completed, evicted
}
