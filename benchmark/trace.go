package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"funcx/internal/api"
	"funcx/internal/sdk"
	"funcx/internal/types"
)

// span is one timed interval of one traced task. Start and End are
// nanoseconds since the run began; Parent names the span that caused
// this one ("" for the task's root).
type span struct {
	Name   string `json:"name"`
	Task   string `json:"task"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Span names. The root is the client round trip; its children are the
// two SDK calls and the service's own timeline, whose six stages are
// named for the layer that owns them. The remote spans carry durations
// measured on the endpoint's clock; their offsets inside the parent
// stage are laid out in lifecycle order, not measured.
const (
	spanTask       = "task"
	spanSubmit     = "sdk.submit"
	spanResolve    = "sdk.resolve"
	spanService    = "service"
	spanAgentQueue = "endpoint.agent_queue"
	spanMgrQueue   = "manager.queue"
	spanExec       = "worker.exec"
	// spanOverhead is not recorded; it is what the root span lasts
	// beyond the service span: HTTP, JSON and the event stream's last
	// hop, as the client saw them.
	spanOverhead = "sdk.client_overhead"
)

var stageSpans = [6]string{
	"service.stage_submit", "forwarder.stage_queue", "endpoint.stage_dispatch",
	"worker.stage_execute", "endpoint.stage_return", "events.stage_publish",
}

// traceTask records the spans of one finished task: the client-side
// intervals just measured, plus the service timeline read back through
// the SDK.
func (r *run) traceTask(ctx context.Context, c *sdk.Client, id types.TaskID, called, submitted, resolved time.Time) {
	tr, err := finishedTrace(ctx, c, id)
	if err != nil {
		r.mu.Lock()
		r.checks = append(r.checks, fmt.Sprintf("task %s: %v", id, err))
		r.mu.Unlock()
		return
	}
	at := func(t time.Time) int64 { return int64(t.Sub(r.start)) }
	task := string(id)
	spans := []span{
		{Name: spanTask, Task: task, Start: at(called), End: at(resolved)},
		{Name: spanSubmit, Task: task, Parent: spanTask, Start: at(called), End: at(submitted)},
		{Name: spanResolve, Task: task, Parent: spanTask, Start: at(submitted), End: at(resolved)},
	}
	d := tr.Decomposition
	svc := at(tr.Start) // same process, same clock
	spans = append(spans, span{Name: spanService, Task: task, Parent: spanTask, Start: svc, End: svc + d.TotalNanos})
	stages := [6]int64{d.SubmitNanos, d.QueueNanos, d.DispatchNanos, d.ExecuteNanos, d.ReturnNanos, d.PublishNanos}
	off, sum := svc, int64(0)
	for i, ns := range stages {
		spans = append(spans, span{Name: stageSpans[i], Task: task, Parent: spanService, Start: off, End: off + ns})
		if rem := tr.Remote; rem != nil {
			switch i {
			case 2:
				spans = append(spans,
					span{Name: spanAgentQueue, Task: task, Parent: stageSpans[i], Start: off, End: off + rem.AgentQueueNanos},
					span{Name: spanMgrQueue, Task: task, Parent: stageSpans[i], Start: off + rem.AgentQueueNanos, End: off + rem.AgentQueueNanos + rem.ManagerQueueNanos})
			case 3:
				spans = append(spans, span{Name: spanExec, Task: task, Parent: stageSpans[i], Start: off, End: off + rem.ExecNanos})
			}
		}
		off += ns
		sum += ns
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spans...)
	if sum != d.TotalNanos {
		r.checks = append(r.checks, fmt.Sprintf("task %s: stages sum to %d ns, service total is %d ns", id, sum, d.TotalNanos))
	}
}

// finishedTrace reads a task's timeline, retrying briefly: the result
// can reach the client a scheduler tick before the service marks the
// timeline done.
func finishedTrace(ctx context.Context, c *sdk.Client, id types.TaskID) (*api.TaskTraceResponse, error) {
	for {
		tr, err := c.TaskTrace(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("reading trace: %w", err)
		}
		if tr.Done && tr.Decomposition != nil {
			return tr, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("trace never finished: %w", ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// spanMedians is the median duration in microseconds of every span
// name, spanOverhead included.
func spanMedians(spans []span) map[string]float64 {
	byName := map[string][]float64{}
	roundTrip := map[string]float64{}
	for _, s := range spans {
		us := float64(s.End-s.Start) / 1e3
		byName[s.Name] = append(byName[s.Name], us)
		if s.Name == spanTask {
			roundTrip[s.Task] = us
		}
	}
	for _, s := range spans {
		if s.Name == spanService {
			byName[spanOverhead] = append(byName[spanOverhead], roundTrip[s.Task]-float64(s.End-s.Start)/1e3)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// reconcile reports how far the six stage medians plus the client
// overhead median sit from the client round-trip median, as a share of
// the round trip.
func reconcile(med map[string]float64) float64 {
	sum := med[spanOverhead]
	for _, name := range stageSpans {
		sum += med[name]
	}
	if med[spanTask] == 0 {
		return 0
	}
	gap := sum - med[spanTask]
	if gap < 0 {
		gap = -gap
	}
	return gap / med[spanTask]
}

// writeSpans writes the run's spans, ordered by start, to
// trace_<workload>.json under dir.
func writeSpans(dir, workload string, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}
