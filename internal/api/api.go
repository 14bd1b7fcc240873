// Package api defines the REST request/response shapes shared by the
// funcX service (server side) and SDK (client side), mirroring the
// JSON API of paper §3: register functions, register endpoints, submit
// tasks, poll status, and retrieve results.
package api

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"funcx/internal/trace"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// FrameMediaType names the binary encoding of the two per-task client
// surfaces, where a payload or an output would otherwise travel as
// base64 inside JSON. As the Content-Type of POST /v1/tasks it makes
// the body a submission frame (EncodeSubmitFrame); as the Accept of
// GET /v1/events it makes the response a stream of event frames
// (internal/wire) under the same Content-Type. A request that does not
// name it is served JSON and Server-Sent Events as before.
const FrameMediaType = "application/vnd.funcx.frame"

// IsFrameType reports whether a Content-Type or Accept header value
// names FrameMediaType, alone or among others, parameters ignored.
func IsFrameType(header string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		part, _, _ = strings.Cut(part, ";")
		if strings.TrimSpace(part) == FrameMediaType {
			return true
		}
	}
	return false
}

// RegisterFunctionRequest registers a function (POST /v1/functions).
type RegisterFunctionRequest struct {
	Name string `json:"name"`
	// Body is the serialized function body.
	Body []byte `json:"body"`
	// Container optionally pins an execution environment.
	Container types.ContainerSpec `json:"container,omitempty"`
	// SharedWith lists users permitted to invoke ("*" = public).
	SharedWith []types.UserID `json:"shared_with,omitempty"`
	// FunctionID is only honored on shard-to-shard replication hops
	// (requests carrying the gateway's hop header): the origin shard
	// broadcasts the record it minted so every shard stores the same
	// id. Client requests setting it are rejected.
	FunctionID types.FunctionID `json:"function_id,omitempty"`
}

// RegisterFunctionResponse returns the assigned identifiers.
type RegisterFunctionResponse struct {
	FunctionID types.FunctionID `json:"function_id"`
	BodyHash   string           `json:"body_hash"`
	Version    int              `json:"version"`
}

// UpdateFunctionRequest replaces a function body (PUT /v1/functions/{id}).
type UpdateFunctionRequest struct {
	Body []byte `json:"body"`
}

// ShareFunctionRequest extends a function's sharing list.
type ShareFunctionRequest struct {
	Users []types.UserID `json:"users"`
}

// RegisterEndpointRequest registers an endpoint (POST /v1/endpoints).
type RegisterEndpointRequest struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Public      bool   `json:"public,omitempty"`
	// Labels declare the endpoint's capabilities/locality (e.g.
	// "gpu":"a100", "site":"anl") for router label matching.
	Labels map[string]string `json:"labels,omitempty"`
}

// RegisterEndpointResponse returns the endpoint identity and the
// forwarder created for it (paper §4.1: a unique forwarder process is
// created for each endpoint, and communication addresses are exchanged
// during registration).
type RegisterEndpointResponse struct {
	EndpointID types.EndpointID `json:"endpoint_id"`
	// ForwarderNetwork/ForwarderAddr locate the forwarder listener
	// the endpoint agent must dial.
	ForwarderNetwork string `json:"forwarder_network"`
	ForwarderAddr    string `json:"forwarder_addr"`
	// EndpointToken authenticates the agent to the forwarder (the
	// endpoint's native-client credential).
	EndpointToken string `json:"endpoint_token"`
}

// SubmitRequest submits one task (POST /v1/tasks). Exactly one of
// EndpointID and GroupID must be set: a concrete endpoint pins
// placement (the HPDC 2020 model), an endpoint group delegates it to
// the service's router.
type SubmitRequest struct {
	FunctionID types.FunctionID `json:"function_id"`
	EndpointID types.EndpointID `json:"endpoint_id,omitempty"`
	// GroupID targets an endpoint group; the router picks the member.
	GroupID types.GroupID `json:"group_id,omitempty"`
	// Labels optionally constrain group placement to endpoints
	// carrying these labels (ignored for direct submissions).
	Labels map[string]string `json:"labels,omitempty"`
	// Payload is the serialized input arguments.
	Payload []byte `json:"payload"`
	// Memoize opts into result caching (§4.7).
	Memoize bool `json:"memoize,omitempty"`
	// BatchN marks a user-driven batch payload of N packed argument
	// buffers (fmap, §4.7).
	BatchN int `json:"batch_n,omitempty"`
	// Walltime is the expected execution duration (nanoseconds); it
	// extends the task's dispatch lease so long-running work is not
	// reclaimed as lost mid-execution.
	Walltime time.Duration `json:"walltime,omitempty"`
	// MaxRetries bounds service-side redeliveries after dispatch
	// failures; exhaustion retires the task as "lost" (0 = the group's
	// budget, else the service default).
	MaxRetries int `json:"max_retries,omitempty"`
	// AtMostOnce opts the task out of redelivery for non-idempotent
	// functions: agent loss fails it fast as "lost" instead of
	// re-running it.
	AtMostOnce bool `json:"at_most_once,omitempty"`
	// DependsOn lists already-submitted tasks whose outputs this task
	// consumes: the service holds the task until every parent lands,
	// binds the parent outputs into the payload server-side (see
	// internal/dag), and propagates a parent failure as a typed child
	// failure. The task id is returned immediately.
	DependsOn []types.TaskID `json:"depends_on,omitempty"`
}

// EncodeSubmitFrame is r as the body of a POST /v1/tasks of
// FrameMediaType: a task frame holding the submission's fields and
// nothing else, the payload raw behind its header. DependsOn has no
// place in a task frame; a dependent submission goes as JSON.
func EncodeSubmitFrame(r *SubmitRequest) []byte {
	return wire.EncodeTask(&types.Task{
		FunctionID: r.FunctionID, EndpointID: r.EndpointID, GroupID: r.GroupID,
		Selector: r.Labels, Payload: r.Payload, Memoize: r.Memoize, BatchN: r.BatchN,
		Walltime: r.Walltime, MaxRetries: r.MaxRetries, AtMostOnce: r.AtMostOnce,
	})
}

// ErrServerField is returned by DecodeSubmitFrame and DecodeSubmitBatch
// for a frame that sets a field only the service may write.
var ErrServerField = errors.New("submission frame sets a server-owned field")

// DecodeSubmitFrame reads a submission frame; the request's Payload
// aliases data. The fields of a task that the service stamps at
// placement (id, owner, body hash, container, attempt, submission time,
// trace context) must be absent.
func DecodeSubmitFrame(data []byte) (SubmitRequest, error) {
	t, err := wire.DecodeTask(data)
	if err != nil {
		return SubmitRequest{}, err
	}
	return submissionOf(t)
}

// DecodeSubmitBatch reads several submissions for one target sent as one
// body of a POST /v1/tasks of FrameMediaType: a batch frame
// (wire.JoinTasks, told from one submission frame by wire.IsTaskBatch)
// of the frames EncodeSubmitFrame made of each, which the service
// answers with a SubmitBatchResponse. The submissions come back in
// order, their Payloads aliasing data; each is held to what
// DecodeSubmitFrame asks of one, and the error names the first that is
// not.
func DecodeSubmitBatch(data []byte) ([]SubmitRequest, error) {
	ts, err := wire.DecodeTasks(data)
	if err != nil {
		return nil, err
	}
	reqs := make([]SubmitRequest, len(ts))
	for i, t := range ts {
		if reqs[i], err = submissionOf(t); err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return reqs, nil
}

// submissionOf is the submission a task frame holds, refusing a task
// that carries anything the service stamps.
func submissionOf(t *types.Task) (SubmitRequest, error) {
	var set string
	switch {
	case t.ID != "":
		set = "id"
	case t.Owner != "":
		set = "owner"
	case t.BodyHash != "":
		set = "body hash"
	case t.Container != (types.ContainerSpec{}):
		set = "container"
	case t.Attempt != 0:
		set = "attempt"
	case !t.Submitted.IsZero():
		set = "submitted"
	case t.Trace != nil:
		set = "trace"
	}
	if set != "" {
		return SubmitRequest{}, fmt.Errorf("%w: %s", ErrServerField, set)
	}
	return SubmitRequest{
		FunctionID: t.FunctionID, EndpointID: t.EndpointID, GroupID: t.GroupID,
		Labels: t.Selector, Payload: t.Payload, Memoize: t.Memoize, BatchN: t.BatchN,
		Walltime: t.Walltime, MaxRetries: t.MaxRetries, AtMostOnce: t.AtMostOnce,
	}, nil
}

// SubmitResponse returns the task id.
type SubmitResponse struct {
	TaskID types.TaskID `json:"task_id"`
	// EndpointID is where the task was placed (echoes the request for
	// direct submissions; reports the router's choice for group ones).
	EndpointID types.EndpointID `json:"endpoint_id,omitempty"`
	// Memoized indicates the result was served from cache at submit
	// time and is immediately available.
	Memoized bool `json:"memoized,omitempty"`
	// DAGID is set for dependent submissions (DependsOn non-empty):
	// the single-node graph holding the task until its parents land.
	DAGID types.DAGID `json:"dag_id,omitempty"`
	// ShardID/ShardURL name the service shard that owns the task in a
	// sharded deployment (absent otherwise). The SDK pins the task's
	// event stream to ShardURL: lifecycle events are published on the
	// owner shard's bus, not the front door's.
	ShardID  string `json:"shard_id,omitempty"`
	ShardURL string `json:"shard_url,omitempty"`
}

// SubmitOutcome is what became of one submission of a batch frame: the
// SubmitResponse a submission frame of its own would have been
// answered with, or, when Status is set, the HTTP status and error text
// it would have been refused with.
type SubmitOutcome struct {
	SubmitResponse
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SubmitBatchResponse answers a batch frame on POST /v1/tasks: one
// outcome per submission, in the frame's order. The submissions are
// independent; one refused does not hold back the rest.
type SubmitBatchResponse struct {
	Outcomes []SubmitOutcome `json:"outcomes"`
}

// DAGNodeSpec declares one node of a dependency graph: a task
// submission template plus the edges feeding it.
type DAGNodeSpec struct {
	// Key names the node uniquely within the graph.
	Key        string            `json:"key"`
	FunctionID types.FunctionID  `json:"function_id"`
	EndpointID types.EndpointID  `json:"endpoint_id,omitempty"`
	GroupID    types.GroupID     `json:"group_id,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	// Payload is the node's own arguments. Nodes with parents receive
	// an envelope wrapping these args with the parent outputs (inline
	// bytes, or dataref references for large outputs) — the binding
	// happens inside the service, so no output bytes transit the
	// client.
	Payload []byte `json:"payload,omitempty"`
	// DependsOn names parent nodes of this graph by key.
	DependsOn []string `json:"depends_on,omitempty"`
	// Requires names already-submitted tasks outside the graph whose
	// outputs this node consumes (resolved cross-shard via the
	// gateway when another shard owns them).
	Requires   []types.TaskID `json:"requires,omitempty"`
	Memoize    bool           `json:"memoize,omitempty"`
	Walltime   time.Duration  `json:"walltime,omitempty"`
	MaxRetries int            `json:"max_retries,omitempty"`
	AtMostOnce bool           `json:"at_most_once,omitempty"`
}

// SubmitDAGRequest submits a whole dependency graph in one call
// (POST /v1/dags). The graph is validated acyclic up front; every
// node's task id is minted and returned immediately, while the
// service releases nodes as their parents land.
type SubmitDAGRequest struct {
	Nodes []DAGNodeSpec `json:"nodes"`
}

// SubmitDAGResponse returns the graph id and the pre-minted task id
// of every node, keyed by node key.
type SubmitDAGResponse struct {
	DAGID types.DAGID             `json:"dag_id"`
	Tasks map[string]types.TaskID `json:"tasks"`
	// Memoized lists nodes whose results were served wholesale from
	// the memo cache at submit time (an unchanged subgraph
	// short-circuits without dispatching).
	Memoized []string `json:"memoized,omitempty"`
	// ShardID/ShardURL name the shard owning the whole graph in a
	// sharded deployment (DAG ids mint ring-aligned, so one shard owns
	// every node).
	ShardID  string `json:"shard_id,omitempty"`
	ShardURL string `json:"shard_url,omitempty"`
}

// DAGNodeStatus is one node's live state inside a DAGStatusResponse.
type DAGNodeStatus struct {
	Key    string       `json:"key"`
	TaskID types.TaskID `json:"task_id,omitempty"`
	// State is the node's graph state: "held" (waiting on parents),
	// "released" (handed to placement), or terminal
	// ("success"/"failed"/"lost").
	State string `json:"state"`
	// External marks a parent task submitted outside the graph.
	External   bool             `json:"external,omitempty"`
	EndpointID types.EndpointID `json:"endpoint_id,omitempty"`
	// Error is the serialized terminal error; dependency failures
	// carry the typed dag_dependency_failed document.
	Error    string `json:"error,omitempty"`
	Memoized bool   `json:"memoized,omitempty"`
	// Ref describes the node's output as a data reference when it was
	// too large to bind inline ("globus://endpoint/name").
	Ref string `json:"ref,omitempty"`
}

// DAGStatusResponse reports a graph's per-node status
// (GET /v1/dags/{id}).
type DAGStatusResponse struct {
	DAGID types.DAGID `json:"dag_id"`
	// Status summarizes the graph: "running", "success", or "failed".
	Status types.TaskStatus `json:"status"`
	// Nodes lists every node in topological order.
	Nodes []DAGNodeStatus `json:"nodes"`
}

// BatchSubmitRequest submits many tasks at once (POST /v1/tasks/batch).
type BatchSubmitRequest struct {
	Tasks []SubmitRequest `json:"tasks"`
}

// BatchSubmitResponse returns ids in submission order.
type BatchSubmitResponse struct {
	TaskIDs []types.TaskID `json:"task_ids"`
}

// WaitTasksRequest waits on many tasks in one request
// (POST /v1/tasks/wait): the server holds the request open up to Wait
// and returns whichever tasks completed, superseding one long-poll
// per task.
type WaitTasksRequest struct {
	TaskIDs []types.TaskID `json:"task_ids"`
	// Wait is how long the server may hold the request open, as a Go
	// duration string (e.g. "30s"; capped server-side at 5m). Empty
	// or "0" returns immediately with whatever is already complete.
	Wait string `json:"wait,omitempty"`
}

// WaitTasksResponse returns the completed subset and the ids still
// pending when the deadline expired. Retrieved results are subject to
// the same purge-on-read semantics as GET /v1/tasks/{id}/result.
type WaitTasksResponse struct {
	Results []ResultResponse `json:"results"`
	Pending []types.TaskID   `json:"pending,omitempty"`
}

// EventsTerminalParam is the GET /v1/events query parameter that
// narrows the stream to completions: with terminal=1 only events that
// retire a task (success, failed, lost — the ones carrying a result)
// are sent, so seqs on the stream increase but are not contiguous.
// Last-Event-ID resume works as on the full stream.
const EventsTerminalParam = "terminal"

// StatusResponse reports a task's lifecycle state (GET /v1/tasks/{id}).
type StatusResponse struct {
	TaskID types.TaskID     `json:"task_id"`
	Status types.TaskStatus `json:"status"`
}

// ResultResponse returns a completed task's outcome
// (GET /v1/tasks/{id}/result).
type ResultResponse struct {
	TaskID types.TaskID `json:"task_id"`
	// Output is the serialized return value (absent on failure).
	Output []byte `json:"output,omitempty"`
	// Error is the serialized traceback (absent on success).
	Error string `json:"error,omitempty"`
	// Memoized marks cache-served results.
	Memoized bool `json:"memoized,omitempty"`
	// Lost marks a synthetic result for a task the delivery layer gave
	// up on (terminal status "lost"); Error carries the explanation.
	Lost bool `json:"lost,omitempty"`
	// Timing is the per-hop latency breakdown (Figure 4).
	Timing TimingBreakdown `json:"timing"`
}

// TimingBreakdown mirrors types.Timing in JSON-friendly nanoseconds.
type TimingBreakdown struct {
	TSNanos int64 `json:"ts_ns"`
	TFNanos int64 `json:"tf_ns"`
	TENanos int64 `json:"te_ns"`
	TWNanos int64 `json:"tw_ns"`
}

// FromTiming converts a types.Timing.
func FromTiming(t types.Timing) TimingBreakdown {
	return TimingBreakdown{
		TSNanos: int64(t.TS), TFNanos: int64(t.TF),
		TENanos: int64(t.TE), TWNanos: int64(t.TW),
	}
}

// Timing converts back to types.Timing.
func (tb TimingBreakdown) Timing() types.Timing {
	return types.Timing{
		TS: time.Duration(tb.TSNanos), TF: time.Duration(tb.TFNanos),
		TE: time.Duration(tb.TENanos), TW: time.Duration(tb.TWNanos),
	}
}

// TraceStamp is one lifecycle stage observation on a task timeline,
// as an offset from the submit arrival on the service's monotonic
// clock.
type TraceStamp struct {
	Stage       string `json:"stage"`
	OffsetNanos int64  `json:"offset_ns"`
}

// TraceRemote carries the endpoint-side stage deltas shipped back with
// the result: durations measured entirely on the endpoint machine's
// clock, so clock skew between service and endpoint never corrupts
// them.
type TraceRemote struct {
	ExecNanos         int64 `json:"exec_ns"`
	ManagerQueueNanos int64 `json:"manager_queue_ns,omitempty"`
	AgentQueueNanos   int64 `json:"agent_queue_ns,omitempty"`
}

// TraceDecomposition is the per-stage latency breakdown of one
// completed task: the six stages partition TotalNanos exactly.
type TraceDecomposition struct {
	SubmitNanos   int64 `json:"submit_ns"`
	QueueNanos    int64 `json:"queue_ns"`
	DispatchNanos int64 `json:"dispatch_ns"`
	ExecuteNanos  int64 `json:"execute_ns"`
	ReturnNanos   int64 `json:"return_ns"`
	PublishNanos  int64 `json:"publish_ns"`
	TotalNanos    int64 `json:"total_ns"`
}

// TaskTraceResponse is a task's recorded timeline
// (GET /v1/tasks/{id}/trace): the raw stage stamps, the endpoint-side
// deltas when the result carried them, and — once the task retired —
// the derived per-stage decomposition.
type TaskTraceResponse struct {
	TaskID     types.TaskID     `json:"task_id"`
	EndpointID types.EndpointID `json:"endpoint_id,omitempty"`
	GroupID    types.GroupID    `json:"group_id,omitempty"`
	// Start is the submit arrival wall time anchoring the offsets.
	Start time.Time `json:"start"`
	// Done marks a retired task (its terminal event has published).
	Done          bool                `json:"done"`
	Stamps        []TraceStamp        `json:"stamps"`
	Remote        *TraceRemote        `json:"remote,omitempty"`
	Decomposition *TraceDecomposition `json:"decomposition,omitempty"`
}

// FromTimeline converts a recorded timeline to its wire shape,
// deriving the decomposition for finished timelines.
func FromTimeline(tl *trace.Timeline) TaskTraceResponse {
	resp := TaskTraceResponse{
		TaskID:     tl.TaskID,
		EndpointID: tl.Endpoint,
		GroupID:    tl.Group,
		Start:      tl.Start,
		Done:       tl.Done,
		Stamps:     make([]TraceStamp, len(tl.Stamps)),
	}
	for i, st := range tl.Stamps {
		resp.Stamps[i] = TraceStamp{Stage: string(st.Stage), OffsetNanos: int64(st.Offset)}
	}
	if tl.Remote != nil {
		resp.Remote = &TraceRemote{
			ExecNanos:         int64(tl.Remote.Exec),
			ManagerQueueNanos: int64(tl.Remote.ManagerQueue),
			AgentQueueNanos:   int64(tl.Remote.AgentQueue),
		}
	}
	if d, ok := trace.Decompose(tl); ok {
		resp.Decomposition = &TraceDecomposition{
			SubmitNanos:   int64(d.Submit),
			QueueNanos:    int64(d.Queue),
			DispatchNanos: int64(d.Dispatch),
			ExecuteNanos:  int64(d.Execute),
			ReturnNanos:   int64(d.Return),
			PublishNanos:  int64(d.Publish),
			TotalNanos:    int64(d.Total),
		}
	}
	return resp
}

// EndpointStatusResponse reports endpoint health
// (GET /v1/endpoints/{id}/status).
type EndpointStatusResponse struct {
	Status types.EndpointStatus `json:"status"`
}

// CreateGroupRequest creates an endpoint group (POST /v1/groups).
type CreateGroupRequest struct {
	Name string `json:"name"`
	// Policy names the placement policy (see internal/router); empty
	// selects the default (least-outstanding).
	Policy string `json:"policy,omitempty"`
	// Public groups accept tasks from any authenticated user.
	Public bool `json:"public,omitempty"`
	// Members are the candidate endpoints.
	Members []types.GroupMember `json:"members"`
	// RetryBudget is the group's default per-task redelivery budget
	// (0 = the service default): tasks placed through the group that
	// set no MaxRetries of their own are reclaimed at most this many
	// times before landing as "lost".
	RetryBudget int `json:"retry_budget,omitempty"`
	// Elastic, when set, opts the group into the service's fleet
	// autoscaling controller (see internal/elastic), which pushes
	// scaling advice to member endpoints from group-wide backlog.
	Elastic *types.ElasticSpec `json:"elastic,omitempty"`
}

// CreateGroupResponse returns the created group record.
type CreateGroupResponse struct {
	Group types.EndpointGroup `json:"group"`
}

// AddGroupMembersRequest appends members to a group
// (POST /v1/groups/{id}/members).
type AddGroupMembersRequest struct {
	Members []types.GroupMember `json:"members"`
}

// GroupStatusResponse reports a group and the live status of each
// member (GET /v1/groups/{id}).
type GroupStatusResponse struct {
	Group types.EndpointGroup `json:"group"`
	// Members carries one live snapshot per member, in member order.
	Members []types.EndpointStatus `json:"members"`
}

// MemberElasticity pairs one group member's live status with the
// latest scaling advice the controller pushed to it (absent before
// the first evaluation, and for non-elastic groups).
type MemberElasticity struct {
	Status types.EndpointStatus `json:"status"`
	Advice *types.ScalingAdvice `json:"advice,omitempty"`
}

// GroupElasticityResponse reports a group's elasticity state
// (GET /v1/groups/{id}/elasticity): the group record including its
// ElasticSpec, plus per-member status and latest advice in member
// order.
type GroupElasticityResponse struct {
	Group   types.EndpointGroup `json:"group"`
	Members []MemberElasticity  `json:"members"`
}

// EndpointStats is one endpoint's operational counters inside a
// StatsResponse: the forwarder's live view plus cumulative
// delivery-layer totals since the service booted.
type EndpointStats struct {
	EndpointID types.EndpointID `json:"endpoint_id"`
	Connected  bool             `json:"connected"`
	// Queued/Outstanding are the live queue depth and
	// dispatched-but-unfinished count.
	Queued      int `json:"queued"`
	Outstanding int `json:"outstanding"`
	// Dispatched/Completed/Requeued/Reclaimed are cumulative: tasks
	// shipped to the agent, results stored, local requeues after
	// disconnects, and leases reclaimed by the service.
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	Requeued   int64 `json:"requeued"`
	Reclaimed  int64 `json:"reclaimed"`
	// ReclaimRate is the decaying reclaim/lost EWMA the router's
	// lease-aware penalty is derived from (0 = healthy).
	ReclaimRate float64 `json:"reclaim_rate"`
}

// StatsResponse is the service's operational counter surface
// (GET /v1/stats): per-shard and per-endpoint task totals, delivery
// outcomes, and elasticity activity, as one JSON document. In a
// sharded deployment each shard reports only itself — poll every
// shard's /v1/stats for the fleet view.
type StatsResponse struct {
	// ShardID identifies the reporting shard ("" when unsharded).
	ShardID string `json:"shard_id,omitempty"`
	// Shards is the ring size (0 when unsharded).
	Shards int `json:"shards,omitempty"`
	// Task totals.
	Submitted int64 `json:"submitted"`
	MemoHits  int64 `json:"memo_hits"`
	Rerouted  int64 `json:"rerouted"`
	Retried   int64 `json:"retried"`
	Lost      int64 `json:"lost"`
	// Proxied/Redirected count cross-shard gateway hops served by this
	// shard as the front door.
	Proxied    int64 `json:"proxied,omitempty"`
	Redirected int64 `json:"redirected,omitempty"`
	// ElasticEvaluations counts fleet-autoscaler decision rounds.
	ElasticEvaluations int64 `json:"elastic_evaluations"`
	// EventUsers is the number of per-user event streams currently
	// held by the bus.
	EventUsers int `json:"event_users"`
	// EventSubscribers/EventBufferedEvents/EventPendingDone/
	// EventSeqTombstones are the rest of the event bus's gauge set:
	// live subscriptions, events buffered across replay rings,
	// tasks carrying completion registrations, and evicted users whose
	// numbering is preserved. /v1/metrics reports the same values.
	EventSubscribers    int `json:"event_subscribers"`
	EventBufferedEvents int `json:"event_buffered_events"`
	EventPendingDone    int `json:"event_pending_done"`
	EventSeqTombstones  int `json:"event_seq_tombstones"`
	// TraceActive/TraceCompleted are the trace collector's live
	// timeline counts; TraceEvicted counts completed timelines dropped
	// from the retention ring (their histograms already folded). All
	// zero when tracing is disabled.
	TraceActive    int   `json:"trace_active,omitempty"`
	TraceCompleted int   `json:"trace_completed,omitempty"`
	TraceEvicted   int64 `json:"trace_evicted,omitempty"`
	// DAG subsystem counters: graphs accepted, graphs retired, nodes
	// held then released server-side (each release is an internal edge
	// that cost the client zero requests), nodes failed by dependency
	// propagation, nodes short-circuited wholesale by the memo cache,
	// and graphs currently in flight.
	DAGsSubmitted   int64 `json:"dags_submitted,omitempty"`
	DAGsCompleted   int64 `json:"dags_completed,omitempty"`
	DAGNodes        int64 `json:"dag_nodes,omitempty"`
	DAGReleases     int64 `json:"dag_releases,omitempty"`
	DAGDepFailures  int64 `json:"dag_dep_failures,omitempty"`
	DAGMemoShortcut int64 `json:"dag_memo_shortcuts,omitempty"`
	DAGsActive      int   `json:"dags_active,omitempty"`
	// DAGsEvicted counts finished graphs dropped from the DAG table
	// after outliving Config.DAGRetention.
	DAGsEvicted int64 `json:"dags_evicted,omitempty"`
	// StreamPurged counts results dropped from the store early because
	// their terminal event (with inline result) was delivered on the
	// owner's live SSE stream — the ack-on-stream purge.
	StreamPurged int64 `json:"stream_purged,omitempty"`
	// OTLP exporter counters, present when the instance runs with an
	// OTLP endpoint configured: spans delivered in accepted batches,
	// completed timelines lost (displaced from the bounded queue or
	// carried by refused batches), failed export batches, and the live
	// export-queue depth.
	OTLPExported     int64 `json:"otlp_spans_exported,omitempty"`
	OTLPDropped      int64 `json:"otlp_timelines_dropped,omitempty"`
	OTLPExportErrors int64 `json:"otlp_export_errors,omitempty"`
	OTLPQueueDepth   int   `json:"otlp_queue_depth,omitempty"`
	// FleetScrapeErrors counts peer shards that failed to answer a
	// GET /v1/metrics/fleet scatter-gather — dead shards are reported
	// here rather than failing the merged scrape.
	FleetScrapeErrors int64 `json:"fleet_scrape_errors,omitempty"`
	// Endpoints carries one entry per registered endpoint, ordered by
	// endpoint id for stable output.
	Endpoints []EndpointStats `json:"endpoints"`
	// WAL carries the durability layer's counters when this instance
	// runs with a data dir (omitted for in-memory instances).
	WAL *WALStats `json:"wal,omitempty"`
}

// WALStats reports the durable store's journal counters: write/fsync
// activity since open plus what the last recovery replayed.
type WALStats struct {
	Appends           uint64 `json:"appends"`
	AppendedBytes     uint64 `json:"appended_bytes"`
	Fsyncs            uint64 `json:"fsyncs"`
	FsyncNanos        uint64 `json:"fsync_nanos"`
	Rotations         uint64 `json:"rotations"`
	Snapshots         uint64 `json:"snapshots"`
	Recovered         bool   `json:"recovered"`
	RecoveredRecords  uint64 `json:"recovered_records"`
	RecoveredSnapshot uint64 `json:"recovered_snapshot_bytes"`
	TornRecords       uint64 `json:"torn_records"`
}

// FunctionExportResponse is the hop-only anti-entropy export: every
// function record the serving shard holds. A shard recovering from a
// crash pulls this from each peer to converge on registrations it
// missed while down.
type FunctionExportResponse struct {
	Functions []*types.Function `json:"functions"`
}

// ShardHandoffRequest carries a leaving shard's state to one of the
// ring's next owners (POST /v1/shard/handoff, hop-authenticated): the
// endpoint and group records being re-homed plus every queued task
// with the control-plane metadata the importer must adopt.
type ShardHandoffRequest struct {
	From      string                 `json:"from"`
	Endpoints []*types.Endpoint      `json:"endpoints"`
	Groups    []*types.EndpointGroup `json:"groups,omitempty"`
	Tasks     []HandoffTask          `json:"tasks,omitempty"`
}

// HandoffTask is one queued task in a shard handoff: the wire-encoded
// task record plus the owner that keeps result retrieval, access
// control, and event routing working on the importer. Status is what
// the exporter's record said; the importer queues the task afresh.
type HandoffTask struct {
	ID     string `json:"id"`
	Data   []byte `json:"data"`
	Status string `json:"status,omitempty"`
	Owner  string `json:"owner,omitempty"`
}

// ShardHandoffResponse acknowledges a handoff import.
type ShardHandoffResponse struct {
	Endpoints int `json:"endpoints"`
	Groups    int `json:"groups"`
	Tasks     int `json:"tasks"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}
