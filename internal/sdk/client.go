// Package sdk is the funcX client SDK of paper §3, redesigned
// futures-first around the service's task-events API: a wrapper over
// the REST surface providing RegisterFunction, Submit, futures
// (SubmitFuture / RunFuture / MapFuture, resolved by one shared event
// stream consumer per client with batch-wait fallback), batched
// result gathering (GetResults over POST /v1/tasks/wait), and the
// user-driven batching Map command (fmap, §4.7). Submissions made
// concurrently on one client to one endpoint or group share requests
// (submit.go), so callers need not batch by hand to be spared a round
// trip per task. The Go client still mirrors the Python FuncXClient of
// Listing 1:
//
//	fc := sdk.New(serviceURL, token)
//	defer fc.Close()
//	funcID, _ := fc.RegisterFunction(ctx, "preview", body, spec, nil)
//	fut, _ := fc.SubmitFuture(ctx, sdk.SubmitSpec{Function: funcID, Endpoint: endpointID, Payload: args})
//	res, _ := fut.Get(ctx)
package sdk

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"sync"
	"time"

	"funcx/internal/api"
	"funcx/internal/netlat"
	"funcx/internal/serial"
	"funcx/internal/types"
)

// ErrNotReady is returned by TryResult when the task has not finished.
var ErrNotReady = errors.New("sdk: result not ready")

// ErrTaskFailed wraps remote execution failures.
var ErrTaskFailed = errors.New("sdk: task failed")

// ErrTaskLost wraps delivery-layer give-ups: the task's retry budget
// was exhausted, or it was submitted at-most-once and its endpoint
// was lost mid-flight. Futures and result fetches resolve with this
// typed error (it also matches ErrTaskFailed) instead of hanging.
var ErrTaskLost = errors.New("sdk: task lost")

// ErrUnsupported marks an event stream the server does not serve as
// frames; the stream consumer falls back to batched waits.
var ErrUnsupported = errors.New("sdk: not supported by server")

// ErrClosed is returned by future-producing calls on a closed client,
// and resolves any futures still pending at Close.
var ErrClosed = errors.New("sdk: client closed")

// Client talks to a funcX service.
type Client struct {
	baseURL string
	token   string
	httpc   *http.Client
	// Lat optionally injects WAN latency per request round trip
	// (client-side of the Table 1 setup).
	Lat *netlat.Link
	// PollInterval is the spacing of result polls when the server
	// cannot block (default 2 ms for in-process experiments).
	PollInterval time.Duration
	// WaitHint asks the server to block result retrievals up to this
	// long per request (long-poll and batch-wait), reducing round
	// trips.
	WaitHint time.Duration

	// mu guards the lazily started stream consumers behind futures:
	// one per service shard the client has submitted to (keyed by the
	// shard's base URL; "" is the front door), so each future's event
	// stream is pinned to the shard that owns its task and publishes
	// its events.
	mu        sync.Mutex
	streamers map[string]*streamer
	closed    bool

	// submitMu guards the per-target submit queues (submit.go) and the
	// counters they keep.
	submitMu sync.Mutex
	submits  map[submitTarget]*submitQueue
	counters Counters
}

// New creates a client for the service at baseURL using the given
// bearer token. The client follows shard redirects (307s from a
// sharded service's gateway), re-attaching the bearer token on each
// hop — Go strips Authorization on some cross-host redirects, and
// shard siblings count as different hosts.
func New(baseURL, token string) *Client {
	c := &Client{
		baseURL:      baseURL,
		token:        token,
		PollInterval: 2 * time.Millisecond,
		WaitHint:     30 * time.Second,
	}
	c.httpc = &http.Client{
		Timeout: 10 * time.Minute,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= 5 {
				return errors.New("sdk: too many shard redirects (ring configs may disagree)")
			}
			req.Header.Set("Authorization", "Bearer "+c.token)
			return nil
		},
	}
	return c
}

// WithHTTPClient substitutes the underlying HTTP client (tests use
// in-process transports).
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.httpc = h
	return c
}

// Close stops the background stream consumers, if any, resolves any
// still-pending futures with ErrClosed, and fails with ErrClosed the
// submissions queued behind a request in flight. The client remains
// usable for plain (non-future) calls.
func (c *Client) Close() {
	c.mu.Lock()
	sts := c.streamers
	c.streamers = nil
	c.closed = true
	c.mu.Unlock()
	c.closeSubmits()
	for _, st := range sts {
		st.stop()
	}
}

// do performs one authenticated JSON request/response cycle against
// the front door, sleeping the WAN link in both directions when
// configured.
func (c *Client) do(ctx context.Context, method, path string, reqBody, respBody any) (int, error) {
	return c.doAt(ctx, method, "", path, reqBody, respBody)
}

// doAt is do against an explicit shard base URL ("" = the front
// door): the per-shard stream consumers keep their wait and poll
// traffic on the shard that owns their tasks.
func (c *Client) doAt(ctx context.Context, method, base, path string, reqBody, respBody any) (int, error) {
	var body []byte
	if reqBody != nil {
		var err error
		if body, err = json.Marshal(reqBody); err != nil {
			return 0, fmt.Errorf("sdk: encoding request: %w", err)
		}
	}
	return c.send(ctx, method, base, path, "application/json", body, respBody)
}

// send performs one authenticated request whose body (nil for none) is
// already encoded as contentType, and decodes the JSON response.
func (c *Client) send(ctx context.Context, method, base, path, contentType string, reqBody []byte, respBody any) (int, error) {
	if base == "" {
		base = c.baseURL
	}
	var body io.Reader
	if reqBody != nil {
		// A *bytes.Reader body can be replayed, which following a
		// shard's 307 needs.
		body = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return 0, fmt.Errorf("sdk: building request: %w", err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Content-Type", contentType)

	c.Lat.Delay() // client -> service
	resp, err := c.httpc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("sdk: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	c.Lat.Delay() // service -> client

	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("sdk: reading response: %w", err)
	}
	if resp.StatusCode >= 400 {
		var e api.ErrorResponse
		if json.Unmarshal(data, &e) != nil {
			e.Error = "" // not an error document: the status speaks
		}
		return resp.StatusCode, apiError(method, path, resp.StatusCode, e.Error)
	}
	if respBody != nil {
		if err := json.Unmarshal(data, respBody); err != nil {
			return resp.StatusCode, fmt.Errorf("sdk: decoding response: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// apiError is the error of a request the service refused with status
// and, when it said why, msg.
func apiError(method, path string, status int, msg string) error {
	if msg != "" {
		return fmt.Errorf("sdk: %s %s: %s (HTTP %d)", method, path, msg, status)
	}
	return fmt.Errorf("sdk: %s %s: HTTP %d", method, path, status)
}

// RegisterFunction registers a function body, returning its id.
func (c *Client) RegisterFunction(ctx context.Context, name string, body []byte, container types.ContainerSpec, sharedWith []types.UserID) (types.FunctionID, error) {
	var resp api.RegisterFunctionResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/functions", api.RegisterFunctionRequest{
		Name: name, Body: body, Container: container, SharedWith: sharedWith,
	}, &resp)
	if err != nil {
		return "", err
	}
	return resp.FunctionID, nil
}

// UpdateFunction replaces a function body (owner only).
func (c *Client) UpdateFunction(ctx context.Context, id types.FunctionID, body []byte) error {
	_, err := c.do(ctx, http.MethodPut, "/v1/functions/"+string(id), api.UpdateFunctionRequest{Body: body}, nil)
	return err
}

// ShareFunction shares a function with more users.
func (c *Client) ShareFunction(ctx context.Context, id types.FunctionID, users ...types.UserID) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/functions/"+string(id)+"/share", api.ShareFunctionRequest{Users: users}, nil)
	return err
}

// EndpointSpec describes an endpoint registration.
type EndpointSpec struct {
	// Name is the registered endpoint name.
	Name string
	// Description is free-form metadata.
	Description string
	// Public permits any authenticated user to dispatch.
	Public bool
	// Labels declare the endpoint's capabilities/locality (e.g.
	// "gpu":"a100", "site":"anl"), which the service router matches
	// per-task selectors and the label-affinity policy against.
	Labels map[string]string
}

// NewEndpoint registers an endpoint, returning its id plus the
// forwarder coordinates and agent token needed to start the agent.
func (c *Client) NewEndpoint(ctx context.Context, spec EndpointSpec) (*api.RegisterEndpointResponse, error) {
	var resp api.RegisterEndpointResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/endpoints", api.RegisterEndpointRequest{
		Name: spec.Name, Description: spec.Description, Public: spec.Public, Labels: spec.Labels,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReattachEndpoint rejoins an existing endpoint after a service
// restart: the durable control plane recovers the endpoint record and
// restarts its forwarder, but on a fresh ephemeral port and with the
// old agent credentials gone. Owner-only; the response carries the
// new forwarder address and a fresh endpoint token, exactly like
// registration.
func (c *Client) ReattachEndpoint(ctx context.Context, id types.EndpointID) (*api.RegisterEndpointResponse, error) {
	var resp api.RegisterEndpointResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/endpoints/"+string(id)+"/reattach", struct{}{}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// RegisterEndpoint registers an endpoint.
//
// Deprecated: use NewEndpoint.
func (c *Client) RegisterEndpoint(ctx context.Context, name, description string, public bool) (*api.RegisterEndpointResponse, error) {
	return c.NewEndpoint(ctx, EndpointSpec{Name: name, Description: description, Public: public})
}

// RegisterEndpointLabeled registers an endpoint with capability labels.
//
// Deprecated: use NewEndpoint.
func (c *Client) RegisterEndpointLabeled(ctx context.Context, name, description string, public bool, labels map[string]string) (*api.RegisterEndpointResponse, error) {
	return c.NewEndpoint(ctx, EndpointSpec{Name: name, Description: description, Public: public, Labels: labels})
}

// GroupSpec describes an endpoint-group creation: a named fleet the
// service router places tasks across.
type GroupSpec struct {
	// Name is the registered group name.
	Name string
	// Policy names a placement policy ("round-robin",
	// "least-outstanding", "weighted-queue-depth", "label-affinity");
	// empty selects the service default.
	Policy string
	// Public groups accept tasks from any authenticated user.
	Public bool
	// Members are the candidate endpoints.
	Members []types.GroupMember
	// RetryBudget is the group's default per-task redelivery budget
	// (0 = the service default): tasks placed through the group that
	// set no MaxRetries of their own are reclaimed at most this many
	// times before resolving with ErrTaskLost.
	RetryBudget int
	// Elastic, when set, opts the group into the service's fleet
	// autoscaling controller: group backlog is converted into
	// per-member block targets and pushed to member endpoints as
	// scaling advice (clamped to each endpoint's own scaling limits).
	Elastic *types.ElasticSpec
}

// NewGroup registers an endpoint group.
func (c *Client) NewGroup(ctx context.Context, spec GroupSpec) (*types.EndpointGroup, error) {
	var resp api.CreateGroupResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/groups", api.CreateGroupRequest{
		Name: spec.Name, Policy: spec.Policy, Public: spec.Public,
		Members: spec.Members, RetryBudget: spec.RetryBudget, Elastic: spec.Elastic,
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp.Group, nil
}

// CreateGroup registers an endpoint group.
//
// Deprecated: use NewGroup.
func (c *Client) CreateGroup(ctx context.Context, name, policy string, public bool, members []types.GroupMember) (*types.EndpointGroup, error) {
	return c.NewGroup(ctx, GroupSpec{Name: name, Policy: policy, Public: public, Members: members})
}

// CreateGroupElastic registers an endpoint group with an elasticity
// spec.
//
// Deprecated: use NewGroup.
func (c *Client) CreateGroupElastic(ctx context.Context, name, policy string, public bool, members []types.GroupMember, spec *types.ElasticSpec) (*types.EndpointGroup, error) {
	return c.NewGroup(ctx, GroupSpec{Name: name, Policy: policy, Public: public, Members: members, Elastic: spec})
}

// GroupElasticity fetches a group's elasticity state: its spec plus
// per-member live status and the latest scaling advice the controller
// pushed to each member.
func (c *Client) GroupElasticity(ctx context.Context, id types.GroupID) (*api.GroupElasticityResponse, error) {
	var resp api.GroupElasticityResponse
	_, err := c.do(ctx, http.MethodGet, "/v1/groups/"+string(id)+"/elasticity", nil, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// AddGroupMembers appends endpoints to a group (owner only).
func (c *Client) AddGroupMembers(ctx context.Context, id types.GroupID, members ...types.GroupMember) (*types.EndpointGroup, error) {
	var resp api.CreateGroupResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/groups/"+string(id)+"/members", api.AddGroupMembersRequest{Members: members}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp.Group, nil
}

// GroupStatus fetches a group record plus the live status of each
// member endpoint.
func (c *Client) GroupStatus(ctx context.Context, id types.GroupID) (*types.EndpointGroup, []types.EndpointStatus, error) {
	var resp api.GroupStatusResponse
	_, err := c.do(ctx, http.MethodGet, "/v1/groups/"+string(id), nil, &resp)
	if err != nil {
		return nil, nil, err
	}
	return &resp.Group, resp.Members, nil
}

// EndpointStatus fetches endpoint health.
func (c *Client) EndpointStatus(ctx context.Context, id types.EndpointID) (*types.EndpointStatus, error) {
	var resp api.EndpointStatusResponse
	_, err := c.do(ctx, http.MethodGet, "/v1/endpoints/"+string(id)+"/status", nil, &resp)
	if err != nil {
		return nil, err
	}
	return &resp.Status, nil
}

// RunOptions modify a submission.
type RunOptions struct {
	// Memoize opts into result caching (§4.7).
	Memoize bool
	// BatchN marks the payload as a packed batch of N argument
	// buffers.
	BatchN int
	// Labels constrain group placement to endpoints carrying these
	// labels (group submissions only).
	Labels map[string]string
}

// SubmitSpec describes one task submission. Exactly one of Endpoint
// and Group must be set: a concrete endpoint pins placement, a group
// delegates it to the service's router (Labels may constrain the
// choice).
type SubmitSpec struct {
	// Function is the registered function to invoke.
	Function types.FunctionID
	// Endpoint pins placement to a concrete endpoint.
	Endpoint types.EndpointID
	// Group targets an endpoint group; the router picks the member.
	Group types.GroupID
	// Payload is the serialized input arguments.
	Payload []byte
	// Labels constrain group placement to endpoints carrying these
	// labels (group submissions only).
	Labels map[string]string
	// Memoize opts into result caching (§4.7).
	Memoize bool
	// BatchN marks the payload as a packed batch of N argument
	// buffers (fmap, §4.7).
	BatchN int
	// Walltime is the expected execution duration; it extends the
	// task's dispatch lease so long-running work is not reclaimed as
	// lost mid-execution.
	Walltime time.Duration
	// MaxRetries bounds service-side redeliveries after dispatch
	// failures; exhaustion resolves the task with ErrTaskLost (0 =
	// the group's budget, else the service default).
	MaxRetries int
	// AtMostOnce opts the task out of redelivery for non-idempotent
	// functions: once shipped to an endpoint it is never redelivered,
	// and endpoint loss resolves it fast with ErrTaskLost.
	AtMostOnce bool
	// DependsOn holds this task back until the named tasks land
	// terminal: the service forms a single-node dependency graph, binds
	// the parents' outputs into a dag input envelope server-side, and
	// only then places the task. Parent failure resolves the task with
	// a typed dependency error instead of running it.
	DependsOn []types.TaskID
}

// Submit submits one task, returning its id and the endpoint it was
// placed on (the request's endpoint echoed back, or the router's
// choice for group targets). It is the single submission path behind
// Run, RunAnywhere, and their futures variants.
func (c *Client) Submit(ctx context.Context, spec SubmitSpec) (types.TaskID, types.EndpointID, error) {
	resp, err := c.submit(ctx, spec)
	if err != nil {
		return "", "", err
	}
	return resp.TaskID, resp.EndpointID, nil
}

// submit is the raw submission carrying the full wire response,
// including the owner-shard hint futures pin their event streams to.
// The task goes as a submission frame, its payload copied once and
// raw, alone or sharing a request with the client's other submissions
// to the same target (submit.go); only a dependent submission, a
// one-node graph and like POST /v1/dags a JSON record end to end, goes
// as JSON.
func (c *Client) submit(ctx context.Context, spec SubmitSpec) (api.SubmitResponse, error) {
	req := api.SubmitRequest{
		FunctionID: spec.Function, EndpointID: spec.Endpoint, GroupID: spec.Group,
		Payload: spec.Payload, Labels: spec.Labels,
		Memoize: spec.Memoize, BatchN: spec.BatchN,
		Walltime: spec.Walltime, MaxRetries: spec.MaxRetries, AtMostOnce: spec.AtMostOnce,
		DependsOn: spec.DependsOn,
	}
	if len(spec.DependsOn) == 0 {
		return c.submitFrame(ctx, &req)
	}
	var resp api.SubmitResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/tasks", req, &resp)
	return resp, err
}

// Stats fetches the service instance's operational counters
// (GET /v1/stats). Against a sharded deployment the response covers
// only the shard behind the client's base URL.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var resp api.StatsResponse
	if _, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Run invokes a registered function on an endpoint with serialized
// args, returning the task id (asynchronous, paper §3).
//
// Deprecated: use Submit (or SubmitFuture / RunFuture for a result
// handle).
func (c *Client) Run(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, payload []byte) (types.TaskID, error) {
	id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: payload})
	return id, err
}

// RunOpts is Run with options.
//
// Deprecated: use Submit.
func (c *Client) RunOpts(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, payload []byte, opts RunOptions) (types.TaskID, error) {
	id, _, err := c.Submit(ctx, SubmitSpec{
		Function: fnID, Endpoint: epID, Payload: payload,
		Memoize: opts.Memoize, BatchN: opts.BatchN,
	})
	return id, err
}

// RunAnywhere submits a task to an endpoint *group*, letting the
// service router pick the member endpoint by the group's placement
// policy and live load. It returns the task id and the endpoint the
// router chose.
//
// Deprecated: use Submit (or SubmitFuture / RunAnywhereFuture for a
// result handle).
func (c *Client) RunAnywhere(ctx context.Context, fnID types.FunctionID, gid types.GroupID, payload []byte) (types.TaskID, types.EndpointID, error) {
	return c.Submit(ctx, SubmitSpec{Function: fnID, Group: gid, Payload: payload})
}

// RunAnywhereOpts is RunAnywhere with options.
//
// Deprecated: use Submit.
func (c *Client) RunAnywhereOpts(ctx context.Context, fnID types.FunctionID, gid types.GroupID, payload []byte, opts RunOptions) (types.TaskID, types.EndpointID, error) {
	return c.Submit(ctx, SubmitSpec{
		Function: fnID, Group: gid, Payload: payload,
		Labels: opts.Labels, Memoize: opts.Memoize, BatchN: opts.BatchN,
	})
}

// RunBatchAnywhere submits many payloads of one function to a group
// in a single request, router-placed individually.
func (c *Client) RunBatchAnywhere(ctx context.Context, fnID types.FunctionID, gid types.GroupID, payloads [][]byte) ([]types.TaskID, error) {
	reqs := make([]api.SubmitRequest, len(payloads))
	for i, p := range payloads {
		reqs[i] = api.SubmitRequest{FunctionID: fnID, GroupID: gid, Payload: p}
	}
	return c.RunBatch(ctx, reqs)
}

// RunValue serializes value with the facade and submits it.
func (c *Client) RunValue(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, value any) (types.TaskID, error) {
	payload, err := serial.Serialize(value)
	if err != nil {
		return "", err
	}
	return c.Run(ctx, fnID, epID, payload)
}

// RunBatch submits many tasks in one request.
func (c *Client) RunBatch(ctx context.Context, reqs []api.SubmitRequest) ([]types.TaskID, error) {
	var resp api.BatchSubmitResponse
	_, err := c.do(ctx, http.MethodPost, "/v1/tasks/batch", api.BatchSubmitRequest{Tasks: reqs}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.TaskIDs, nil
}

// Status fetches a task's lifecycle state.
func (c *Client) Status(ctx context.Context, id types.TaskID) (types.TaskStatus, error) {
	var resp api.StatusResponse
	_, err := c.do(ctx, http.MethodGet, "/v1/tasks/"+string(id), nil, &resp)
	if err != nil {
		return "", err
	}
	return resp.Status, nil
}

// TaskTrace fetches a task's recorded lifecycle timeline
// (GET /v1/tasks/{id}/trace): per-stage stamps on the service clock,
// endpoint-side deltas, and — once the task retired — the per-stage
// latency decomposition. Traces are retained in a bounded ring, so old
// tasks may report not found.
func (c *Client) TaskTrace(ctx context.Context, id types.TaskID) (*api.TaskTraceResponse, error) {
	var resp api.TaskTraceResponse
	if _, err := c.do(ctx, http.MethodGet, "/v1/tasks/"+string(id)+"/trace", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Result is a completed task outcome.
type Result struct {
	TaskID types.TaskID
	// Output is the serialized return value.
	Output []byte
	// Err is the remote execution error (nil on success).
	Err error
	// Timing is the per-hop latency breakdown.
	Timing types.Timing
	// Memoized marks cache-served results.
	Memoized bool
}

// Value deserializes the output through the facade into out (pass a
// pointer), also returning the decoded value for dynamic use.
func (r *Result) Value(out any) (any, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	return serial.Deserialize(r.Output, out)
}

// TryResult fetches a result without blocking; ErrNotReady when the
// task is still running.
func (c *Client) TryResult(ctx context.Context, id types.TaskID) (*Result, error) {
	if res, ok := c.takeStashed(id); ok {
		return res, nil
	}
	return c.result(ctx, id, 0)
}

// GetResult blocks until the task completes (or ctx is done), using
// server-side long-polling plus client-side retry.
func (c *Client) GetResult(ctx context.Context, id types.TaskID) (*Result, error) {
	return c.getResultAt(ctx, "", id)
}

// getResultAt is GetResult against an explicit shard base URL.
func (c *Client) getResultAt(ctx context.Context, base string, id types.TaskID) (*Result, error) {
	for {
		// An open event stream may have consumed the terminal event
		// (purging the store copy): the stash is then the only copy.
		if res, ok := c.takeStashed(id); ok {
			return res, nil
		}
		res, err := c.resultAt(ctx, base, id, c.WaitHint)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrNotReady) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.PollInterval):
		}
	}
}

func (c *Client) result(ctx context.Context, id types.TaskID, wait time.Duration) (*Result, error) {
	return c.resultAt(ctx, "", id, wait)
}

func (c *Client) resultAt(ctx context.Context, base string, id types.TaskID, wait time.Duration) (*Result, error) {
	path := "/v1/tasks/" + string(id) + "/result"
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var resp api.ResultResponse
	status, err := c.doAt(ctx, http.MethodGet, base, path, nil, &resp)
	if err != nil {
		return nil, err
	}
	if status == http.StatusAccepted {
		return nil, ErrNotReady
	}
	return resultOf(resp), nil
}

// resultOf converts the wire result shape into the SDK shape.
func resultOf(resp api.ResultResponse) *Result {
	res := &Result{
		TaskID:   resp.TaskID,
		Output:   resp.Output,
		Timing:   resp.Timing.Timing(),
		Memoized: resp.Memoized,
	}
	if resp.Error != "" {
		res.Err = fmt.Errorf("%w: %w", ErrTaskFailed, serial.DecodeError([]byte(resp.Error)))
		if resp.Lost {
			res.Err = fmt.Errorf("%w: %w", ErrTaskLost, res.Err)
		}
	}
	return res
}

// maxWaitIDs mirrors the server's per-request id cap on
// POST /v1/tasks/wait; larger sets are chunked client-side.
const maxWaitIDs = 10000

// WaitTasks waits on many tasks (POST /v1/tasks/wait), blocking
// server-side up to wait: it returns the results that completed in
// time plus the ids still pending. Sets beyond the server's
// per-request cap are split into sequential requests sharing one
// overall deadline; a mid-batch failure returns the chunks already
// gathered (their results were purged server-side on read and would
// otherwise be lost) together with the error — callers must consume
// the partial results even when err is non-nil.
func (c *Client) WaitTasks(ctx context.Context, ids []types.TaskID, wait time.Duration) ([]*Result, []types.TaskID, error) {
	return c.waitTasksAt(ctx, "", ids, wait)
}

// waitTasksAt is WaitTasks against an explicit shard base URL. Ids
// whose results already arrived on an open event stream (and were
// purged server-side on that delivery) resolve from the stash without
// touching the wire; only the remainder is waited on.
func (c *Client) waitTasksAt(ctx context.Context, base string, ids []types.TaskID, wait time.Duration) ([]*Result, []types.TaskID, error) {
	var stashed []*Result
	remaining := make([]types.TaskID, 0, len(ids))
	for _, id := range ids {
		if res, ok := c.takeStashed(id); ok {
			stashed = append(stashed, res)
		} else {
			remaining = append(remaining, id)
		}
	}
	if len(remaining) == 0 {
		return stashed, nil, nil
	}
	done, pending, err := c.waitTasksWire(ctx, base, remaining, wait)
	return append(stashed, done...), pending, err
}

func (c *Client) waitTasksWire(ctx context.Context, base string, ids []types.TaskID, wait time.Duration) ([]*Result, []types.TaskID, error) {
	if len(ids) <= maxWaitIDs {
		return c.waitTasksOnce(ctx, base, ids, wait)
	}
	deadline := time.Now().Add(wait)
	var done []*Result
	var pending []types.TaskID
	for start := 0; start < len(ids); start += maxWaitIDs {
		chunk := ids[start:min(start+maxWaitIDs, len(ids))]
		d, p, err := c.waitTasksOnce(ctx, base, chunk, max(time.Until(deadline), 0))
		if err != nil {
			// Deliver the chunks already gathered alongside the error,
			// with the unqueried remainder as pending.
			return done, append(pending, ids[start:]...), err
		}
		done = append(done, d...)
		pending = append(pending, p...)
	}
	return done, pending, nil
}

// waitTasksOnce issues one wait request for a within-cap id set.
func (c *Client) waitTasksOnce(ctx context.Context, base string, ids []types.TaskID, wait time.Duration) ([]*Result, []types.TaskID, error) {
	req := api.WaitTasksRequest{TaskIDs: ids}
	if wait > 0 {
		req.Wait = wait.String()
	}
	var resp api.WaitTasksResponse
	if _, err := c.doAt(ctx, http.MethodPost, base, "/v1/tasks/wait", req, &resp); err != nil {
		return nil, nil, err
	}
	out := make([]*Result, len(resp.Results))
	for i, rr := range resp.Results {
		out[i] = resultOf(rr)
	}
	return out, resp.Pending, nil
}

// GetResults collects results for many tasks, preserving input order.
// The whole batch rides one blocking wait request per round instead
// of one long-poll per task, so a slow task no longer serializes the
// rest (and N-1 round trips are saved).
func (c *Client) GetResults(ctx context.Context, ids []types.TaskID) ([]*Result, error) {
	byID := make(map[types.TaskID]*Result, len(ids))
	pending := make([]types.TaskID, 0, len(ids))
	seen := make(map[types.TaskID]bool, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			pending = append(pending, id)
		}
	}
	for len(pending) > 0 {
		done, still, err := c.WaitTasks(ctx, pending, c.WaitHint)
		// Consume partial results before looking at the error: their
		// server-side copies were purged on read.
		for _, res := range done {
			byID[res.TaskID] = res
		}
		if err != nil {
			return nil, err
		}
		pending = still
		if len(pending) > 0 && len(done) == 0 {
			// Nothing completed this round; pace the retry like
			// GetResult does when the server cannot block.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.PollInterval):
			}
		}
	}
	out := make([]*Result, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out, nil
}

// --- user-driven batching: the fmap command of §4.7 ---

// MapHandle tracks the tasks created by one Map call.
type MapHandle struct {
	// TaskIDs are the batch task ids in dispatch order.
	TaskIDs []types.TaskID
	// Sizes are the per-batch item counts (sums to the item total).
	Sizes []int
}

// Total returns the number of mapped items.
func (h *MapHandle) Total() int {
	n := 0
	for _, s := range h.Sizes {
		n += s
	}
	return n
}

// Map partitions a lazy iterator of argument values into batches and
// submits each batch as one task whose worker loops the function over
// the items (fmap: "f = fmap(func_id, iterator, ep_id, batch_size,
// batch_count)"). batchCount takes precedence over batchSize, exactly
// as in the paper: when batchCount > 0 the iterator is divided into
// that many near-even batches; otherwise islice-style slabs of
// batchSize items are cut without evaluating the rest of the iterator.
func (c *Client) Map(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, items iter.Seq[any], batchSize, batchCount int) (*MapHandle, error) {
	return c.mapInto(ctx, fnID, mapTarget{epID: epID}, items, batchSize, batchCount)
}

// MapAnywhere is Map with an endpoint-group target: each batch task
// is placed independently by the service router, spreading the map
// across the fleet by the group's policy.
func (c *Client) MapAnywhere(ctx context.Context, fnID types.FunctionID, gid types.GroupID, items iter.Seq[any], batchSize, batchCount int) (*MapHandle, error) {
	return c.mapInto(ctx, fnID, mapTarget{gid: gid}, items, batchSize, batchCount)
}

// mapTarget names where map batches go: a pinned endpoint or a
// router-placed group.
type mapTarget struct {
	epID types.EndpointID
	gid  types.GroupID
}

func (c *Client) mapInto(ctx context.Context, fnID types.FunctionID, target mapTarget, items iter.Seq[any], batchSize, batchCount int) (*MapHandle, error) {
	if batchSize <= 0 {
		batchSize = 1
	}
	handle := &MapHandle{}

	if batchCount > 0 {
		// batch_count precedence requires knowing the length: divide
		// the materialized items into batchCount near-even batches.
		var all [][]byte
		for v := range items {
			buf, err := serial.Serialize(v)
			if err != nil {
				return nil, fmt.Errorf("sdk: map item %d: %w", len(all), err)
			}
			all = append(all, buf)
		}
		n := len(all)
		if batchCount > n {
			batchCount = n
		}
		start := 0
		for b := 0; b < batchCount; b++ {
			size := n / batchCount
			if b < n%batchCount {
				size++
			}
			if err := c.submitMapBatch(ctx, fnID, target, all[start:start+size], handle); err != nil {
				return nil, err
			}
			start += size
		}
		return handle, nil
	}

	// Lazy path: cut islice-style slabs of batchSize.
	batch := make([][]byte, 0, batchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := c.submitMapBatch(ctx, fnID, target, batch, handle)
		batch = batch[:0]
		return err
	}
	i := 0
	for v := range items {
		buf, err := serial.Serialize(v)
		if err != nil {
			return nil, fmt.Errorf("sdk: map item %d: %w", i, err)
		}
		batch = append(batch, buf)
		i++
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return handle, nil
}

// submitMapBatch packs serialized items into one batch task bound for
// the map target (pinned endpoint or router-placed group).
func (c *Client) submitMapBatch(ctx context.Context, fnID types.FunctionID, target mapTarget, items [][]byte, handle *MapHandle) error {
	parts := make([]serial.Part, len(items))
	for i, b := range items {
		parts[i] = serial.Part{Tag: fmt.Sprintf("i%d", i), Body: b}
	}
	payload := serial.Pack(parts...)
	opts := RunOptions{BatchN: len(items)}
	var id types.TaskID
	var err error
	if target.gid != "" {
		id, _, err = c.RunAnywhereOpts(ctx, fnID, target.gid, payload, opts)
	} else {
		id, err = c.RunOpts(ctx, fnID, target.epID, payload, opts)
	}
	if err != nil {
		return err
	}
	handle.TaskIDs = append(handle.TaskIDs, id)
	handle.Sizes = append(handle.Sizes, len(items))
	return nil
}

// MapResults gathers and unpacks all outputs of a Map call, flattened
// in submission order. Each element is a facade-serialized buffer.
// Gathering rides the batch-wait path (GetResults), so all batches
// are awaited in one blocking request per round.
func (c *Client) MapResults(ctx context.Context, h *MapHandle) ([][]byte, error) {
	results, err := c.GetResults(ctx, h.TaskIDs)
	if err != nil {
		return nil, err
	}
	return unpackMapResults(results)
}

// unpackMapResults flattens per-batch packed outputs in order.
func unpackMapResults(results []*Result) ([][]byte, error) {
	var out [][]byte
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("sdk: map batch %d: %w", i, res.Err)
		}
		parts, err := serial.Unpack(res.Output)
		if err != nil {
			return nil, fmt.Errorf("sdk: map batch %d: %w", i, err)
		}
		for _, p := range parts {
			out = append(out, bytes.Clone(p.Body))
		}
	}
	return out, nil
}
