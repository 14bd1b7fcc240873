// Server-side task composition: the SDK surface over the service's
// dependency-graph subsystem (POST /v1/dags). A client describes a
// whole workflow — nodes keyed by name, edges by key — in one request;
// the service validates it acyclic, mints every task id up front, and
// thereafter releases, feeds, and routes dependent tasks entirely
// inside the fabric: zero client round trips per internal edge. The
// client's only remaining job is collecting the futures it cares
// about (usually just the roots of the result).
package sdk

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"funcx/internal/api"
	"funcx/internal/types"
)

// DAGHandle tracks one submitted dependency graph: the graph id, the
// task id minted for every node, and a lazily registered future per
// node. All node events ride the one stream consumer pinned to the
// graph's owner shard.
type DAGHandle struct {
	c *Client
	// ID is the graph id (ring-aligned with its node task keys, so the
	// whole graph lives on one shard).
	ID types.DAGID
	// Tasks maps node key -> minted task id, for every internal node.
	Tasks map[string]types.TaskID
	// Memoized lists node keys short-circuited wholesale from the memo
	// cache at submission (their results are immediately available).
	Memoized []string
	// shardURL pins status calls and futures to the owner shard.
	shardURL string
	futures  map[string]*Future
}

// Future returns the future for one node key, registering it with the
// owner-shard stream consumer on first use. Unknown keys (including
// external Requires parents, which have no node task here) return an
// immediately failed future rather than a nil to trip over.
func (h *DAGHandle) Future(key string) *Future {
	if f, ok := h.futures[key]; ok {
		return f
	}
	id, ok := h.Tasks[key]
	if !ok {
		f := newFuture(h.c, "")
		f.resolve(nil, fmt.Errorf("sdk: dag %s has no node %q", h.ID, key))
		return f
	}
	st, err := h.c.ensureStreamer(h.shardURL)
	if err != nil {
		f := newFuture(h.c, id)
		f.resolve(nil, err)
		return f
	}
	f := newFuture(h.c, id)
	st.register(f, time.Time{}) // attached after the graph was submitted
	h.futures[key] = f
	return f
}

// Status fetches the graph's live node-by-node state from the service
// (GET /v1/dags/{id}); the request follows shard redirects to the
// owner.
func (h *DAGHandle) Status(ctx context.Context) (*api.DAGStatusResponse, error) {
	return h.c.dagStatusAt(ctx, h.shardURL, h.ID)
}

// SubmitDAG submits a whole dependency graph in one request. Node
// specs reference each other by key via DependsOn; Requires names
// already-submitted external tasks (resolved cross-shard by the
// service when another shard owns them). The returned handle carries
// the minted task id of every node — collect only the futures you
// need; internal edges complete without the client.
func (c *Client) SubmitDAG(ctx context.Context, nodes []api.DAGNodeSpec) (*DAGHandle, error) {
	// Subscribe before submitting so root events cannot race the
	// stream on an unsharded service; the owner-shard consumer (below)
	// covers proxied submissions via its registration catch-up.
	if _, err := c.ensureStreamer(""); err != nil {
		return nil, err
	}
	var resp api.SubmitDAGResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/dags", api.SubmitDAGRequest{Nodes: nodes}, &resp); err != nil {
		return nil, err
	}
	return &DAGHandle{
		c:        c,
		ID:       resp.DAGID,
		Tasks:    resp.Tasks,
		Memoized: resp.Memoized,
		shardURL: resp.ShardURL,
		futures:  make(map[string]*Future),
	}, nil
}

// DAGStatus fetches a graph's status by id through the front door.
func (c *Client) DAGStatus(ctx context.Context, id types.DAGID) (*api.DAGStatusResponse, error) {
	return c.dagStatusAt(ctx, "", id)
}

func (c *Client) dagStatusAt(ctx context.Context, base string, id types.DAGID) (*api.DAGStatusResponse, error) {
	var resp api.DAGStatusResponse
	if _, err := c.doAt(ctx, http.MethodGet, base, "/v1/dags/"+string(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// --- incremental composition: future chaining ---

// Then submits a dependent task: the service holds it until this
// future's task lands, binds the parent output into a dag input
// envelope server-side, and routes it with affinity toward where the
// parent ran. The parent's output never transits the client; a parent
// failure resolves the child with a typed dependency error. Can be
// called before the parent completes — that is the point.
func (f *Future) Then(ctx context.Context, spec SubmitSpec) (*Future, error) {
	spec.DependsOn = append(append([]types.TaskID(nil), spec.DependsOn...), f.id)
	return f.c.SubmitFuture(ctx, spec)
}

// ThenAll submits one task depending on all the given parents (fan-in:
// every parent output is bound into the child's input envelope in
// argument order). All parents must belong to this client.
func (c *Client) ThenAll(ctx context.Context, spec SubmitSpec, parents ...*Future) (*Future, error) {
	deps := append([]types.TaskID(nil), spec.DependsOn...)
	for _, p := range parents {
		deps = append(deps, p.id)
	}
	spec.DependsOn = deps
	return c.SubmitFuture(ctx, spec)
}

// DAGBuilder accumulates a graph node by node before one SubmitDAG
// call — sugar for constructing []api.DAGNodeSpec by hand:
//
//	h, err := fc.NewDAG().
//	    Node("a", sdk.SubmitSpec{Function: fn, Group: g, Payload: p1}).
//	    Node("b", sdk.SubmitSpec{Function: fn, Group: g, Payload: p2}).
//	    Node("sum", sdk.SubmitSpec{Function: reduce, Group: g}, "a", "b").
//	    Submit(ctx)
//	res, err := h.Future("sum").Get(ctx)
type DAGBuilder struct {
	c     *Client
	nodes []api.DAGNodeSpec
}

// NewDAG starts an empty graph builder.
func (c *Client) NewDAG() *DAGBuilder {
	return &DAGBuilder{c: c}
}

// Node appends one node. dependsOn names parent node keys within this
// graph; validation (unknown keys, duplicate keys, cycles) happens
// server-side at Submit.
func (b *DAGBuilder) Node(key string, spec SubmitSpec, dependsOn ...string) *DAGBuilder {
	b.nodes = append(b.nodes, api.DAGNodeSpec{
		Key:        key,
		FunctionID: spec.Function,
		EndpointID: spec.Endpoint,
		GroupID:    spec.Group,
		Labels:     spec.Labels,
		Payload:    spec.Payload,
		DependsOn:  dependsOn,
		Requires:   spec.DependsOn,
		Memoize:    spec.Memoize,
		Walltime:   spec.Walltime,
		MaxRetries: spec.MaxRetries,
		AtMostOnce: spec.AtMostOnce,
	})
	return b
}

// Submit sends the accumulated graph in one request.
func (b *DAGBuilder) Submit(ctx context.Context) (*DAGHandle, error) {
	return b.c.SubmitDAG(ctx, b.nodes)
}
