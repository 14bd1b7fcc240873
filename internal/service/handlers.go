package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/dag"
	"funcx/internal/events"
	"funcx/internal/registry"
	"funcx/internal/shard"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// ServeHTTP serves the funcX REST API (paper §3: all user interactions
// are performed via a REST API implemented by the cloud-hosted
// service). A closed service refuses requests outright: a connection
// lingering past shutdown must never be answered from a dead
// instance's state (in a sharded deployment a fresh instance may
// already own this address).
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.ctx.Err() != nil {
		writeJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{Error: "service: shut down"})
		return
	}
	s.muxOnce.Do(s.buildMux)
	s.mux.ServeHTTP(w, r)
}

func (s *Service) buildMux() {
	mux := http.NewServeMux()

	mux.Handle("GET /v1/ping", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))

	protect := func(scope auth.Scope, h http.HandlerFunc) http.Handler {
		return s.introspectionDelay(s.Authority.Middleware(scope, h))
	}

	mux.Handle("POST /v1/functions", protect(auth.ScopeRegisterFunction, s.handleRegisterFunction))
	mux.Handle("PUT /v1/functions/{id}", protect(auth.ScopeRegisterFunction, s.handleUpdateFunction))
	mux.Handle("POST /v1/functions/{id}/share", protect(auth.ScopeRegisterFunction, s.handleShareFunction))

	mux.Handle("POST /v1/endpoints", protect(auth.ScopeManageEndpoints, s.handleRegisterEndpoint))
	mux.Handle("POST /v1/endpoints/{id}/reattach", protect(auth.ScopeManageEndpoints, s.handleReattachEndpoint))
	mux.Handle("GET /v1/endpoints/{id}/status", protect(auth.ScopeRun, s.handleEndpointStatus))

	mux.Handle("POST /v1/groups", protect(auth.ScopeManageEndpoints, s.handleCreateGroup))
	mux.Handle("GET /v1/groups/{id}", protect(auth.ScopeRun, s.handleGroupStatus))
	mux.Handle("GET /v1/groups/{id}/elasticity", protect(auth.ScopeRun, s.handleGroupElasticity))
	mux.Handle("POST /v1/groups/{id}/members", protect(auth.ScopeManageEndpoints, s.handleAddGroupMembers))

	mux.Handle("POST /v1/tasks", s.limitSubmit(protect(auth.ScopeRun, s.handleSubmit)))
	mux.Handle("POST /v1/tasks/batch", s.limitSubmit(protect(auth.ScopeRun, s.handleBatchSubmit)))
	mux.Handle("POST /v1/dags", s.limitSubmit(protect(auth.ScopeRun, s.handleSubmitDAG)))
	mux.Handle("GET /v1/dags/{id}", protect(auth.ScopeRun, s.handleDAGStatus))
	mux.Handle("POST /v1/tasks/wait", protect(auth.ScopeRun, s.handleWaitTasks))
	mux.Handle("GET /v1/tasks/{id}", protect(auth.ScopeRun, s.handleStatus))
	mux.Handle("GET /v1/tasks/{id}/trace", protect(auth.ScopeRun, s.handleTaskTrace))
	mux.Handle("GET /v1/tasks/{id}/result", protect(auth.ScopeRun, s.handleResult))
	mux.Handle("GET /v1/events", protect(auth.ScopeRun, s.handleEvents))
	mux.Handle("GET /v1/stats", protect(auth.ScopeRun, s.handleStats))
	mux.Handle("GET /v1/metrics", protect(auth.ScopeRun, s.handleMetrics))
	mux.Handle("GET /v1/metrics/fleet", protect(auth.ScopeRun, s.handleFleetMetrics))

	// Shard-to-shard surfaces: authenticated by hop token, not user
	// scopes (the handlers enforce it).
	mux.Handle("GET /v1/shard/functions", http.HandlerFunc(s.handleExportFunctions))
	mux.Handle("POST /v1/shard/handoff", http.HandlerFunc(s.handleShardHandoff))

	s.mux = mux
}

// limitSubmit applies the submission admission semaphore
// (Config.SubmitConcurrency): at most that many public submissions are
// processed at once — authentication, introspection, and placement
// alike — modeling the fixed web-worker pool of one real service
// instance. Excess submissions queue at the door. Shard-to-shard hops
// bypass the limiter: the internal lane must never queue behind (or
// deadlock against) the public one, and the hop already consumed a
// permit at its front door.
func (s *Service) limitSubmit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.submitSem == nil || s.hopFrom(r) != "" {
			h.ServeHTTP(w, r)
			return
		}
		select {
		case s.submitSem <- struct{}{}:
			defer func() { <-s.submitSem }()
		case <-r.Context().Done():
			return
		}
		h.ServeHTTP(w, r)
	})
}

// arrivalKey carries the request arrival time so the TS timing
// component (paper Figure 4) covers authentication as well as task
// storage and enqueueing.
type arrivalKey struct{}

// introspectionDelay stamps the request arrival time and models
// Globus Auth token introspection: each authenticated request pays
// one introspection round trip against the authorization service
// (see Config.AuthLat). This is the latency the paper identifies as
// dominating the TS component.
func (s *Service) introspectionDelay(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r = r.WithContext(context.WithValue(r.Context(), arrivalKey{}, time.Now()))
		if s.cfg.AuthLat != nil {
			if _, err := auth.BearerToken(r); err == nil {
				s.cfg.AuthLat.Delay() // introspection request
				s.cfg.AuthLat.Delay() // introspection response
			}
		}
		next.ServeHTTP(w, r)
	})
}

// arrivalOf returns the request arrival time stamped by
// introspectionDelay, defaulting to now.
func arrivalOf(r *http.Request) time.Time {
	if t, ok := r.Context().Value(arrivalKey{}).(time.Time); ok {
		return t
	}
	return time.Now()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response body
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errorStatus(err), api.ErrorResponse{Error: err.Error()})
}

// errorStatus is the HTTP status a service error is answered with.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrForbidden), errors.Is(err, auth.ErrScope):
		return http.StatusForbidden
	case errors.Is(err, registry.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, auth.ErrInvalidToken), errors.Is(err, auth.ErrExpiredToken):
		return http.StatusUnauthorized
	case errors.Is(err, ErrPayloadTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalidRequest):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// bodySlack is the room a request body gets beyond its payloads: JSON
// member names, ids, selectors, a function body, or the maxWaitBatch
// task ids of one wait request.
const bodySlack = 1 << 20

// decodeBody reads a JSON request body into v. The body is bounded by
// what the request may legitimately carry — tasks payloads of
// Config.MaxPayloadSize each, base64-expanded, plus bodySlack — and
// parsed once; anything after the JSON value is an error.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, v any, tasks int) bool {
	perTask := int64(base64.StdEncoding.EncodedLen(max(s.cfg.MaxPayloadSize, 0)) + bodySlack)
	data, ok := s.readBody(w, r, 0, nil, int64(tasks)*perTask, perTask)
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "malformed request: " + err.Error()})
		return false
	}
	return true
}

// frontRoom is the spare bytes readSubmitFrame asks readBody to leave
// ahead of a body.
var frontRoom [wire.HeaderRoom]byte

// readBody reads a request body of at most limit bytes (any length
// when Config.MaxPayloadSize is negative) into one buffer sized from
// Content-Length, which is trusted for no more than trust bytes (a
// longer or undeclared body grows its buffer as it arrives). head
// is what the caller has taken off the body already; it counts against
// limit and opens the body, which starts room spare bytes into the
// buffer returned.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request, room int, head []byte, limit, trust int64) ([]byte, bool) {
	body := r.Body
	if s.cfg.MaxPayloadSize >= 0 {
		if r.ContentLength > limit {
			writeError(w, fmt.Errorf("%w: request body of %d bytes exceeds %d", ErrPayloadTooLarge, r.ContentLength, limit))
			return nil, false
		}
		body = http.MaxBytesReader(w, body, limit-int64(len(head)))
	}
	if n := r.ContentLength; n >= int64(len(head)) && n <= trust {
		// A declared length small enough to believe: one buffer of
		// exactly that size, with no slack for a submission's record to
		// hold on to for the life of its task.
		exact := make([]byte, room+int(n))
		copy(exact[room:], head)
		if _, err := io.ReadFull(body, exact[room+len(head):]); err != nil {
			writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "reading request: " + err.Error()})
			return nil, false
		}
		return exact, true
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// MinRead spare bytes let ReadFrom see EOF without growing.
		buf.Grow(room + int(trust) + bytes.MinRead)
	}
	buf.Write(frontRoom[:room])
	buf.Write(head)
	if _, err := buf.ReadFrom(body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, fmt.Errorf("%w: request body exceeds %d bytes", ErrPayloadTooLarge, limit))
		} else {
			writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "reading request: " + err.Error()})
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// readSubmitFrame reads the body of a POST /v1/tasks of
// api.FrameMediaType: one submission frame, or a batch frame of up to
// maxWaitBatch of them. Payloads are not expanded in a frame, so a
// submission may take Config.MaxPayloadSize plus bodySlack, and a batch
// as many times that as the JSON batch gets; which of the two bounds
// holds is decided by the format byte, read ahead of the rest. data is
// the frame; buf is the buffer it ends, which starts wire.HeaderRoom
// bytes ahead of it so that place can write the one submission of a
// single frame out as a task where it lies (wire.EncodeTaskInto).
func (s *Service) readSubmitFrame(w http.ResponseWriter, r *http.Request) (buf, data []byte, ok bool) {
	perTask := int64(max(s.cfg.MaxPayloadSize, 0) + bodySlack)
	var format [1]byte
	n, _ := io.ReadFull(r.Body, format[:]) // an empty or failing body is read again, and reported, below
	limit := perTask
	if wire.IsTaskBatch(format[:n]) {
		limit *= maxWaitBatch
	}
	if buf, ok = s.readBody(w, r, len(frontRoom), format[:n], limit, perTask); !ok {
		return nil, nil, false
	}
	return buf, buf[len(frontRoom):], true
}

func claimsOf(r *http.Request) *auth.Claims {
	c, _ := auth.ClaimsFrom(r.Context())
	return c
}

// handleRegisterFunction registers a function. Functions are *global*
// metadata over the sharded control plane: a submission may validate
// on any shard, so the origin shard broadcasts the minted record to
// every peer (hop-marked replication requests carry FunctionID and are
// stored verbatim instead of minting anew).
func (s *Service) handleRegisterFunction(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterFunctionRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	if req.FunctionID != "" {
		if !s.sharded() || s.replicateFrom(r) == "" {
			writeError(w, fmt.Errorf("%w: function_id is reserved for shard replication", ErrInvalidRequest))
			return
		}
		s.handleFunctionReplica(w, r, req)
		return
	}
	fn, err := s.Registry.RegisterFunction(claimsOf(r).Subject, req.Name, req.Body, req.Container, req.SharedWith)
	if err != nil {
		writeError(w, err)
		return
	}
	req.FunctionID = fn.ID
	s.replicateFunction(r, http.MethodPost, "/v1/functions", req)
	writeJSON(w, http.StatusCreated, api.RegisterFunctionResponse{
		FunctionID: fn.ID, BodyHash: fn.BodyHash, Version: fn.Version,
	})
}

// handleFunctionReplica installs a function record broadcast by a peer
// shard, preserving the origin-minted id. Overwriting another owner's
// record is refused — the replication lane rides user credentials, so
// it must not grant more than the user could do directly.
func (s *Service) handleFunctionReplica(w http.ResponseWriter, r *http.Request, req api.RegisterFunctionRequest) {
	actor := claimsOf(r).Subject
	if existing, err := s.Registry.Function(req.FunctionID); err == nil && existing.Owner != actor {
		writeError(w, fmt.Errorf("%w: function %s belongs to another user", registry.ErrForbidden, req.FunctionID))
		return
	}
	fn := &types.Function{
		ID:         req.FunctionID,
		Name:       req.Name,
		Owner:      actor,
		Body:       req.Body,
		Container:  req.Container,
		SharedWith: req.SharedWith,
	}
	if err := s.Registry.PutFunction(fn); err != nil {
		writeError(w, fmt.Errorf("%w: %s", ErrInvalidRequest, err))
		return
	}
	writeJSON(w, http.StatusCreated, api.RegisterFunctionResponse{
		FunctionID: fn.ID, BodyHash: registry.BodyHash(req.Body), Version: 1,
	})
}

func (s *Service) handleUpdateFunction(w http.ResponseWriter, r *http.Request) {
	var req api.UpdateFunctionRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	id := types.FunctionID(r.PathValue("id"))
	fn, err := s.Registry.UpdateFunction(claimsOf(r).Subject, id, req.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	// Broadcast the update so every shard's replica converges; a
	// replicate-marked request is itself a broadcast and stops here.
	if s.replicateFrom(r) == "" {
		s.replicateFunction(r, http.MethodPut, "/v1/functions/"+string(id), req)
	}
	writeJSON(w, http.StatusOK, api.RegisterFunctionResponse{
		FunctionID: fn.ID, BodyHash: fn.BodyHash, Version: fn.Version,
	})
}

func (s *Service) handleShareFunction(w http.ResponseWriter, r *http.Request) {
	var req api.ShareFunctionRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	id := types.FunctionID(r.PathValue("id"))
	err := s.Registry.ShareFunction(claimsOf(r).Subject, id, req.Users...)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.replicateFrom(r) == "" {
		s.replicateFunction(r, http.MethodPost, "/v1/functions/"+string(id)+"/share", req)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "shared"})
}

func (s *Service) handleRegisterEndpoint(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterEndpointRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	ep, network, addr, token, err := s.RegisterEndpoint(claimsOf(r).Subject, req.Name, req.Description, req.Public, req.Labels)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.RegisterEndpointResponse{
		EndpointID:       ep.ID,
		ForwarderNetwork: network,
		ForwarderAddr:    addr,
		EndpointToken:    token,
	})
}

// handleReattachEndpoint lets an agent rejoin an endpoint that
// survived a service restart: the journal recovered the record and a
// fresh forwarder, but the agent's credentials and forwarder address
// died with the old process. Owner-only; returns the same shape as
// registration so the agent boot path is identical either way.
func (s *Service) handleReattachEndpoint(w http.ResponseWriter, r *http.Request) {
	id := types.EndpointID(r.PathValue("id"))
	if s.redirectByKey(w, r, shard.EndpointKey(id)) {
		return
	}
	network, addr, token, err := s.ReissueEndpointToken(claimsOf(r).Subject, id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.RegisterEndpointResponse{
		EndpointID:       id,
		ForwarderNetwork: network,
		ForwarderAddr:    addr,
		EndpointToken:    token,
	})
}

func (s *Service) handleEndpointStatus(w http.ResponseWriter, r *http.Request) {
	id := types.EndpointID(r.PathValue("id"))
	// Browser-facing status surface: redirect to the owner shard.
	if s.redirectByKey(w, r, shard.EndpointKey(id)) {
		return
	}
	st, err := s.EndpointStatus(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.EndpointStatusResponse{Status: *st})
}

// submissionOf converts the wire shape into a service Submission.
func submissionOf(t api.SubmitRequest) Submission {
	return Submission{
		FunctionID: t.FunctionID, EndpointID: t.EndpointID,
		GroupID: t.GroupID, Labels: t.Labels,
		Payload: t.Payload, Memoize: t.Memoize, BatchN: t.BatchN,
		Walltime: t.Walltime, MaxRetries: t.MaxRetries, AtMostOnce: t.AtMostOnce,
	}
}

// handleSubmit is POST /v1/tasks in the encoding its Content-Type
// declares: a submission frame or a batch frame of them under
// api.FrameMediaType, JSON under anything else.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if api.IsFrameType(r.Header.Get("Content-Type")) {
		s.handleSubmitFrame(w, r)
		return
	}
	var req api.SubmitRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	// Cross-shard: the task belongs wherever its group or endpoint
	// lives; a wrong-shard arrival is proxied to the owner.
	if key, ok := submitKey(req); ok && s.routeByKey(w, r, key, req) {
		return
	}
	if len(req.DependsOn) > 0 {
		// A dependent submission is a one-node graph with external
		// parents: the service holds it until every parent lands, then
		// binds their outputs into its payload server-side.
		id, dagID, memoized, err := s.SubmitChained(claimsOf(r).Subject, submissionOf(req), req.DependsOn)
		if err != nil {
			writeError(w, err)
			return
		}
		resp := api.SubmitResponse{TaskID: id, DAGID: dagID, Memoized: memoized}
		s.stampShard(&resp)
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	s.answerSubmit(w, r, req, nil)
}

// answerSubmit places req and answers r with what became of it. body
// is what submitOne takes.
func (s *Service) answerSubmit(w http.ResponseWriter, r *http.Request, req api.SubmitRequest, body []byte) {
	resp, err := s.submitOne(r, req, body)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// submitOne places one submission of r, stamped with r's arrival time
// and this shard's identity. A non-nil body is the buffer
// readSubmitFrame returned for a frame holding req alone: it is given
// up to become the task's frame, and nothing may read it afterwards.
func (s *Service) submitOne(r *http.Request, req api.SubmitRequest, body []byte) (api.SubmitResponse, error) {
	owner := claimsOf(r).Subject
	p, err := s.prepare(owner, submissionOf(req))
	if err != nil {
		return api.SubmitResponse{}, err
	}
	p.body = body
	id, epID, memoized, err := s.place(owner, p, arrivalOf(r))
	if err != nil {
		return api.SubmitResponse{}, err
	}
	resp := api.SubmitResponse{TaskID: id, EndpointID: epID, Memoized: memoized}
	s.stampShard(&resp)
	return resp, nil
}

// handleSubmitFrame is POST /v1/tasks of api.FrameMediaType. A payload
// is not expanded in a frame and is handed on as a slice of the body; a
// shard that does not own the target relays the body as the bytes that
// arrived. A batch frame is so many independent submissions for one
// target (the relay goes by one key), each placed as a frame of its own
// would have been and answered with its own outcome: one that is
// refused leaves the rest alone.
func (s *Service) handleSubmitFrame(w http.ResponseWriter, r *http.Request) {
	buf, data, ok := s.readSubmitFrame(w, r)
	if !ok {
		return
	}
	var first api.SubmitRequest // the one submission, or a batch's first
	var batch []api.SubmitRequest
	var err error
	if wire.IsTaskBatch(data) {
		if batch, err = decodeSubmitBatch(data); err == nil {
			first = batch[0]
		}
	} else {
		first, err = api.DecodeSubmitFrame(data)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if key, ok := submitKey(first); ok && s.routeByKey(w, r, key, rawBody{contentType: api.FrameMediaType, data: data}) {
		return
	}
	if batch == nil {
		s.answerSubmit(w, r, first, buf)
		return
	}
	outcomes := make([]api.SubmitOutcome, len(batch))
	for i, req := range batch {
		resp, err := s.submitOne(r, req, nil) // a shared body: each entry's payload is copied out of it
		if err != nil {
			outcomes[i] = api.SubmitOutcome{Status: errorStatus(err), Error: err.Error()}
			continue
		}
		outcomes[i].SubmitResponse = resp
	}
	writeJSON(w, http.StatusOK, api.SubmitBatchResponse{Outcomes: outcomes})
}

// decodeSubmitBatch opens a batch frame of one to maxWaitBatch
// submissions that all name the first one's target.
func decodeSubmitBatch(data []byte) ([]api.SubmitRequest, error) {
	reqs, err := api.DecodeSubmitBatch(data)
	switch {
	case err != nil:
		return nil, err
	case len(reqs) == 0:
		return nil, errors.New("batch frame of no submissions")
	case len(reqs) > maxWaitBatch:
		return nil, fmt.Errorf("batch frame of %d submissions exceeds the %d-submission limit", len(reqs), maxWaitBatch)
	}
	for i, req := range reqs {
		if req.EndpointID != reqs[0].EndpointID || req.GroupID != reqs[0].GroupID {
			return nil, fmt.Errorf("entry %d: a batch frame carries submissions for one endpoint or group", i)
		}
	}
	return reqs, nil
}

// handleSubmitDAG is POST /v1/dags: one request submits a whole
// dependency graph, which the service then drives internally — every
// edge (release, output binding, routing) is traversed inside the
// fabric with zero client round-trips. The graph routes to the shard
// owning the first node's target, and its id is minted ring-aligned
// there so any front door can route GET /v1/dags/{id} from the id.
func (s *Service) handleSubmitDAG(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitDAGRequest
	if !s.decodeBody(w, r, &req, maxWaitBatch) {
		return
	}
	if len(req.Nodes) == 0 {
		writeError(w, fmt.Errorf("%w: dag needs at least one node", ErrInvalidRequest))
		return
	}
	if len(req.Nodes) > maxWaitBatch {
		writeError(w, fmt.Errorf("%w: dag of %d nodes exceeds the %d-node limit", ErrInvalidRequest, len(req.Nodes), maxWaitBatch))
		return
	}
	if key, ok := submitKey(api.SubmitRequest{
		GroupID: req.Nodes[0].GroupID, EndpointID: req.Nodes[0].EndpointID,
	}); ok && s.routeByKey(w, r, key, req) {
		return
	}
	specs := make([]dag.NodeSpec, len(req.Nodes))
	for i, n := range req.Nodes {
		specs[i] = dag.NodeSpec{
			Key: n.Key,
			Spec: dag.TaskSpec{
				Function: n.FunctionID, Endpoint: n.EndpointID, Group: n.GroupID,
				Labels: n.Labels, Payload: n.Payload, Memoize: n.Memoize,
				Walltime: n.Walltime, MaxRetries: n.MaxRetries, AtMostOnce: n.AtMostOnce,
			},
			DependsOn: n.DependsOn,
			Requires:  n.Requires,
		}
	}
	id, tasks, memoized, err := s.SubmitDAG(claimsOf(r).Subject, specs)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := api.SubmitDAGResponse{DAGID: id, Tasks: tasks, Memoized: memoized}
	if s.sharded() {
		self := s.cfg.Ring.Self()
		resp.ShardID = string(self.ID)
		resp.ShardURL = self.BaseURL
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// handleDAGStatus is GET /v1/dags/{id}: the graph's live per-node
// state, served by the shard holding the graph (proxied there from any
// front door — the id is ring-aligned by construction).
func (s *Service) handleDAGStatus(w http.ResponseWriter, r *http.Request) {
	id := types.DAGID(r.PathValue("id"))
	if s.routeByKey(w, r, shard.DAGKey(id), nil) {
		return
	}
	resp, err := s.DAGStatus(claimsOf(r).Subject, id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, *resp)
}

func (s *Service) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.BatchSubmitRequest
	if !s.decodeBody(w, r, &req, maxWaitBatch) {
		return
	}
	if len(req.Tasks) > maxWaitBatch {
		writeError(w, fmt.Errorf("%w: batch of %d tasks exceeds the %d-task limit", ErrInvalidRequest, len(req.Tasks), maxWaitBatch))
		return
	}
	// Cross-shard: sub-batches scatter to their owner shards and the
	// ids gather back into submission order.
	if s.batchAcrossShards(w, r, req, claimsOf(r).Subject, arrivalOf(r)) {
		return
	}
	subs := make([]Submission, len(req.Tasks))
	for i, t := range req.Tasks {
		subs[i] = submissionOf(t)
	}
	// Atomic with respect to validation: a bad task anywhere in the
	// batch rejects the whole request before anything is enqueued.
	ids, _, err := s.SubmitBatchAt(claimsOf(r).Subject, subs, arrivalOf(r))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.BatchSubmitResponse{TaskIDs: ids})
}

// handleStats is GET /v1/stats: the per-instance operational counter
// surface. Always served locally — in a sharded deployment each shard
// reports only itself, and a fleet view polls every shard.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

func (s *Service) handleCreateGroup(w http.ResponseWriter, r *http.Request) {
	var req api.CreateGroupRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	// Cross-shard: a group lives where its member endpoints live, so
	// creation routes to the first member's owner shard (which then
	// validates that every member is local to it).
	if len(req.Members) > 0 && s.routeByKey(w, r, shard.EndpointKey(req.Members[0].EndpointID), req) {
		return
	}
	g, err := s.CreateGroup(claimsOf(r).Subject, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.CreateGroupResponse{Group: *g})
}

func (s *Service) handleGroupElasticity(w http.ResponseWriter, r *http.Request) {
	id := types.GroupID(r.PathValue("id"))
	if s.redirectByKey(w, r, shard.GroupKey(id)) {
		return
	}
	g, members, err := s.GroupElasticity(claimsOf(r).Subject, id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.GroupElasticityResponse{Group: *g, Members: members})
}

func (s *Service) handleGroupStatus(w http.ResponseWriter, r *http.Request) {
	id := types.GroupID(r.PathValue("id"))
	if s.redirectByKey(w, r, shard.GroupKey(id)) {
		return
	}
	g, statuses, err := s.GroupStatus(claimsOf(r).Subject, id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.GroupStatusResponse{Group: *g, Members: statuses})
}

func (s *Service) handleAddGroupMembers(w http.ResponseWriter, r *http.Request) {
	var req api.AddGroupMembersRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	id := types.GroupID(r.PathValue("id"))
	// 307 preserves method and body, so mutation routes like a read.
	if s.redirectByKey(w, r, shard.GroupKey(id)) {
		return
	}
	g, err := s.AddGroupMembers(claimsOf(r).Subject, id, req.Members...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.CreateGroupResponse{Group: *g})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := types.TaskID(r.PathValue("id"))
	// Browser-facing status surface: redirect to the task's owner.
	if s.redirectByKey(w, r, shard.TaskKey(id)) {
		return
	}
	st, err := s.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.StatusResponse{TaskID: id, Status: st})
}

// handleTaskTrace is GET /v1/tasks/{id}/trace: the task's recorded
// lifecycle timeline. Timelines live in memory on the shard that
// placed the task, so the request redirects to the task's owner shard
// like the status surface.
func (s *Service) handleTaskTrace(w http.ResponseWriter, r *http.Request) {
	id := types.TaskID(r.PathValue("id"))
	if s.redirectByKey(w, r, shard.TaskKey(id)) {
		return
	}
	tl, err := s.TaskTrace(claimsOf(r).Subject, id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.FromTimeline(tl))
}

// maxWait caps how long the server holds a blocking retrieval open;
// maxWaitBatch caps the id count of one POST /v1/tasks/wait request,
// and with it the tasks one batch or DAG submission is sized for: the
// ids of one submission are waited on in one request.
const (
	maxWait      = 5 * time.Minute
	maxWaitBatch = 10000
)

// clampWait parses a Go duration string into a blocking-retrieval
// wait, capped at maxWait ("" or non-positive means no blocking).
func clampWait(v string) time.Duration {
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0
	}
	return min(d, maxWait)
}

// resultResponseOf converts a stored result to its wire shape.
func resultResponseOf(res *types.Result) api.ResultResponse {
	return api.ResultResponse{
		TaskID:   res.TaskID,
		Output:   res.Output,
		Error:    res.Err,
		Memoized: res.Memoized,
		Lost:     res.Lost,
		Timing:   api.FromTiming(res.Timing),
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := types.TaskID(r.PathValue("id"))
	// Cross-shard: the result lives in the owner shard's store; proxy
	// there (holding the caller's wait) rather than redirecting, so
	// polling SDKs work against any front door unchanged.
	if s.routeByKey(w, r, shard.TaskKey(id), nil) {
		return
	}
	// Ownership is enforced: a capability UUID alone no longer grants
	// access to another user's result (404, like the event stream's
	// strict per-user model).
	res, err := s.ResultFor(r.Context(), claimsOf(r).Subject, id, clampWait(r.URL.Query().Get("wait")))
	if err != nil {
		writeError(w, err)
		return
	}
	if res == nil {
		// Not ready: 202 keeps polling semantics explicit. Report the
		// real lifecycle state when the record has one — a result that
		// was already retrieved and purged answers with its terminal
		// status rather than a misleading "queued".
		status := types.TaskQueued
		if st, err := s.Status(id); err == nil {
			status = st
		}
		writeJSON(w, http.StatusAccepted, api.StatusResponse{TaskID: id, Status: status})
		return
	}
	writeJSON(w, http.StatusOK, resultResponseOf(res))
}

// handleWaitTasks is POST /v1/tasks/wait: wait on N task ids in one
// request, returning whichever complete within the deadline. One
// request supersedes N parallel long-polls.
func (s *Service) handleWaitTasks(w http.ResponseWriter, r *http.Request) {
	var req api.WaitTasksRequest
	if !s.decodeBody(w, r, &req, 1) {
		return
	}
	if len(req.TaskIDs) == 0 {
		writeError(w, fmt.Errorf("%w: wait needs at least one task id", ErrInvalidRequest))
		return
	}
	if len(req.TaskIDs) > maxWaitBatch {
		writeError(w, fmt.Errorf("%w: wait batch of %d exceeds the %d-id limit",
			ErrInvalidRequest, len(req.TaskIDs), maxWaitBatch))
		return
	}
	// Cross-shard: ids scatter to their owner shards (one forwarded
	// wait per shard, in parallel) and completions gather here.
	if s.waitAcrossShards(w, r, req, claimsOf(r).Subject, clampWait(req.Wait)) {
		return
	}
	done, pending, err := s.WaitTasksFor(r.Context(), claimsOf(r).Subject, req.TaskIDs, clampWait(req.Wait))
	if err != nil {
		writeError(w, err)
		return
	}
	resp := api.WaitTasksResponse{Results: make([]api.ResultResponse, len(done)), Pending: pending}
	for i, res := range done {
		resp.Results[i] = resultResponseOf(res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// sseHeartbeat paces keep-alives on idle event streams. A variable
// only so that a test can see one without waiting for it.
var sseHeartbeat = 15 * time.Second

// sseGapFrame tells a subscriber that lagged past the replay ring to
// start over.
const sseGapFrame = "event: gap\ndata: {\"error\":\"replay gap: resume from scratch and reconcile via POST /v1/tasks/wait\"}\n\n"

// eventEncoding is everything that differs between the two encodings
// of GET /v1/events; the handler is the same code for both.
type eventEncoding struct {
	contentType    string
	heartbeat, gap string
	// write sends one event. head is the stream's scratch buffer for
	// what precedes the result, handed back for the next event.
	write func(w io.Writer, head []byte, ev *types.TaskEvent) ([]byte, error)
}

// serverSentEvents is the default encoding: one "id:" and one "data:"
// line per event, the event as JSON with its result in base64.
var serverSentEvents = eventEncoding{
	contentType: "text/event-stream",
	heartbeat:   ": hb\n\n",
	gap:         sseGapFrame,
	write: func(w io.Writer, head []byte, ev *types.TaskEvent) ([]byte, error) {
		// Written in pieces: formatting the frame into one buffer
		// would copy an inline result once more.
		head = append(strconv.AppendUint(append(head[:0], "id: "...), ev.Seq, 10), "\ndata: "...)
		for _, piece := range [...][]byte{head, wire.EncodeEvent(ev), []byte("\n\n")} {
			if _, err := w.Write(piece); err != nil {
				return head, err
			}
		}
		return head, nil
	},
}

// eventFrames is the encoding a client asks for with
// Accept: api.FrameMediaType: a small binary head, then the result
// frame exactly as the store holds it. Nothing is encoded per
// subscriber but the head.
var eventFrames = eventEncoding{
	contentType: api.FrameMediaType,
	heartbeat:   wire.EventHeartbeat,
	gap:         wire.EventGap,
	write: func(w io.Writer, head []byte, ev *types.TaskEvent) ([]byte, error) {
		head = wire.AppendEventHead(head[:0], ev)
		_, err := w.Write(head)
		if err == nil && len(ev.Result) > 0 {
			_, err = w.Write(ev.Result)
		}
		return head, err
	},
}

// sseDrainMax bounds how many ready events one flush covers, so a
// stream that never runs dry still returns to its select to see a
// canceled request or a due heartbeat.
const sseDrainMax = 64

// handleEvents is GET /v1/events: a Server-Sent Events stream
// multiplexing all of the authenticated user's task lifecycle events
// over one connection, or with ?terminal=1 only the terminal ones. A
// dropped subscriber reconnects with the standard Last-Event-ID header
// and is replayed the missed events from the bounded per-user ring;
// when the gap exceeds the ring the request fails 410 Gone (reconnect
// fresh and reconcile completions via POST /v1/tasks/wait). A
// subscriber that falls behind mid-stream is resumed in place from the
// ring, or told "event: gap" when even that is impossible.
//
// Events are flushed as soon as the subscription has nothing else
// ready: one event on an idle stream goes out at once, a burst shares
// one flush.
//
// The stream is Server-Sent Events unless the request's Accept names
// api.FrameMediaType, which selects binary event frames; the two differ
// in how an event, a heartbeat and the gap signal are written and in
// nothing else.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	user := claimsOf(r).Subject
	enc := serverSentEvents
	if api.IsFrameType(r.Header.Get("Accept")) {
		enc = eventFrames
	}
	filter := events.All
	if v := r.URL.Query().Get(api.EventsTerminalParam); v != "" {
		terminal, err := strconv.ParseBool(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "malformed " + api.EventsTerminalParam + " parameter: " + err.Error()})
			return
		}
		if terminal {
			filter = events.TerminalOnly
		}
	}

	var replay []types.TaskEvent
	var sub *events.Subscription
	var lastSeq uint64
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		after, err := strconv.ParseUint(lastID, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "malformed Last-Event-ID: " + err.Error()})
			return
		}
		replay, sub, err = s.Events.Resume(user, after, filter)
		if err != nil {
			// The ring no longer covers the gap: a lossless resume is
			// impossible, and the client must reconcile out of band.
			writeJSON(w, http.StatusGone, api.ErrorResponse{Error: err.Error()})
			return
		}
		lastSeq = after
	} else {
		sub = s.Events.Subscribe(user, filter)
		lastSeq = sub.Start()
	}
	defer func() { sub.Cancel() }()

	h := w.Header()
	h.Set("Content-Type", enc.contentType)
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	rc := http.NewResponseController(w)
	// The first flush sends the 200; a writer that cannot flush says so
	// before anything has been written.
	if err := rc.Flush(); err != nil {
		if errors.Is(err, http.ErrNotSupported) {
			writeJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: "streaming unsupported by transport"})
		}
		return
	}

	// delivered lists the results written since the last flush.
	var delivered []types.TaskID
	var head []byte
	write := func(ev *types.TaskEvent) bool {
		var err error
		if head, err = enc.write(w, head, ev); err != nil {
			return false
		}
		lastSeq = ev.Seq
		if ev.Terminal() && len(ev.Result) > 0 {
			delivered = append(delivered, ev.TaskID)
		}
		return true
	}
	flush := func() bool {
		if err := rc.Flush(); err != nil {
			return false
		}
		// Ack-on-stream purge: terminal events carrying their inline
		// results just reached the owner's own stream, so the stored
		// bytes have been delivered — schedule them out of the store
		// instead of waiting for an explicit result fetch. Streams are
		// per-user, not per-client, so the purge keeps a grace TTL for
		// any sibling client still polling, and only the first stream
		// to deliver a result schedules (and counts) it.
		ttl := s.cfg.ResultTTL
		if ttl <= 0 {
			ttl = streamPurgeGrace
		}
		for _, id := range delivered {
			if s.retire(id, ttl) {
				s.streamPurged.Add(1)
			}
		}
		delivered = delivered[:0]
		return true
	}
	writeAll := func(evs []types.TaskEvent) bool {
		if len(evs) == 0 {
			return true
		}
		for i := range evs {
			if !write(&evs[i]) {
				return false
			}
		}
		return flush()
	}
	if !writeAll(replay) {
		return
	}

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-sub.C:
			// Write ev and whatever else is ready, then flush once.
		drain:
			for n := 1; open; n++ {
				if !write(&ev) {
					return
				}
				if n == sseDrainMax {
					break
				}
				select {
				case ev, open = <-sub.C:
				default:
					break drain
				}
			}
			if !flush() {
				return
			}
			if open {
				continue
			}
			// Lagged: the bus dropped us rather than block the
			// publisher. Resume from the last seq actually sent.
			replay, nsub, err := s.Events.Resume(user, lastSeq, filter)
			if err != nil {
				// The connection ends here either way, so a failed write
				// changes nothing.
				io.WriteString(w, enc.gap) //nolint:errcheck
				rc.Flush()                 //nolint:errcheck
				return
			}
			sub = nsub
			if !writeAll(replay) {
				return
			}
		case <-heartbeat.C:
			if _, err := io.WriteString(w, enc.heartbeat); err != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// muxState holds the lazily built router.
type muxState struct {
	muxOnce sync.Once
	mux     *http.ServeMux
}
