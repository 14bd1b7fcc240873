package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/shard"
	"funcx/internal/types"
)

// This file is the cross-shard gateway: the layer that makes any shard
// a valid front door, exactly like funcX's load-balanced web tier. A
// request arriving at a shard that does not own its key is either
// proxied to the owner over the ordinary HTTP API (task submissions,
// waits, results — the SDK never notices) or answered with a 307
// redirect to the owner's URL (browser-facing status surfaces — the
// client re-issues the request itself). Proxied hops carry the
// ShardHopHeader as a loop guard: a shard receiving a hop-marked
// request for a key it does not own answers 421 Misdirected Request
// instead of proxying again, so diverging ring configs degrade to a
// visible error rather than a forwarding loop.

// ShardHopHeader marks a shard-to-shard hop with the origin shard's
// id. Exactly one hop is ever taken: the receiver must own the key or
// reject the request.
const ShardHopHeader = "X-FuncX-Shard"

// ShardHopTokenHeader authenticates a hop: a token signed with the
// deployment's shared key whose subject is "shard:<origin id>" and
// whose only scope is ScopeShardHop — something no user token can
// carry. A ShardHopHeader without a valid matching token is ignored
// (the request is treated as public), so clients can neither smuggle
// function replicas through the replication lane nor bypass the
// submission admission limiter by forging the header.
const ShardHopTokenHeader = "X-FuncX-Shard-Token"

// sharded reports whether this instance is part of a sharded
// deployment.
func (s *Service) sharded() bool { return s.cfg.Ring != nil }

// shardLaneFrom returns the origin shard id of a *verified*
// shard-to-shard request on the given internal lane, or "" for public
// requests (including requests carrying a hop header the token does
// not back up). The token must carry exactly the lane's scope — a
// credential for one lane does not open the other.
func (s *Service) shardLaneFrom(r *http.Request, scope auth.Scope) string {
	id := r.Header.Get(ShardHopHeader)
	if id == "" || !s.sharded() {
		return ""
	}
	claims, err := s.Authority.Verify(r.Header.Get(ShardHopTokenHeader))
	if err != nil {
		return ""
	}
	if string(claims.Subject) != "shard:"+id {
		return ""
	}
	if len(claims.Scopes) != 1 || claims.Scopes[0] != scope {
		return ""
	}
	return id
}

// hopFrom verifies the request-gateway lane (proxied user requests).
func (s *Service) hopFrom(r *http.Request) string {
	return s.shardLaneFrom(r, auth.ScopeShardHop)
}

// replicateFrom verifies the replication/anti-entropy lane (function
// replicas, registry pulls).
func (s *Service) replicateFrom(r *http.Request) string {
	return s.shardLaneFrom(r, auth.ScopeShardReplicate)
}

// misdirected answers a hop-marked request for a key this shard does
// not own: the loop guard. 421 tells the origin its ring disagrees
// with ours — re-proxying would bounce the request forever.
func (s *Service) misdirected(w http.ResponseWriter, key string) {
	writeJSON(w, http.StatusMisdirectedRequest, api.ErrorResponse{
		Error: fmt.Sprintf("shard %s does not own key %q (owner per its ring: %s); shard ring configs disagree",
			s.cfg.Ring.SelfID(), key, s.cfg.Ring.Owner(key).ID),
	})
}

// routeByKey resolves a key's serving shard (ring ownership filtered
// through the drain/handoff overrides — see keyOwner) and, when it is
// another shard, proxies the request there (re-encoding body when
// non-nil, or relaying a rawBody as it is). It reports whether it wrote
// a response; false means this shard serves the key and the caller
// should handle it. A hop-marked request for a key this shard handed
// off is forwarded once more — the importer serves it locally, so the
// chain terminates — while any other hop-marked miss still trips the
// loop guard.
func (s *Service) routeByKey(w http.ResponseWriter, r *http.Request, key string, body any) bool {
	if !s.sharded() || s.servesKey(key) {
		return false
	}
	if s.hopFrom(r) != "" && !s.movedAway(key) {
		s.misdirected(w, key)
		return true
	}
	s.proxyTo(w, r, s.keyOwner(key), body)
	return true
}

// redirectByKey is routeByKey for browser-facing surfaces: instead of
// proxying, the wrong shard answers 307 Temporary Redirect to the
// owner's URL, preserving method and body. The loop guard still
// applies to hop-marked requests.
func (s *Service) redirectByKey(w http.ResponseWriter, r *http.Request, key string) bool {
	if !s.sharded() || s.servesKey(key) {
		return false
	}
	if s.hopFrom(r) != "" && !s.movedAway(key) {
		s.misdirected(w, key)
		return true
	}
	target := s.keyOwner(key)
	s.mu.Lock()
	s.redirected++
	s.mu.Unlock()
	http.Redirect(w, r, target.BaseURL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

// buildHopRequest constructs one request-gateway hop on behalf of the
// original caller (the relay and scatter-gather paths).
func (s *Service) buildHopRequest(ctx context.Context, r *http.Request, target shard.Info, method, pathAndQuery string, body any) (*http.Request, error) {
	return s.buildLaneRequest(ctx, r, target, method, pathAndQuery, body, s.hopToken)
}

// rawBody is a request body a shard relays as the bytes it read, under
// the Content-Type they arrived with, where any other body value is
// re-encoded as JSON.
type rawBody struct {
	contentType string
	data        []byte
}

// buildLaneRequest constructs one shard-to-shard request on behalf of
// the original caller: body re-encoded when non-nil (a rawBody goes
// verbatim), the caller's Authorization forwarded (the owner
// re-authenticates against the shared signing key), and the shard
// header plus the given lane token attached for the receiver's
// verification. The single place shard headers are set — the relay,
// scatter-gather, and replication paths all go through it.
func (s *Service) buildLaneRequest(ctx context.Context, r *http.Request, target shard.Info, method, pathAndQuery string, body any, token string) (*http.Request, error) {
	var reqBody io.Reader
	contentType := "application/json"
	if raw, ok := body.(rawBody); ok {
		reqBody, contentType = bytes.NewReader(raw.data), raw.contentType
	} else if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		reqBody = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, target.BaseURL+pathAndQuery, reqBody)
	if err != nil {
		return nil, err
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		req.Header.Set("Authorization", auth)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(ShardHopHeader, string(s.cfg.Ring.SelfID()))
	req.Header.Set(ShardHopTokenHeader, token)
	return req, nil
}

// proxyTo forwards the request to the owner shard and streams the
// response back verbatim.
func (s *Service) proxyTo(w http.ResponseWriter, r *http.Request, target shard.Info, body any) {
	url := r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := s.buildHopRequest(r.Context(), r, target, r.Method, url, body)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: "gateway: building proxy request: " + err.Error()})
		return
	}
	s.mu.Lock()
	s.proxied++
	s.mu.Unlock()
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, api.ErrorResponse{
			Error: fmt.Sprintf("gateway: shard %s unreachable: %v", target.ID, err),
		})
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // best-effort relay
}

// forwardJSON issues one shard-to-shard JSON request on behalf of the
// original caller and decodes the response. Used by the
// scatter-gather paths and function replication, where the response
// must be merged rather than relayed.
func (s *Service) forwardJSON(ctx context.Context, r *http.Request, target shard.Info, method, path string, body, out any) (int, error) {
	return s.forwardJSONLane(ctx, r, target, method, path, body, out, s.hopToken)
}

// forwardJSONLane is forwardJSON with an explicit lane credential
// (the replication paths pass the replicate token).
func (s *Service) forwardJSONLane(ctx context.Context, r *http.Request, target shard.Info, method, path string, body, out any, token string) (int, error) {
	req, err := s.buildLaneRequest(ctx, r, target, method, path, body, token)
	if err != nil {
		return 0, err
	}
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		var e api.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("shard %s: %s", target.ID, e.Error)
		}
		return resp.StatusCode, fmt.Errorf("shard %s: HTTP %d", target.ID, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// submitKey returns the ring key a submission is owned by: its group,
// else its direct endpoint. Submissions naming neither (or both) are
// malformed; they stay local so validation reports the error.
func submitKey(req api.SubmitRequest) (string, bool) {
	switch {
	case req.GroupID != "":
		return shard.GroupKey(req.GroupID), true
	case req.EndpointID != "":
		return shard.EndpointKey(req.EndpointID), true
	default:
		return "", false
	}
}

// stampShard annotates a submit response with this shard's identity so
// the SDK can pin the task's event stream to the owner shard.
func (s *Service) stampShard(resp *api.SubmitResponse) {
	if s.sharded() {
		self := s.cfg.Ring.Self()
		resp.ShardID = string(self.ID)
		resp.ShardURL = self.BaseURL
	}
}

// --- scatter-gather: batch submit ---

// batchAcrossShards splits a batch submission by owner shard, forwards
// each remote sub-batch in parallel, places the local one directly,
// and merges ids back into submission order. It reports whether it
// wrote a response; false means the whole batch is local.
//
// Cross-shard batches trade away single-shard batch atomicity: each
// owner still validates its sub-batch before enqueueing any of it, but
// a rejection on one shard cannot un-enqueue another shard's already
// accepted sub-batch (shared nothing). The error names the failing
// sub-batch so callers can reconcile.
func (s *Service) batchAcrossShards(w http.ResponseWriter, r *http.Request, req api.BatchSubmitRequest, actor types.UserID, start time.Time) bool {
	if !s.sharded() {
		return false
	}
	// Partition task indices by owner shard.
	parts := make(map[shard.ID][]int)
	var malformed []int // neither group nor endpoint: keep local for the error
	selfID := s.cfg.Ring.SelfID()
	for i, t := range req.Tasks {
		key, ok := submitKey(t)
		if !ok {
			malformed = append(malformed, i)
			continue
		}
		owner := s.keyOwner(key).ID
		parts[owner] = append(parts[owner], i)
	}
	local := append(parts[selfID], malformed...)
	if len(local) == len(req.Tasks) {
		return false
	}
	if s.hopFrom(r) != "" {
		// A forwarded sub-batch must be fully served by the receiver —
		// unless the misses are keys this shard handed off, which get
		// their one bounded extra hop to the importer.
		for _, t := range req.Tasks {
			if key, ok := submitKey(t); ok && !s.servesKey(key) && !s.movedAway(key) {
				s.misdirected(w, "batch")
				return true
			}
		}
	}

	type part struct {
		idxs []int
		ids  []types.TaskID
		err  error
	}
	results := make([]*part, 0, len(parts)+1)
	var wg sync.WaitGroup
	for id, idxs := range parts {
		if id == selfID {
			continue
		}
		target, ok := s.cfg.Ring.Lookup(id)
		if !ok {
			writeJSON(w, http.StatusInternalServerError, api.ErrorResponse{
				Error: fmt.Sprintf("gateway: ring names shard %s with no directory entry", id),
			})
			return true
		}
		p := &part{idxs: idxs}
		results = append(results, p)
		sub := api.BatchSubmitRequest{Tasks: make([]api.SubmitRequest, len(idxs))}
		for j, i := range idxs {
			sub.Tasks[j] = req.Tasks[i]
		}
		wg.Add(1)
		go func(target shard.Info, sub api.BatchSubmitRequest) {
			defer wg.Done()
			var resp api.BatchSubmitResponse
			if _, err := s.forwardJSON(r.Context(), r, target, http.MethodPost, "/v1/tasks/batch", sub, &resp); err != nil {
				p.err = err
				return
			}
			p.ids = resp.TaskIDs
		}(target, sub)
	}
	// Local sub-batch (malformed entries ride along so its validation
	// reports them).
	if len(local) > 0 {
		p := &part{idxs: local}
		results = append(results, p)
		subs := make([]Submission, len(local))
		for j, i := range local {
			subs[j] = submissionOf(req.Tasks[i])
		}
		p.ids, _, p.err = s.SubmitBatchAt(actor, subs, start)
	}
	wg.Wait()

	ids := make([]types.TaskID, len(req.Tasks))
	for _, p := range results {
		if p.err != nil {
			writeError(w, fmt.Errorf("cross-shard batch: %w", p.err))
			return true
		}
		if len(p.ids) != len(p.idxs) {
			writeJSON(w, http.StatusBadGateway, api.ErrorResponse{Error: "gateway: sub-batch id count mismatch"})
			return true
		}
		for j, i := range p.idxs {
			ids[i] = p.ids[j]
		}
	}
	writeJSON(w, http.StatusAccepted, api.BatchSubmitResponse{TaskIDs: ids})
	return true
}

// --- scatter-gather: batch wait ---

// waitAcrossShards partitions a wait request's ids by owner shard,
// waits on the local subset directly and on each remote subset via one
// forwarded wait per shard (all in parallel, sharing the deadline),
// and merges completions. It reports whether it wrote a response;
// false means every id is local.
//
// A shard that cannot be reached (e.g. mid-restart) contributes its
// ids as pending rather than failing the whole request, so clients
// simply retry — except ownership rejections (404), which propagate.
func (s *Service) waitAcrossShards(w http.ResponseWriter, r *http.Request, req api.WaitTasksRequest, actor types.UserID, wait time.Duration) bool {
	if !s.sharded() {
		return false
	}
	parts := make(map[shard.ID][]types.TaskID)
	selfID := s.cfg.Ring.SelfID()
	for _, id := range req.TaskIDs {
		owner := s.keyOwner(shard.TaskKey(id)).ID
		parts[owner] = append(parts[owner], id)
	}
	if len(parts[selfID]) == len(req.TaskIDs) {
		return false
	}
	if s.hopFrom(r) != "" {
		// A forwarded wait must be fully served here — except for ids
		// this shard handed off, which re-scatter once to the importer
		// (bounded: the importer serves them locally).
		for _, id := range req.TaskIDs {
			if key := shard.TaskKey(id); !s.servesKey(key) && !s.movedAway(key) {
				s.misdirected(w, "wait")
				return true
			}
		}
	}

	var mu sync.Mutex
	resp := api.WaitTasksResponse{}
	var ownershipErr error
	var wg sync.WaitGroup
	for id, ids := range parts {
		if id == selfID {
			continue
		}
		target, ok := s.cfg.Ring.Lookup(id)
		if !ok {
			mu.Lock()
			resp.Pending = append(resp.Pending, ids...)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(target shard.Info, ids []types.TaskID) {
			defer wg.Done()
			sub := api.WaitTasksRequest{TaskIDs: ids, Wait: req.Wait}
			var sr api.WaitTasksResponse
			status, err := s.forwardJSON(r.Context(), r, target, http.MethodPost, "/v1/tasks/wait", sub, &sr)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if status == http.StatusNotFound {
					// Ownership rejection: the whole request fails, like
					// the single-shard surface.
					ownershipErr = err
					return
				}
				resp.Pending = append(resp.Pending, ids...)
				return
			}
			resp.Results = append(resp.Results, sr.Results...)
			resp.Pending = append(resp.Pending, sr.Pending...)
		}(target, ids)
	}
	if localIDs := parts[selfID]; len(localIDs) > 0 {
		done, pending, err := s.WaitTasksFor(r.Context(), actor, localIDs, wait)
		mu.Lock()
		if err != nil {
			ownershipErr = err
		} else {
			for _, res := range done {
				resp.Results = append(resp.Results, resultResponseOf(res))
			}
			resp.Pending = append(resp.Pending, pending...)
		}
		mu.Unlock()
	}
	wg.Wait()
	if ownershipErr != nil {
		writeError(w, ownershipErr)
		return true
	}
	writeJSON(w, http.StatusOK, resp)
	return true
}

// --- anti-entropy export ---

// handleExportFunctions serves GET /v1/shard/functions — the complete
// function-record set, to replicate-authenticated peers only (neither
// a user token nor a request-gateway hop token qualifies). Recovered
// shards pull it to converge after downtime; see pullFunctions in
// recovery.go.
func (s *Service) handleExportFunctions(w http.ResponseWriter, r *http.Request) {
	if !s.sharded() || s.replicateFrom(r) == "" {
		writeJSON(w, http.StatusForbidden, api.ErrorResponse{Error: "service: shard-to-shard surface"})
		return
	}
	writeJSON(w, http.StatusOK, api.FunctionExportResponse{Functions: s.Registry.Functions()})
}

// --- function replication ---

// replicateTimeout bounds each peer's share of a function broadcast:
// a partitioned peer (connect blackholed, not refused) must not stall
// the caller's registration for the kernel connect timeout.
const replicateTimeout = 5 * time.Second

// replicateFunction broadcasts a function mutation to every peer shard
// on behalf of the original caller, fanning out concurrently with a
// per-peer timeout and waiting for the round before the caller's
// response is written. Function records are global metadata over
// sharded groups and endpoints: a submission validated on any shard
// needs the record locally, so registrations (and updates/shares) fan
// out at write time. Replication is best effort — a peer that is down
// misses the write and serves ErrNotFound for the function until it is
// re-registered (anti-entropy is a recorded follow-on); the common
// fleet is small and registrations are rare.
func (s *Service) replicateFunction(r *http.Request, method, path string, body any) {
	if !s.sharded() {
		return
	}
	var wg sync.WaitGroup
	for _, peer := range s.cfg.Ring.Peers() {
		wg.Add(1)
		go func(peer shard.Info) {
			defer wg.Done()
			// Parented on the service's lifetime, not the inbound
			// request: the broadcast must finish even if the client
			// hangs up, but must not outlive shutdown.
			ctx, cancel := context.WithTimeout(s.ctx, replicateTimeout)
			defer cancel()
			s.forwardJSONLane(ctx, r, peer, method, path, body, nil, s.replicateToken) //nolint:errcheck // best-effort broadcast
		}(peer)
	}
	wg.Wait()
}
