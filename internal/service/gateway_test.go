package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/sdk"
	"funcx/internal/shard"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// newShardedService boots one sharded service instance ("shard-a")
// whose ring names a second shard ("shard-b") at an unreachable
// address — enough to exercise every wrong-shard decision locally.
func newShardedService(t *testing.T) (*Service, *httptest.Server, *shard.Directory) {
	t.Helper()
	cfg := shard.Config{
		Shards: []shard.Info{
			{ID: "shard-a", BaseURL: "http://127.0.0.1:1"}, // self URL unused in these tests
			{ID: "shard-b", BaseURL: "http://127.0.0.1:9"}, // nothing listens here
		},
		Seed: 7,
	}
	dir, err := shard.NewDirectory(cfg, "shard-a")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{ShardID: "shard-a", Ring: dir})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts, dir
}

// mintForeign draws an id owned by the *other* shard.
func mintForeign[T ~string](t *testing.T, dir *shard.Directory, newID func() T, keyOf func(T) string) T {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := newID()
		if !dir.Owns(keyOf(id)) {
			return id
		}
	}
	t.Fatal("could not mint a foreign-owned id")
	panic("unreachable")
}

// hopHeaders builds a verified hop from the given shard id: header
// plus a matching signed hop token (the test authority shares the
// deployment key, exactly like a real peer shard).
func hopHeaders(svc *Service, from string) map[string]string {
	return map[string]string{
		ShardHopHeader: from,
		ShardHopTokenHeader: svc.Authority.Mint(
			types.UserID("shard:"+from), time.Hour, auth.ScopeShardHop),
	}
}

// replicateHeaders marks a request as replication-lane traffic: the
// function-replica surfaces accept only this scope, not hop tokens.
func replicateHeaders(svc *Service, from string) map[string]string {
	return map[string]string{
		ShardHopHeader: from,
		ShardHopTokenHeader: svc.Authority.Mint(
			types.UserID("shard:"+from), time.Hour, auth.ScopeShardReplicate),
	}
}

func doRequest(t *testing.T, method, url, token string, hop map[string]string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	for k, v := range hop {
		req.Header.Set(k, v)
	}
	// No redirect following: the tests inspect the raw gateway answer.
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// A hop-marked request for a key this shard does not own must be
// answered 421 and never re-proxied (the redirect loop guard).
func TestGatewayHopGuard(t *testing.T) {
	svc, ts, dir := newShardedService(t)
	token := svc.MintUserToken("u1")
	foreign := mintForeign(t, dir, types.NewTaskID, shard.TaskKey)

	resp := doRequest(t, http.MethodGet, ts.URL+"/v1/tasks/"+string(foreign)+"/result", token, hopHeaders(svc, "shard-b"), nil)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("hop-marked wrong-shard result fetch: got %d, want 421", resp.StatusCode)
	}
	// Scatter surfaces guard too: a forwarded wait containing foreign
	// ids means the rings disagree.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/tasks/wait", token, hopHeaders(svc, "shard-b"),
		api.WaitTasksRequest{TaskIDs: []types.TaskID{foreign}})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("hop-marked wrong-shard wait: got %d, want 421", resp.StatusCode)
	}
}

// A public request for a foreign key is proxied; with the owner down
// the gateway reports 502 rather than hanging or serving a wrong
// answer.
func TestGatewayProxyUnreachableOwner(t *testing.T) {
	svc, ts, dir := newShardedService(t)
	token := svc.MintUserToken("u1")
	foreign := mintForeign(t, dir, types.NewTaskID, shard.TaskKey)

	resp := doRequest(t, http.MethodGet, ts.URL+"/v1/tasks/"+string(foreign)+"/result", token, nil, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("proxy to dead shard: got %d, want 502", resp.StatusCode)
	}
	stats := svc.StatsSnapshot()
	if stats.Proxied != 1 {
		t.Fatalf("proxied counter = %d, want 1", stats.Proxied)
	}
}

// Browser-facing surfaces redirect to the owner's URL instead of
// proxying.
func TestGatewayRedirectsStatusSurfaces(t *testing.T) {
	svc, ts, dir := newShardedService(t)
	token := svc.MintUserToken("u1")
	foreignTask := mintForeign(t, dir, types.NewTaskID, shard.TaskKey)

	resp := doRequest(t, http.MethodGet, ts.URL+"/v1/tasks/"+string(foreignTask), token, nil, nil)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("foreign task status: got %d, want 307", resp.StatusCode)
	}
	wantLoc := "http://127.0.0.1:9/v1/tasks/" + string(foreignTask)
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("redirect location %q, want %q", loc, wantLoc)
	}
	stats := svc.StatsSnapshot()
	if stats.Redirected != 1 {
		t.Fatalf("redirected counter = %d, want 1", stats.Redirected)
	}
}

// Wait requests mixing local and foreign ids scatter: the dead peer's
// ids come back pending instead of failing the whole request.
func TestGatewayWaitScatterDeadShardPendsIDs(t *testing.T) {
	svc, ts, dir := newShardedService(t)
	token := svc.MintUserToken("u1")
	foreign := mintForeign(t, dir, types.NewTaskID, shard.TaskKey)
	local := shard.MintAligned(dir, types.NewTaskID, shard.TaskKey)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/tasks/wait", token, nil,
		api.WaitTasksRequest{TaskIDs: []types.TaskID{foreign, local}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter wait: got %d, want 200", resp.StatusCode)
	}
	var wr api.WaitTasksResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Results) != 0 || len(wr.Pending) != 2 {
		t.Fatalf("scatter wait results=%d pending=%d, want 0/2", len(wr.Results), len(wr.Pending))
	}
}

// Clients must not be able to smuggle replication requests: function_id
// without a hop header is rejected, and a hop-marked replica cannot
// overwrite a record another user owns.
func TestGatewayFunctionReplicaGuards(t *testing.T) {
	svc, ts, _ := newShardedService(t)
	owner := svc.MintUserToken("owner")
	attacker := svc.MintUserToken("attacker")

	// Legitimate local registration by owner.
	var reg api.RegisterFunctionResponse
	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/functions", owner, nil,
		api.RegisterFunctionRequest{Name: "f", Body: []byte("def f():\n    return 1\n")})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}

	// function_id from a public client: rejected.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/functions", attacker, nil,
		api.RegisterFunctionRequest{Name: "f", Body: []byte("evil"), FunctionID: reg.FunctionID})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("public function_id: got %d, want 400", resp.StatusCode)
	}
	// A request-gateway hop token must not open the replication lane:
	// the surface is gated on the dedicated replicate scope.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/functions", owner, hopHeaders(svc, "shard-b"),
		api.RegisterFunctionRequest{Name: "f", Body: []byte("evil"), FunctionID: reg.FunctionID})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hop token on replica surface: got %d, want 400", resp.StatusCode)
	}
	// Replicate-marked replica for someone else's function id: forbidden.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/functions", attacker, replicateHeaders(svc, "shard-b"),
		api.RegisterFunctionRequest{Name: "f", Body: []byte("evil"), FunctionID: reg.FunctionID})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica overwrite by non-owner: got %d, want 403", resp.StatusCode)
	}
	// Replicate-marked replica by the owner installs verbatim.
	otherID := types.NewFunctionID()
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/functions", owner, replicateHeaders(svc, "shard-b"),
		api.RegisterFunctionRequest{Name: "g", Body: []byte("def g():\n    return 2\n"), FunctionID: otherID})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("replica install: got %d, want 201", resp.StatusCode)
	}
	if fn, err := svc.Registry.Function(otherID); err != nil || fn.Owner != "owner" {
		t.Fatalf("replica not installed with origin id/owner: %v", err)
	}
}

// A sharded service refuses groups whose members live on another
// shard (cross-shard groups are a recorded follow-on).
func TestGatewayCrossShardGroupRejected(t *testing.T) {
	svc, _, dir := newShardedService(t)
	// One local endpoint, then forge a member id owned by shard-b.
	ep, _, _, _, err := svc.RegisterEndpoint("u1", "local-ep", "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dir.Owns(shard.EndpointKey(ep.ID)) {
		t.Fatalf("registered endpoint not ring-aligned to its shard")
	}
	foreign := mintForeign(t, dir, types.NewEndpointID, shard.EndpointKey)
	_, err = svc.CreateGroup("u1", api.CreateGroupRequest{Name: "mixed", Members: []types.GroupMember{
		{EndpointID: ep.ID}, {EndpointID: foreign},
	}})
	if err == nil {
		t.Fatal("cross-shard group accepted")
	}
	if got := fmt.Sprint(err); !bytes.Contains([]byte(got), []byte("cross-shard")) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A forged hop header (no valid hop token) must NOT open the internal
// lane: the request is treated as public — proxied like any other
// wrong-shard arrival, never granted 421 semantics, replica installs,
// or the limiter bypass.
func TestGatewayForgedHopHeaderIsPublic(t *testing.T) {
	svc, ts, dir := newShardedService(t)
	token := svc.MintUserToken("u1")
	foreign := mintForeign(t, dir, types.NewTaskID, shard.TaskKey)

	// Bare header: proxied (502, dead peer), not 421.
	forged := map[string]string{ShardHopHeader: "shard-b"}
	resp := doRequest(t, http.MethodGet, ts.URL+"/v1/tasks/"+string(foreign)+"/result", token, forged, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("forged hop header: got %d, want 502 (public proxy path)", resp.StatusCode)
	}
	// A user token in the hop-token slot must not verify as a hop.
	forged[ShardHopTokenHeader] = token
	resp = doRequest(t, http.MethodGet, ts.URL+"/v1/tasks/"+string(foreign)+"/result", token, forged, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("user token as hop token: got %d, want 502", resp.StatusCode)
	}
	// Nor can a forged hop smuggle a function replica.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/functions", token, forged,
		api.RegisterFunctionRequest{Name: "f", Body: []byte("evil"), FunctionID: types.NewFunctionID()})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged-hop replica install: got %d, want 400", resp.StatusCode)
	}
}

// A frame submission that reaches the wrong shard goes on to the owner
// as the bytes that arrived, under their own Content-Type, and the
// owner stores the payload byte for byte; the hop carries the marks of
// any other. The SDK's submit, whose frame body can be replayed, also
// follows a 307 to the owner.
func TestGatewayRelaysFrameSubmitVerbatim(t *testing.T) {
	type arrival struct {
		contentType, hop, auth string
		body                   []byte
	}
	hops := make(chan arrival, 4)
	svcs, base, token := newFleetBehind(t, 2, 0, func(i int, svc *Service) http.Handler {
		if i == 0 {
			return svc
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/tasks" {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				hops <- arrival{r.Header.Get("Content-Type"), r.Header.Get(ShardHopHeader), r.Header.Get("Authorization"), body}
			}
			svc.ServeHTTP(w, r)
		})
	})
	var fn api.RegisterFunctionResponse
	if resp := doRequest(t, http.MethodPost, base+"/v1/functions", token, nil,
		api.RegisterFunctionRequest{Name: "f", Body: []byte("def f(): pass")}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register function = %d", resp.StatusCode)
	} else if err := json.NewDecoder(resp.Body).Decode(&fn); err != nil {
		t.Fatal(err)
	}
	ep, _, _, _, err := svcs[1].RegisterEndpoint("alice", "far", "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0, '"', '{', 0xff, '\n'}, 4096)
	frame := api.EncodeSubmitFrame(&api.SubmitRequest{FunctionID: fn.FunctionID, EndpointID: ep.ID, Payload: payload, Memoize: true})

	stored := func(id types.TaskID) *types.Task {
		t.Helper()
		rec, ok := svcs[1].tasks.Get(id)
		if !ok {
			t.Fatalf("owner shard has no record of %s", id)
		}
		task, err := wire.DecodeTask(rec.Task())
		if err != nil {
			t.Fatal(err)
		}
		return task
	}

	code, resp := postAs(t, base, token, "/v1/tasks", api.FrameMediaType, bytes.NewReader(frame))
	if code != http.StatusAccepted || resp.ShardID != "shard-b" || resp.EndpointID != ep.ID {
		t.Fatalf("frame submit at the wrong shard = %d, %+v", code, resp)
	}
	hop := <-hops
	if hop.contentType != api.FrameMediaType || !bytes.Equal(hop.body, frame) {
		t.Fatalf("the owner was sent %d bytes of %q, want the %d-byte frame as it arrived", len(hop.body), hop.contentType, len(frame))
	}
	if hop.hop != "shard-a" || hop.auth != "Bearer "+token {
		t.Fatalf("hop marks = %q, %q", hop.hop, hop.auth)
	}
	if task := stored(resp.TaskID); !bytes.Equal(task.Payload, payload) || !task.Memoize || task.Owner != "alice" {
		t.Fatalf("owner stored %d payload bytes, memoize %v, owner %q", len(task.Payload), task.Memoize, task.Owner)
	}
	if n := svcs[0].StatsSnapshot().Proxied; n != 1 {
		t.Fatalf("proxied = %d, want 1", n)
	}

	// A batch frame goes by its one key the same way, and every outcome
	// names the shard that placed it.
	coalesced := batchFrame(
		&api.SubmitRequest{FunctionID: fn.FunctionID, EndpointID: ep.ID, Payload: payload},
		&api.SubmitRequest{FunctionID: "no-such-function", EndpointID: ep.ID},
		&api.SubmitRequest{FunctionID: fn.FunctionID, EndpointID: ep.ID, Payload: []byte("third")},
	)
	code, outcomes, _ := postBatchFrame(t, base, token, coalesced)
	if code != http.StatusOK || len(outcomes) != 3 || outcomes[1].Status != http.StatusNotFound {
		t.Fatalf("batch frame at the wrong shard = %d, %+v", code, outcomes)
	}
	if hop = <-hops; hop.contentType != api.FrameMediaType || !bytes.Equal(hop.body, coalesced) || hop.hop != "shard-a" {
		t.Fatalf("the owner was sent %d bytes of %q from %q, want the %d-byte batch frame as it arrived", len(hop.body), hop.contentType, hop.hop, len(coalesced))
	}
	for _, i := range []int{0, 2} {
		if o := outcomes[i]; o.ShardID != "shard-b" || o.ShardURL != svcs[1].cfg.Ring.Self().BaseURL || o.EndpointID != ep.ID {
			t.Fatalf("outcome %d = %+v, want it stamped by shard-b", i, o)
		}
	}
	if task := stored(outcomes[0].TaskID); !bytes.Equal(task.Payload, payload) {
		t.Fatalf("owner stored %d payload bytes of the batch's first entry, want %d", len(task.Payload), len(payload))
	}
	if task := stored(outcomes[2].TaskID); string(task.Payload) != "third" {
		t.Fatalf("owner stored %q for the batch's third entry", task.Payload)
	}

	// A hop that still misses is a ring disagreement, frame or not.
	foreign := mintForeign(t, svcs[0].cfg.Ring, types.NewEndpointID, shard.EndpointKey)
	missed := api.EncodeSubmitFrame(&api.SubmitRequest{FunctionID: fn.FunctionID, EndpointID: foreign})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/tasks", bytes.NewReader(missed))
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", api.FrameMediaType)
	for k, v := range hopHeaders(svcs[0], "shard-b") {
		req.Header.Set(k, v)
	}
	if r, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else if r.Body.Close(); r.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("hop-marked frame for a foreign key = %d, want 421", r.StatusCode)
	}

	// The SDK through a front door that redirects instead of relaying.
	redirector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, svcs[1].cfg.Ring.Self().BaseURL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer redirector.Close()
	id, placed, err := sdk.New(redirector.URL, token).Submit(context.Background(),
		sdk.SubmitSpec{Function: fn.FunctionID, Endpoint: ep.ID, Payload: payload})
	if err != nil || placed != ep.ID {
		t.Fatalf("SDK submit through a 307 = %s, %s, %v", id, placed, err)
	}
	if hop = <-hops; hop.contentType != api.FrameMediaType || hop.hop != "" {
		t.Fatalf("redirected submit arrived as %q (hop %q), want a frame from the client itself", hop.contentType, hop.hop)
	}
	if task := stored(id); !bytes.Equal(task.Payload, payload) {
		t.Fatalf("redirected submit stored %d payload bytes, want %d", len(task.Payload), len(payload))
	}
}
