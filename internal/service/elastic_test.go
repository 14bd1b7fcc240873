package service

import (
	"net/http"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/elastic"
	"funcx/internal/store"
	"funcx/internal/types"
)

// --- batch submit atomicity ---

func TestBatchSubmitValidatesBeforeEnqueueing(t *testing.T) {
	svc, srv, token := testService(t)
	ep := registerTestEndpoint(t, srv, token, "ep", nil)
	fnID := registerTestFunction(t, srv, token)

	// Second task names an unknown function: the whole batch must be
	// rejected with nothing enqueued for the first task.
	var resp api.BatchSubmitResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks/batch", api.BatchSubmitRequest{
		Tasks: []api.SubmitRequest{
			{FunctionID: fnID, EndpointID: ep, Payload: []byte("ok")},
			{FunctionID: "no-such-function", EndpointID: ep, Payload: []byte("bad")},
			{FunctionID: fnID, EndpointID: ep, Payload: []byte("ok")},
		},
	}, &resp)
	if code != http.StatusNotFound {
		t.Fatalf("batch with unknown function = %d, want 404", code)
	}
	if len(resp.TaskIDs) != 0 {
		t.Fatalf("rejected batch returned ids: %v", resp.TaskIDs)
	}
	if n := svc.Store.Queue(store.TaskQueueName(string(ep))).Len(); n != 0 {
		t.Fatalf("rejected batch left %d tasks enqueued", n)
	}
	if submitted, _ := svc.Stats(); submitted != 0 {
		t.Fatalf("rejected batch counted %d submissions", submitted)
	}

	// A fully valid batch still lands every task.
	code = doJSON(t, srv, token, http.MethodPost, "/v1/tasks/batch", api.BatchSubmitRequest{
		Tasks: []api.SubmitRequest{
			{FunctionID: fnID, EndpointID: ep, Payload: []byte("a")},
			{FunctionID: fnID, EndpointID: ep, Payload: []byte("b")},
		},
	}, &resp)
	if code != http.StatusAccepted || len(resp.TaskIDs) != 2 {
		t.Fatalf("valid batch = %d, ids %v", code, resp.TaskIDs)
	}
	if n := svc.Store.Queue(store.TaskQueueName(string(ep))).Len(); n != 2 {
		t.Fatalf("valid batch enqueued %d tasks, want 2", n)
	}
}

func TestBatchSubmitRejectsUnsatisfiableSelectorUpfront(t *testing.T) {
	svc, srv, token := testService(t)
	ep := registerTestEndpoint(t, srv, token, "cpu", map[string]string{"arch": "cpu"})
	fnID := registerTestFunction(t, srv, token)
	g, err := svc.CreateGroup("alice", api.CreateGroupRequest{Name: "fleet", Members: []types.GroupMember{{EndpointID: ep}}})
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}

	var resp api.BatchSubmitResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks/batch", api.BatchSubmitRequest{
		Tasks: []api.SubmitRequest{
			{FunctionID: fnID, GroupID: g.ID, Payload: []byte("ok")},
			{FunctionID: fnID, GroupID: g.ID, Payload: []byte("bad"), Labels: map[string]string{"arch": "gpu"}},
		},
	}, &resp)
	if code != http.StatusBadRequest {
		t.Fatalf("batch with unsatisfiable selector = %d, want 400", code)
	}
	if n := svc.Store.Queue(store.TaskQueueName(string(ep))).Len(); n != 0 {
		t.Fatalf("rejected batch left %d tasks enqueued", n)
	}
}

// --- elasticity API ---

func TestCreateElasticGroupValidatesSpec(t *testing.T) {
	svc, srv, token := testService(t)
	ep := registerTestEndpoint(t, srv, token, "ep", nil)

	var created api.CreateGroupResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/groups", api.CreateGroupRequest{
		Name:    "fleet",
		Members: []types.GroupMember{{EndpointID: ep}},
		Elastic: &types.ElasticSpec{Strategy: "warp-speed"},
	}, &created)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown strategy = %d, want 400", code)
	}

	code = doJSON(t, srv, token, http.MethodPost, "/v1/groups", api.CreateGroupRequest{
		Name:    "fleet",
		Members: []types.GroupMember{{EndpointID: ep}},
		Elastic: &types.ElasticSpec{Strategy: elastic.StrategyProportional, TasksPerBlock: 2},
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("elastic group = %d, want 201", code)
	}
	if created.Group.Elastic == nil || created.Group.Elastic.TasksPerBlock != 2 {
		t.Fatalf("spec not stored: %+v", created.Group.Elastic)
	}
	if created.Group.Elastic.AdviceTTL <= 0 {
		t.Fatal("service did not default the advice TTL")
	}
	if _, err := svc.CreateGroup("alice", api.CreateGroupRequest{
		Name: "bad", Members: []types.GroupMember{{EndpointID: ep}},
		Elastic: &types.ElasticSpec{HighWater: 1, LowWater: 2},
	}); err == nil {
		t.Fatal("inverted watermarks accepted")
	}
}

func TestGroupElasticityEndpointReportsAdvice(t *testing.T) {
	svc, srv, token := testService(t)
	ep := registerTestEndpoint(t, srv, token, "ep", nil)
	fnID := registerTestFunction(t, srv, token)

	var created api.CreateGroupResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/groups", api.CreateGroupRequest{
		Name:    "fleet",
		Members: []types.GroupMember{{EndpointID: ep}},
		Elastic: &types.ElasticSpec{Strategy: elastic.StrategyProportional},
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create elastic group = %d", code)
	}

	// Build backlog: no agent is connected, so routed tasks queue.
	for i := 0; i < 4; i++ {
		var sub api.SubmitResponse
		if code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks", api.SubmitRequest{
			FunctionID: fnID, GroupID: created.Group.ID, Payload: []byte("x"),
		}, &sub); code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
	}

	// The controller runs on the service context; one evaluation is
	// enough for advice to appear. Tick synchronously instead of
	// sleeping for the interval.
	svc.Elastic.Tick()

	var resp api.GroupElasticityResponse
	code = doJSON(t, srv, token, http.MethodGet,
		"/v1/groups/"+string(created.Group.ID)+"/elasticity", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("elasticity status = %d", code)
	}
	if resp.Group.Elastic == nil {
		t.Fatal("response missing elastic spec")
	}
	if len(resp.Members) != 1 {
		t.Fatalf("members = %d, want 1", len(resp.Members))
	}
	m := resp.Members[0]
	if m.Status.QueuedTasks != 4 {
		t.Fatalf("member queued = %d, want 4", m.Status.QueuedTasks)
	}
	if m.Advice == nil {
		t.Fatal("no advice after controller tick")
	}
	// The member is disconnected (no agent), so the strategy advises
	// zero — the advice record still flows end to end.
	if m.Advice.GroupID != created.Group.ID || m.Advice.TTL <= 0 {
		t.Fatalf("advice = %+v", m.Advice)
	}
	// The forwarder holds the same advice for its next heartbeat.
	fwd, ok := svc.Forwarder(ep)
	if !ok {
		t.Fatal("no forwarder for endpoint")
	}
	deadline := time.Now().Add(time.Second)
	for fwd.Advice() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if adv := fwd.Advice(); adv == nil || adv.EndpointID != ep {
		t.Fatalf("forwarder advice = %+v", adv)
	}
}

func TestElasticMembershipIsExclusive(t *testing.T) {
	svc, srv, token := testService(t)
	ep1 := registerTestEndpoint(t, srv, token, "ep1", nil)
	ep2 := registerTestEndpoint(t, srv, token, "ep2", nil)

	if _, err := svc.CreateGroup("alice", api.CreateGroupRequest{
		Name: "g1", Members: []types.GroupMember{{EndpointID: ep1}}, Elastic: &types.ElasticSpec{},
	}); err != nil {
		t.Fatalf("first elastic group: %v", err)
	}
	// Two controllers advising one endpoint would flap its capacity
	// target every tick: a second elastic group sharing ep1 conflicts.
	code := doJSON(t, srv, token, http.MethodPost, "/v1/groups", api.CreateGroupRequest{
		Name:    "g2",
		Members: []types.GroupMember{{EndpointID: ep1}},
		Elastic: &types.ElasticSpec{},
	}, nil)
	if code != http.StatusConflict {
		t.Fatalf("overlapping elastic group = %d, want 409", code)
	}
	// Non-elastic groups may still share the member freely.
	if _, err := svc.CreateGroup("alice", api.CreateGroupRequest{
		Name: "plain", Members: []types.GroupMember{{EndpointID: ep1}},
	}); err != nil {
		t.Fatalf("non-elastic overlap rejected: %v", err)
	}
	// Nor can an elastic group later absorb another's member.
	g2, err := svc.CreateGroup("alice", api.CreateGroupRequest{
		Name: "g2", Members: []types.GroupMember{{EndpointID: ep2}}, Elastic: &types.ElasticSpec{},
	})
	if err != nil {
		t.Fatalf("disjoint elastic group: %v", err)
	}
	if _, err := svc.AddGroupMembers("alice", g2.ID, types.GroupMember{EndpointID: ep1}); err == nil {
		t.Fatal("AddGroupMembers absorbed another elastic group's member")
	}
	if g, _ := svc.Registry.Group(g2.ID); len(g.Members) != 1 {
		t.Fatalf("failed add mutated membership: %+v", g.Members)
	}
}

func TestGroupElasticityRequiresAccess(t *testing.T) {
	svc, srv, token := testService(t)
	ep := registerTestEndpoint(t, srv, token, "ep", nil)
	g, err := svc.CreateGroup("alice", api.CreateGroupRequest{
		Name: "fleet", Members: []types.GroupMember{{EndpointID: ep}}, Elastic: &types.ElasticSpec{},
	})
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	stranger := svc.MintUserToken("mallory")
	code := doJSON(t, srv, stranger, http.MethodGet,
		"/v1/groups/"+string(g.ID)+"/elasticity", nil, nil)
	if code != http.StatusForbidden {
		t.Fatalf("stranger elasticity status = %d, want 403", code)
	}
}
