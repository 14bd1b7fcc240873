package sdk

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"testing/quick"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/taskrec"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// testClient boots a service-backed client (no endpoint agent: tests
// that need execution complete tasks by writing results directly).
func testClient(t *testing.T) (*Client, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{HeartbeatPeriod: 50 * time.Millisecond})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	token := svc.MintUserToken("alice", auth.ScopeAll)
	c := New(srv.URL, token)
	c.PollInterval = time.Millisecond
	c.WaitHint = 100 * time.Millisecond
	return c, svc
}

// fixture registers a function and endpoint.
func fixture(t *testing.T, c *Client) (types.FunctionID, types.EndpointID) {
	t.Helper()
	ctx := context.Background()
	fnID, err := c.RegisterFunction(ctx, "f", []byte("def f(): pass"), types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := c.RegisterEndpoint(ctx, "ep", "", false)
	if err != nil {
		t.Fatal(err)
	}
	return fnID, ep.EndpointID
}

// complete simulates the execution path for a submitted task.
func complete(svc *service.Service, id types.TaskID, value any) {
	out, _ := serial.Serialize(value)
	land(svc, &types.Result{TaskID: id, Output: out, Completed: time.Now()})
}

// land does what the service does with a result an endpoint returned:
// the frame lands in the task's record and the terminal event goes out.
func land(svc *service.Service, res *types.Result) {
	status := types.TaskSuccess
	if res.Failed() {
		status = types.TaskFailed
	}
	svc.Store.Tasks().Apply(taskrec.Event{
		Kind: taskrec.Result, ID: res.TaskID, Status: status, Frame: wire.EncodeResult(res), At: time.Now(),
	}, func(owner types.UserID, ev types.TaskEvent) { svc.Events.Publish(owner, ev) })
}

func TestRegisterAndRunFlow(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := context.Background()

	id, err := c.RunValue(ctx, fnID, epID, "input")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, id)
	if err != nil || st != types.TaskQueued {
		t.Fatalf("status = %v, %v", st, err)
	}
	if _, err := c.TryResult(ctx, id); !errors.Is(err, ErrNotReady) {
		t.Fatalf("TryResult = %v, want ErrNotReady", err)
	}
	complete(svc, id, "output")
	res, err := c.GetResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if _, err := res.Value(&s); err != nil || s != "output" {
		t.Fatalf("value = %q, %v", s, err)
	}
}

func TestGetResultBlocksUntilReady(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := context.Background()
	id, err := c.Run(ctx, fnID, epID, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(40 * time.Millisecond)
		complete(svc, id, 42.0)
	}()
	start := time.Now()
	res, err := c.GetResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("returned before completion")
	}
	v, err := res.Value(nil)
	if err != nil || v.(float64) != 42.0 {
		t.Fatalf("value = %v, %v", v, err)
	}
}

func TestGetResultHonorsContext(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	id, err := c.Run(context.Background(), fnID, epID, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := c.GetResult(ctx, id); err == nil {
		t.Fatal("GetResult returned without a result")
	}
}

func TestTaskErrorSurfaces(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := context.Background()
	id, _ := c.Run(ctx, fnID, epID, nil)
	res := &types.Result{TaskID: id, Err: string(serial.EncodeError(errors.New("remote boom"), string(id)))}
	land(svc, res)

	got, err := c.GetResult(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Err == nil || !errors.Is(got.Err, ErrTaskFailed) {
		t.Fatalf("Err = %v, want ErrTaskFailed", got.Err)
	}
	if _, err := got.Value(nil); err == nil {
		t.Fatal("Value on failed result succeeded")
	}
}

func TestRunBatchOrder(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	var reqs []apiSubmit
	for i := 0; i < 4; i++ {
		reqs = append(reqs, apiSubmit{FunctionID: fnID, EndpointID: epID, Payload: []byte{byte(i)}})
	}
	ids, err := c.RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("ids = %d", len(ids))
	}
	seen := map[types.TaskID]bool{}
	for _, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("bad id set %v", ids)
		}
		seen[id] = true
	}
}

func TestBadTokenRejected(t *testing.T) {
	c, _ := testClient(t)
	bad := New(c.baseURL, "garbage-token")
	if _, err := bad.RegisterFunction(context.Background(), "f", []byte("b"), types.ContainerSpec{}, nil); err == nil {
		t.Fatal("bad token accepted")
	}
}

func TestEndpointStatusAPI(t *testing.T) {
	c, _ := testClient(t)
	_, epID := fixture(t, c)
	st, err := c.EndpointStatus(context.Background(), epID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Connected {
		t.Fatal("agentless endpoint reports connected")
	}
}

func TestShareFunctionAPI(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := context.Background()
	if err := c.ShareFunction(ctx, fnID, "bob"); err != nil {
		t.Fatal(err)
	}
	// Bob can now invoke but cannot dispatch to alice's private
	// endpoint — sharing functions and sharing endpoints are distinct.
	bobToken := svc.MintUserToken("bob", auth.ScopeAll)
	bob := New(c.baseURL, bobToken)
	if _, err := bob.Run(ctx, fnID, epID, nil); err == nil {
		t.Fatal("bob dispatched to a private endpoint")
	}
}

// --- Map (fmap) semantics ---

func seqOf(n int) func(func(any) bool) {
	return func(yield func(any) bool) {
		for i := 0; i < n; i++ {
			if !yield(fmt.Sprintf("v%d", i)) {
				return
			}
		}
	}
}

func TestMapBatchSizePartitioning(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	h, err := c.Map(context.Background(), fnID, epID, seqOf(10), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 10 items in slabs of 4: sizes 4,4,2.
	if len(h.Sizes) != 3 || h.Sizes[0] != 4 || h.Sizes[1] != 4 || h.Sizes[2] != 2 {
		t.Fatalf("sizes = %v", h.Sizes)
	}
	if h.Total() != 10 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestMapBatchCountPrecedence(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	// batch_count takes precedence over batch_size (paper §4.7).
	h, err := c.Map(context.Background(), fnID, epID, seqOf(10), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Sizes) != 4 {
		t.Fatalf("batches = %d, want 4 (batch_count precedence)", len(h.Sizes))
	}
	// Near-even split: 3,3,2,2.
	if h.Sizes[0] != 3 || h.Sizes[1] != 3 || h.Sizes[2] != 2 || h.Sizes[3] != 2 {
		t.Fatalf("sizes = %v", h.Sizes)
	}
}

func TestMapBatchCountExceedsItems(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	h, err := c.Map(context.Background(), fnID, epID, seqOf(2), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Sizes) != 2 || h.Total() != 2 {
		t.Fatalf("handle = %+v", h)
	}
}

func TestMapEmptyIterator(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	h, err := c.Map(context.Background(), fnID, epID, seqOf(0), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.TaskIDs) != 0 || h.Total() != 0 {
		t.Fatalf("empty map handle = %+v", h)
	}
}

func TestMapPartitionProperty(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	prop := func(nRaw, bRaw uint8) bool {
		n := int(nRaw % 40)
		b := int(bRaw%8) + 1
		h, err := c.Map(context.Background(), fnID, epID, seqOf(n), b, 0)
		if err != nil {
			return false
		}
		if h.Total() != n {
			return false
		}
		// All full slabs except possibly the last.
		for i, s := range h.Sizes {
			if i < len(h.Sizes)-1 && s != b {
				return false
			}
			if s <= 0 || s > b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// apiSubmit aliases the API type to keep the test body terse.
type apiSubmit = api.SubmitRequest
