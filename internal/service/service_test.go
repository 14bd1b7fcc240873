package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/netlat"
	"funcx/internal/registry"
	"funcx/internal/store"
	"funcx/internal/taskrec"
	"funcx/internal/testlog"
	"funcx/internal/trace"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// testService boots a service with an HTTP test server.
func testService(t *testing.T) (*Service, *httptest.Server, string) {
	t.Helper()
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	token := svc.MintUserToken("alice", auth.ScopeAll)
	return svc, srv, token
}

// doJSON performs a JSON request and decodes the response.
func doJSON(t *testing.T, srv *httptest.Server, token, method, path string, body, out any) int {
	t.Helper()
	var reqBody *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqBody = bytes.NewReader(b)
	} else {
		reqBody = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, reqBody)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out) //nolint:errcheck
	}
	return resp.StatusCode
}

func TestPingNoAuth(t *testing.T) {
	_, srv, _ := testService(t)
	if code := doJSON(t, srv, "", http.MethodGet, "/v1/ping", nil, nil); code != http.StatusOK {
		t.Fatalf("ping = %d", code)
	}
}

func TestAuthRequired(t *testing.T) {
	_, srv, _ := testService(t)
	code := doJSON(t, srv, "", http.MethodPost, "/v1/functions",
		api.RegisterFunctionRequest{Name: "f", Body: []byte("b")}, nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated register = %d", code)
	}
}

func TestScopeEnforced(t *testing.T) {
	svc, srv, _ := testService(t)
	runOnly := svc.MintUserToken("bob", auth.ScopeRun)
	code := doJSON(t, srv, runOnly, http.MethodPost, "/v1/functions",
		api.RegisterFunctionRequest{Name: "f", Body: []byte("b")}, nil)
	if code != http.StatusForbidden {
		t.Fatalf("wrong-scope register = %d, want 403", code)
	}
}

func TestRegisterFunctionAPI(t *testing.T) {
	_, srv, token := testService(t)
	var resp api.RegisterFunctionResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/functions",
		api.RegisterFunctionRequest{Name: "echo", Body: []byte("def echo(): pass")}, &resp)
	if code != http.StatusCreated || resp.FunctionID == "" || resp.BodyHash == "" || resp.Version != 1 {
		t.Fatalf("register = %d, %+v", code, resp)
	}

	// Update bumps the version; non-owner update forbidden.
	var up api.RegisterFunctionResponse
	code = doJSON(t, srv, token, http.MethodPut, "/v1/functions/"+string(resp.FunctionID),
		api.UpdateFunctionRequest{Body: []byte("def echo(): return 1")}, &up)
	if code != http.StatusOK || up.Version != 2 {
		t.Fatalf("update = %d, %+v", code, up)
	}
}

func TestMalformedBody(t *testing.T) {
	_, srv, token := testService(t)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/functions", strings.NewReader("{not json"))
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", resp.StatusCode)
	}
}

func TestRegisterEndpointCreatesForwarder(t *testing.T) {
	svc, srv, token := testService(t)
	var resp api.RegisterEndpointResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/endpoints",
		api.RegisterEndpointRequest{Name: "laptop"}, &resp)
	if code != http.StatusCreated || resp.EndpointID == "" || resp.ForwarderAddr == "" || resp.EndpointToken == "" {
		t.Fatalf("register endpoint = %d, %+v", code, resp)
	}
	if _, ok := svc.Forwarder(resp.EndpointID); !ok {
		t.Fatal("no forwarder created")
	}
	// The endpoint token authenticates against the right endpoint id
	// only.
	if err := svc.verifyEndpointToken(resp.EndpointID, resp.EndpointToken); err != nil {
		t.Fatalf("endpoint token rejected: %v", err)
	}
	if err := svc.verifyEndpointToken("other-ep", resp.EndpointToken); err == nil {
		t.Fatal("endpoint token accepted for a different endpoint")
	}

	var st api.EndpointStatusResponse
	code = doJSON(t, srv, token, http.MethodGet, "/v1/endpoints/"+string(resp.EndpointID)+"/status", nil, &st)
	if code != http.StatusOK || st.Status.Connected {
		t.Fatalf("status = %d, %+v (no agent yet)", code, st)
	}
}

// registerFixture registers a function and endpoint for task tests.
func registerFixture(t *testing.T, srv *httptest.Server, token string) (types.FunctionID, types.EndpointID) {
	t.Helper()
	var fn api.RegisterFunctionResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/functions",
		api.RegisterFunctionRequest{Name: "f", Body: []byte("def f(): pass")}, &fn)
	var ep api.RegisterEndpointResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/endpoints",
		api.RegisterEndpointRequest{Name: "ep"}, &ep)
	return fn.FunctionID, ep.EndpointID
}

func TestSubmitQueuesTask(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	var resp api.SubmitResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("p")}, &resp)
	if code != http.StatusAccepted || resp.TaskID == "" {
		t.Fatalf("submit = %d, %+v", code, resp)
	}
	// Status is queued; result is 202 (no agent to run it).
	var st api.StatusResponse
	code = doJSON(t, srv, token, http.MethodGet, "/v1/tasks/"+string(resp.TaskID), nil, &st)
	if code != http.StatusOK || st.Status != types.TaskQueued {
		t.Fatalf("status = %d, %+v", code, st)
	}
	code = doJSON(t, srv, token, http.MethodGet, "/v1/tasks/"+string(resp.TaskID)+"/result", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("result of queued task = %d, want 202", code)
	}
	// The task sits in the endpoint's Redis-style queue.
	q := svc.Store.Queue(store.TaskQueueName(string(epID)))
	if q.Len() != 1 {
		t.Fatalf("queue len = %d", q.Len())
	}
}

func TestSubmitValidation(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)

	// Unknown function.
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: "ghost", EndpointID: epID}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown function = %d", code)
	}
	// Unknown endpoint.
	code = doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: "ghost"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown endpoint = %d", code)
	}
	// Unshared function invoked by another user.
	stranger := svc.MintUserToken("carol", auth.ScopeAll)
	code = doJSON(t, srv, stranger, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, nil)
	if code != http.StatusForbidden {
		t.Fatalf("unshared invoke = %d", code)
	}
}

func TestBatchSubmit(t *testing.T) {
	_, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	reqs := make([]api.SubmitRequest, 5)
	for i := range reqs {
		reqs[i] = api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte{byte(i)}}
	}
	var resp api.BatchSubmitResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks/batch",
		api.BatchSubmitRequest{Tasks: reqs}, &resp)
	if code != http.StatusAccepted || len(resp.TaskIDs) != 5 {
		t.Fatalf("batch = %d, %d ids", code, len(resp.TaskIDs))
	}
}

// completeTask simulates the forwarder path: hand a result to the
// service's sink (landing it publishes the terminal event and wakes
// waiters).
func completeTask(svc *Service, id types.TaskID, output []byte) {
	res := &types.Result{TaskID: id, Output: output, Completed: time.Now()}
	svc.onResult(res, wire.EncodeResult(res))
}

// A submission whose enqueue fails is reported failed and leaves no
// record behind: its id answers not-found, like any id never accepted.
func TestFailedEnqueueLeavesNoRecord(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	sub := svc.Events.Subscribe("alice")
	defer sub.Cancel()
	before, _ := svc.Stats()
	svc.Store.Queue(store.TaskQueueName(string(epID))).Close()

	if _, _, _, err := svc.SubmitTaskAt("alice", Submission{FunctionID: fnID, EndpointID: epID}, time.Now()); err == nil {
		t.Fatal("submit against a closed queue succeeded")
	}
	// The stray "queued" event is the only way to learn the id.
	var id types.TaskID
	select {
	case ev := <-sub.C:
		id = ev.TaskID
	case <-time.After(time.Second):
		t.Fatal("no queued event for the failed submission")
	}
	if st, err := svc.Status(id); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("Status(%s) after the failed enqueue = %q, %v; want not found", id, st, err)
	}
	if after, _ := svc.Stats(); after != before {
		t.Fatalf("submitted %d -> %d; want no change", before, after)
	}
	svc.tasks.Range(func(id types.TaskID, rec taskrec.Record) { t.Errorf("record %s left behind: %+v", id, rec) })
}

func TestResultRetrievalAndPurge(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	var sub api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("p")}, &sub)

	completeTask(svc, sub.TaskID, []byte("01\nout"))

	var res api.ResultResponse
	code := doJSON(t, srv, token, http.MethodGet, "/v1/tasks/"+string(sub.TaskID)+"/result", nil, &res)
	if code != http.StatusOK || string(res.Output) != "01\nout" {
		t.Fatalf("result = %d, %+v", code, res)
	}
	if res.Timing.TSNanos <= 0 {
		t.Fatalf("TS not stamped: %+v", res.Timing)
	}
	// Retrieved results are purged (§4.1); the terminal status stays.
	if rec, _ := svc.tasks.Get(sub.TaskID); rec.Result() != nil || rec.Status() != types.TaskSuccess {
		t.Fatalf("after retrieval: result %q, status %q; want it purged and still success", rec.Result(), rec.Status())
	}
}

func TestBlockingResultWait(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	var sub api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)

	go func() {
		time.Sleep(50 * time.Millisecond)
		completeTask(svc, sub.TaskID, []byte("01\nlate"))
	}()
	start := time.Now()
	var res api.ResultResponse
	code := doJSON(t, srv, token, http.MethodGet,
		"/v1/tasks/"+string(sub.TaskID)+"/result?wait=2s", nil, &res)
	if code != http.StatusOK {
		t.Fatalf("blocking result = %d", code)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("returned before the result existed")
	}
}

func TestMemoizationServesRepeat(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)

	var first api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("in"), Memoize: true}, &first)
	if first.Memoized {
		t.Fatal("first submit memoized")
	}
	completeTask(svc, first.TaskID, []byte("01\ncached"))

	var second api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("in"), Memoize: true}, &second)
	if !second.Memoized {
		t.Fatal("repeat submit not memoized")
	}
	var res api.ResultResponse
	code := doJSON(t, srv, token, http.MethodGet, "/v1/tasks/"+string(second.TaskID)+"/result", nil, &res)
	if code != http.StatusOK || !res.Memoized || string(res.Output) != "01\ncached" {
		t.Fatalf("memoized result = %d, %+v", code, res)
	}
	// Without the Memoize flag, the same payload is not cached-served.
	var third api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("in")}, &third)
	if third.Memoized {
		t.Fatal("memoization applied without opt-in")
	}
	_, hits := svc.Stats()
	if hits != 1 {
		t.Fatalf("memo hits = %d", hits)
	}
}

func TestUnknownTaskStatus(t *testing.T) {
	_, srv, token := testService(t)
	code := doJSON(t, srv, token, http.MethodGet, "/v1/tasks/ghost", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown task status = %d", code)
	}
}

func TestAuthLatencyCountsTowardTS(t *testing.T) {
	svc := New(Config{
		HeartbeatPeriod: 50 * time.Millisecond,
		AuthLat:         lat10ms(),
	})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)
	var sub api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
	completeTask(svc, sub.TaskID, []byte("01\nx"))
	var res api.ResultResponse
	doJSON(t, srv, token, http.MethodGet, "/v1/tasks/"+string(sub.TaskID)+"/result", nil, &res)
	// Two introspection legs of ~10 ms each on the submit path.
	if res.Timing.TSNanos < int64(15*time.Millisecond) {
		t.Fatalf("TS = %v, want >= 15ms of auth latency", time.Duration(res.Timing.TSNanos))
	}
}

// lat10ms builds a 10 ms fixed link for the auth-latency test.
func lat10ms() *netlat.Link { return netlat.NewLink(10*time.Millisecond, 0, 1) }

func TestPayloadSizeLimit(t *testing.T) {
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, MaxPayloadSize: 64})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)

	small := make([]byte, 64)
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: small}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("at-limit payload = %d", code)
	}
	big := make([]byte, 65)
	code = doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: big}, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize payload = %d, want 413 (stage large data out of band, §4.6)", code)
	}
}

// A request body is bounded before it is parsed: past the payload cap's
// base64 expansion plus the envelope slack it is refused with 413,
// whether Content-Length admits it up front or a chunked body only
// turns out too long while being read; bytes after the JSON value are
// a malformed request.
func TestRequestBodyBoundedAndParsedOnce(t *testing.T) {
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, MaxPayloadSize: 64})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)

	post := func(body io.Reader) int {
		t.Helper()
		code, _ := postAs(t, srv.URL, token, "/v1/tasks", "", body)
		return code
	}
	valid, err := json.Marshal(api.SubmitRequest{FunctionID: fnID, EndpointID: epID})
	if err != nil {
		t.Fatal(err)
	}
	// Leading whitespace is valid JSON: only the size is wrong.
	huge := append(bytes.Repeat([]byte(" "), bodySlack+128), valid...)
	if code := post(bytes.NewReader(huge)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body with Content-Length = %d, want 413", code)
	}
	if code := post(io.MultiReader(bytes.NewReader(huge))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize chunked body = %d, want 413", code)
	}
	if code := post(bytes.NewReader(append(valid[:len(valid):len(valid)], " {}"...))); code != http.StatusBadRequest {
		t.Fatalf("trailing garbage = %d, want 400", code)
	}
	if code := post(io.MultiReader(bytes.NewReader(valid))); code != http.StatusAccepted {
		t.Fatalf("chunked valid body = %d, want 202", code)
	}
}

// postAs posts body to path under contentType ("" for none) and returns
// the status with the decoded submit response, if there was one.
func postAs(t *testing.T, base, token, path, contentType string, body io.Reader) (int, api.SubmitResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.SubmitResponse
	json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
	return resp.StatusCode, out
}

// One submission sent as JSON and as a frame stores the same task
// record but for what names the task: the encoding of a request ends
// at the handler.
func TestSubmitFrameStoresTheSameTask(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	sub := api.SubmitRequest{
		FunctionID: fnID, EndpointID: epID, Payload: []byte{0, 1, '{', '"', 0xff, '\n'},
		Memoize: true, BatchN: 2, Walltime: time.Minute, MaxRetries: 3, AtMostOnce: true,
	}
	asJSON, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	var stored []*types.Task
	for name, body := range map[string][]byte{"": asJSON, api.FrameMediaType: api.EncodeSubmitFrame(&sub)} {
		code, resp := postAs(t, srv.URL, token, "/v1/tasks", name, bytes.NewReader(body))
		if code != http.StatusAccepted || resp.TaskID == "" || resp.EndpointID != epID {
			t.Fatalf("submit as %q = %d, %+v", name, code, resp)
		}
		rec, ok := svc.tasks.Get(resp.TaskID)
		if !ok {
			t.Fatalf("submit as %q: no task record", name)
		}
		task, err := wire.DecodeTask(rec.Task())
		if err != nil {
			t.Fatal(err)
		}
		if task.ID != resp.TaskID || task.Owner != "alice" || task.Attempt != 1 || task.Submitted.IsZero() {
			t.Fatalf("submit as %q stored %+v", name, task)
		}
		task.ID, task.Submitted, task.Trace = "", time.Time{}, nil
		stored = append(stored, task)
	}
	if !reflect.DeepEqual(stored[0], stored[1]) {
		t.Fatalf("the two encodings stored different tasks:\n%+v\n%+v", stored[0], stored[1])
	}
	if !bytes.Equal(stored[0].Payload, sub.Payload) || !stored[0].Memoize || stored[0].Walltime != time.Minute {
		t.Fatalf("stored task lost the submission: %+v", stored[0])
	}
}

// A submission that arrives as one frame becomes the task's frame in
// the body it arrived in: the request costs the payload-sized
// allocation that read it and not a second one, and the service's
// stamps do not touch the payload. Entries of a batch frame share a
// body and are copied out.
func TestSubmitFrameIsStampedInItsBody(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	sub := &api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: payload, Walltime: time.Minute}

	post := func(body []byte) []byte {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/tasks", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		req.Header.Set("Content-Type", api.FrameMediaType)
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			t.Fatalf("submit = %d %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	stored := func(id types.TaskID) *types.Task {
		t.Helper()
		rec, _ := svc.tasks.Get(id)
		task, err := wire.DecodeTask(rec.Task())
		if err != nil {
			t.Fatalf("task %s: %v", id, err)
		}
		return task
	}
	// The same submission as a batch of one is the control: it reads
	// the same body and then copies the payload out, as every
	// submission did before.
	perRequest := func(body []byte) uint64 {
		const n = 16
		post(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			post(body)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	frame := api.EncodeSubmitFrame(sub)
	if single, copied := perRequest(frame), perRequest(batchFrame(sub)); single+uint64(len(payload)) > copied {
		t.Fatalf("%d bytes allocated per 64 KiB submission, %d for one that copies its payload: the frame was not stamped in its body", single, copied)
	}
	var resp api.SubmitResponse
	if err := json.Unmarshal(post(frame), &resp); err != nil {
		t.Fatal(err)
	}
	if task := stored(resp.TaskID); !bytes.Equal(task.Payload, payload) || task.ID != resp.TaskID || task.Owner != "alice" ||
		task.Attempt != 1 || task.Walltime != time.Minute || task.FunctionID != fnID || task.EndpointID != epID || task.BodyHash == "" {
		t.Fatalf("stored task = %+v (payload intact: %v)", task, bytes.Equal(task.Payload, payload))
	}

	other := bytes.Repeat([]byte{0x5a}, len(payload))
	var batch api.SubmitBatchResponse
	if err := json.Unmarshal(post(batchFrame(sub, &api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: other})), &batch); err != nil || len(batch.Outcomes) != 2 {
		t.Fatalf("batch = %+v, %v", batch, err)
	}
	if a, b := stored(batch.Outcomes[0].TaskID), stored(batch.Outcomes[1].TaskID); !bytes.Equal(a.Payload, payload) || !bytes.Equal(b.Payload, other) {
		t.Fatal("a batch frame's entries did not keep their own payloads")
	}
}

// A frame body is bounded like a JSON one, without the base64
// allowance, and is one frame of submission fields (or a batch frame of
// them: TestSubmitBatchFrame): anything else under the frame type is a
// malformed request.
func TestSubmitFrameBoundedAndValidated(t *testing.T) {
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, MaxPayloadSize: 64})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)

	frame := func(payload int) []byte {
		return api.EncodeSubmitFrame(&api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: make([]byte, payload)})
	}
	valid := frame(64)
	asJSON, err := json.Marshal(api.SubmitRequest{FunctionID: fnID, EndpointID: epID})
	if err != nil {
		t.Fatal(err)
	}
	chunked := func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) } // no Content-Length
	for name, c := range map[string]struct {
		body io.Reader
		want int
	}{
		"at the payload limit":          {bytes.NewReader(valid), http.StatusAccepted},
		"chunked":                       {chunked(valid), http.StatusAccepted},
		"payload over the limit":        {bytes.NewReader(frame(65)), http.StatusRequestEntityTooLarge},
		"body over the limit":           {bytes.NewReader(frame(64 + bodySlack + 1)), http.StatusRequestEntityTooLarge},
		"chunked body over the limit":   {chunked(frame(64 + bodySlack + 1)), http.StatusRequestEntityTooLarge},
		"a byte after the frame":        {bytes.NewReader(append(bytes.Clone(valid), 0)), http.StatusBadRequest},
		"a frame cut short":             {bytes.NewReader(valid[:len(valid)-1]), http.StatusBadRequest},
		"no body":                       {bytes.NewReader(nil), http.StatusBadRequest},
		"JSON under the frame type":     {bytes.NewReader(asJSON), http.StatusBadRequest},
		"a frame that names its owner":  {bytes.NewReader(wire.EncodeTask(&types.Task{FunctionID: fnID, EndpointID: epID, Owner: "root"})), http.StatusBadRequest},
		"a frame that names its id":     {bytes.NewReader(wire.EncodeTask(&types.Task{FunctionID: fnID, EndpointID: epID, ID: "mine"})), http.StatusBadRequest},
		"a frame with a trace context":  {bytes.NewReader(wire.EncodeTask(&types.Task{FunctionID: fnID, EndpointID: epID, Trace: &types.TraceContext{}})), http.StatusBadRequest},
		"a frame on its second attempt": {bytes.NewReader(wire.EncodeTask(&types.Task{FunctionID: fnID, EndpointID: epID, Attempt: 2})), http.StatusBadRequest},
	} {
		if code, _ := postAs(t, srv.URL, token, "/v1/tasks", api.FrameMediaType+"; v=1", c.body); code != c.want {
			t.Errorf("%s = %d, want %d", name, code, c.want)
		}
	}
	// The frame itself under any other type is not JSON.
	if code, _ := postAs(t, srv.URL, token, "/v1/tasks", "application/json", bytes.NewReader(valid)); code != http.StatusBadRequest {
		t.Errorf("a frame posted as JSON = %d, want 400", code)
	}
}

// batchFrame is the batch frame of reqs.
func batchFrame(reqs ...*api.SubmitRequest) []byte {
	frames := make([][]byte, len(reqs))
	for i, r := range reqs {
		frames[i] = api.EncodeSubmitFrame(r)
	}
	return wire.JoinTasks(frames)
}

// postBatchFrame posts body as a frame and returns the status with the
// outcomes of a batch, or the error text of a refusal.
func postBatchFrame(t *testing.T, base, token string, body []byte) (int, []api.SubmitOutcome, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/tasks", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", api.FrameMediaType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		api.SubmitBatchResponse
		api.ErrorResponse
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Outcomes, out.Error
}

// A batch frame on POST /v1/tasks is so many independent submissions:
// each gets, in order, the response or the status and error text a
// frame of its own would have got, and one refused leaves the others
// placed. The same entries as a JSON batch are still refused whole.
func TestSubmitBatchFrame(t *testing.T) {
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, MaxPayloadSize: 64})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)
	private, err := svc.Registry.RegisterFunction("bob", "private", []byte("def g(): pass"), types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	entries := []*api.SubmitRequest{
		{FunctionID: fnID, EndpointID: epID, Payload: []byte("first")},
		{FunctionID: "no-such-function", EndpointID: epID},
		{FunctionID: fnID, EndpointID: epID, Payload: make([]byte, 65)},
		{FunctionID: fnID, EndpointID: epID, Walltime: -1},
		{FunctionID: private.ID, EndpointID: epID},
		{FunctionID: fnID, EndpointID: epID, Payload: []byte("last"), Memoize: true},
	}
	want := []int{0, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusBadRequest, http.StatusForbidden, 0}
	before := svc.StatsSnapshot().Submitted
	code, outcomes, _ := postBatchFrame(t, srv.URL, token, batchFrame(entries...))
	if code != http.StatusOK || len(outcomes) != len(entries) {
		t.Fatalf("batch frame = %d with %d outcomes, want 200 with %d", code, len(outcomes), len(entries))
	}
	for i, o := range outcomes {
		if o.Status != want[i] {
			t.Errorf("entry %d: status %d (%s), want %d", i, o.Status, o.Error, want[i])
		}
		if want[i] != 0 {
			// What the same entry is told on its own.
			alone, _, text := postBatchFrame(t, srv.URL, token, api.EncodeSubmitFrame(entries[i]))
			if o.Status != alone || o.Error != text || o.TaskID != "" {
				t.Errorf("entry %d: outcome %d %q (task %q), alone it gets %d %q", i, o.Status, o.Error, o.TaskID, alone, text)
			}
			continue
		}
		rec, ok := svc.tasks.Get(o.TaskID)
		if !ok || o.EndpointID != epID {
			t.Fatalf("entry %d: outcome %+v, stored %v", i, o, ok)
		}
		if task, err := wire.DecodeTask(rec.Task()); err != nil || !bytes.Equal(task.Payload, entries[i].Payload) || task.Memoize != entries[i].Memoize || task.Owner != "alice" {
			t.Errorf("entry %d stored %+v, %v", i, task, err)
		}
	}
	if got := svc.StatsSnapshot().Submitted - before; got != 2 {
		t.Errorf("%d tasks accepted, want the 2 that were valid", got)
	}

	asJSON := api.BatchSubmitRequest{}
	for _, e := range entries {
		asJSON.Tasks = append(asJSON.Tasks, *e)
	}
	before = svc.StatsSnapshot().Submitted
	if code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks/batch", asJSON, nil); code != http.StatusNotFound {
		t.Errorf("the same entries as a JSON batch = %d, want the first bad entry's 404 for all", code)
	}
	if after := svc.StatsSnapshot().Submitted; after != before {
		t.Errorf("a refused JSON batch accepted %d tasks", after-before)
	}
}

// A batch frame is refused whole when it is not N submissions for one
// target: nothing of it is placed.
func TestSubmitBatchFrameBoundedAndValidated(t *testing.T) {
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, MaxPayloadSize: 64})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)

	ok := types.Task{FunctionID: fnID, EndpointID: epID, Payload: make([]byte, 64)}
	batch := func(n int, last types.Task) []byte {
		ts := make([]*types.Task, n)
		for i := range ts {
			ts[i] = &ok
		}
		ts[n-1] = &last
		return wire.EncodeTasks(ts)
	}
	full := batch(maxWaitBatch, ok)
	if single := int(svc.cfg.MaxPayloadSize) + bodySlack; len(full) <= single {
		t.Fatalf("a full batch is %d bytes, inside the %d a single frame may have: the test needs bigger entries", len(full), single)
	}
	for _, c := range []struct {
		name   string
		body   []byte
		want   int
		naming string
	}{
		{"a full batch, longer than any single frame", full, http.StatusOK, ""},
		{"one entry too many", batch(maxWaitBatch+1, ok), http.StatusBadRequest, "10000"},
		{"no entries", wire.EncodeTasks(nil), http.StatusBadRequest, "no submissions"},
		{"another endpoint in entry 2", batch(3, types.Task{FunctionID: fnID, EndpointID: "elsewhere"}), http.StatusBadRequest, "entry 2"},
		{"a group in entry 1", batch(2, types.Task{FunctionID: fnID, EndpointID: epID, GroupID: "g"}), http.StatusBadRequest, "entry 1"},
		{"an owner in entry 2", batch(3, types.Task{FunctionID: fnID, EndpointID: epID, Owner: "root"}), http.StatusBadRequest, "entry 2: " + api.ErrServerField.Error()},
		{"an id in entry 0", batch(1, types.Task{FunctionID: fnID, EndpointID: epID, ID: "mine"}), http.StatusBadRequest, "entry 0: " + api.ErrServerField.Error()},
		{"a batch cut short", full[:len(full)-1], http.StatusBadRequest, ""},
		{"a byte after the batch", append(batch(2, ok), 0), http.StatusBadRequest, ""},
	} {
		before := svc.StatsSnapshot().Submitted
		code, outcomes, text := postBatchFrame(t, srv.URL, token, c.body)
		if code != c.want || !strings.Contains(text, c.naming) {
			t.Errorf("%s = %d %q, want %d naming %q", c.name, code, text, c.want, c.naming)
		}
		if accepted := svc.StatsSnapshot().Submitted - before; c.want != http.StatusOK && accepted != 0 {
			t.Errorf("%s: %d tasks were accepted before the refusal", c.name, accepted)
		} else if c.want == http.StatusOK && (accepted != maxWaitBatch || len(outcomes) != maxWaitBatch) {
			t.Errorf("%s: %d accepted, %d outcomes", c.name, accepted, len(outcomes))
		}
	}

	// Over what maxWaitBatch submissions may take, the body is refused by
	// its declared length, before any of it is read.
	req := httptest.NewRequest(http.MethodPost, "/v1/tasks", bytes.NewReader(batch(2, ok)))
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", api.FrameMediaType)
	req.ContentLength = int64(maxWaitBatch)*int64(64+bodySlack) + 1
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a batch body declared over the bound = %d, want 413", rec.Code)
	}
}

// A batch or a graph is as many tasks as one wait request can name and
// no more, however small the payloads: the count is checked before
// anything is prepared.
func TestBatchAndDAGTaskCountBounded(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	batch := func(n int) api.BatchSubmitRequest {
		req := api.BatchSubmitRequest{Tasks: make([]api.SubmitRequest, n)}
		for i := range req.Tasks {
			req.Tasks[i] = api.SubmitRequest{FunctionID: fnID, EndpointID: epID}
		}
		return req
	}
	graph := func(n int) api.SubmitDAGRequest {
		req := api.SubmitDAGRequest{Nodes: make([]api.DAGNodeSpec, n)}
		for i := range req.Nodes {
			req.Nodes[i] = api.DAGNodeSpec{Key: "n" + strconv.Itoa(i), FunctionID: fnID, EndpointID: epID}
		}
		return req
	}
	for _, c := range []struct {
		name, path string
		body       any
		want       int
	}{
		{"batch at the limit", "/v1/tasks/batch", batch(maxWaitBatch), http.StatusAccepted},
		{"batch over the limit", "/v1/tasks/batch", batch(maxWaitBatch + 1), http.StatusBadRequest},
		{"graph at the limit", "/v1/dags", graph(maxWaitBatch), http.StatusAccepted},
		{"graph over the limit", "/v1/dags", graph(maxWaitBatch + 1), http.StatusBadRequest},
	} {
		before := svc.StatsSnapshot().Submitted
		if code := doJSON(t, srv, token, http.MethodPost, c.path, c.body, nil); code != c.want {
			t.Errorf("%s = %d, want %d", c.name, code, c.want)
		}
		if after := svc.StatsSnapshot().Submitted; c.want == http.StatusBadRequest && after != before {
			t.Errorf("%s: %d tasks were accepted before the refusal", c.name, after-before)
		}
	}
}

// A dependent submission is a JSON record, as a graph is: it still
// chains behind a parent that was submitted as a frame.
func TestDependsOnOverJSONChainsBehindFrameSubmit(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	code, parent := postAs(t, srv.URL, token, "/v1/tasks", api.FrameMediaType,
		bytes.NewReader(api.EncodeSubmitFrame(&api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("p")})))
	if code != http.StatusAccepted {
		t.Fatalf("parent = %d", code)
	}
	var child api.SubmitResponse
	code = doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, DependsOn: []types.TaskID{parent.TaskID}}, &child)
	if code != http.StatusAccepted || child.TaskID == "" || child.DAGID == "" {
		t.Fatalf("dependent submit = %d, %+v", code, child)
	}
	q := svc.Store.Queue(store.TaskQueueName(string(epID)))
	if q.Len() != 1 {
		t.Fatalf("queue holds %d tasks before the parent lands, want the parent alone", q.Len())
	}
	completeTask(svc, parent.TaskID, []byte("01\nout"))
	for deadline := time.Now().Add(5 * time.Second); q.Len() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("child was not released: queue holds %d tasks", q.Len())
		}
	}
}

func TestPayloadLimitDisabled(t *testing.T) {
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, MaxPayloadSize: -1})
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)
	big := make([]byte, 4<<20)
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: big}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("unlimited payload = %d", code)
	}
}

// At Debug level the service still logs "task placed" and "task
// retired" for every task, with the attributes they always had.
func TestDebugRecordsPlacedAndRetired(t *testing.T) {
	logger, logs := testlog.NewDebug()
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, Logger: logger})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	fnID, epID := registerFixture(t, srv, svc.MintUserToken("alice", auth.ScopeAll))
	id, _, _, err := svc.SubmitTaskAt("alice", Submission{FunctionID: fnID, EndpointID: epID}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	completeTask(svc, id, []byte("out"))

	traceID := trace.TraceID(id, "")
	for msg, want := range map[string]map[string]any{
		"task placed": {
			"level": "DEBUG", "msg": "task placed", "task_id": string(id), "endpoint_id": string(epID),
			"group_id": "", "function_id": string(fnID), "trace_id": traceID,
		},
		"task retired": {
			"level": "DEBUG", "msg": "task retired", "task_id": string(id), "endpoint_id": string(epID),
			"status": string(types.TaskSuccess), "trace_id": traceID,
		},
	} {
		got, err := logs.Records(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%q records = %v, want one %v", msg, got, want)
		}
	}
}
