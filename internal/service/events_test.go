package service

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// openSSE connects to GET /v1/events, optionally resuming from
// lastEventID, and pumps decoded events into the returned channel
// (closed when the stream ends). The caller must close the response
// body to end the stream.
func openSSE(t *testing.T, srv *httptest.Server, token, lastEventID string) (<-chan types.TaskEvent, *http.Response) {
	t.Helper()
	return openSSEAt(t, srv, "/v1/events", token, lastEventID)
}

// terminalOnly is the completions-only stream the SDK subscribes to.
const terminalOnly = "/v1/events?" + api.EventsTerminalParam + "=1"

// openSSEAt is openSSE for a path that may carry a query.
func openSSEAt(t *testing.T, srv *httptest.Server, path, token, lastEventID string) (<-chan types.TaskEvent, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("SSE connect = %d", resp.StatusCode)
	}
	ch := make(chan types.TaskEvent, 64)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		var data []byte
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if len(data) > 0 {
					if ev, err := wire.DecodeEvent(data); err == nil {
						ch <- *ev
					}
				}
				data = nil
			case strings.HasPrefix(line, "data:"):
				data = []byte(strings.TrimPrefix(line[5:], " "))
			}
		}
	}()
	return ch, resp
}

// nextEvent reads one event with a timeout.
func nextEvent(t *testing.T, ch <-chan types.TaskEvent) types.TaskEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event stream closed early")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for event")
	}
	return types.TaskEvent{}
}

func TestEventStreamDeliversLifecycleWithResult(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)

	ch, resp := openSSE(t, srv, token, "")
	defer resp.Body.Close()

	var sub api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("p")}, &sub)

	ev := nextEvent(t, ch)
	if ev.TaskID != sub.TaskID || ev.Status != types.TaskQueued || ev.EndpointID != epID {
		t.Fatalf("first event = %+v", ev)
	}
	completeTask(svc, sub.TaskID, []byte("01\nout"))
	ev = nextEvent(t, ch)
	if ev.TaskID != sub.TaskID || ev.Status != types.TaskSuccess {
		t.Fatalf("terminal event = %+v", ev)
	}
	// The terminal event carries the result inline: no follow-up
	// fetch needed.
	res, err := wire.DecodeResult(ev.Result)
	if err != nil || string(res.Output) != "01\nout" {
		t.Fatalf("inline result = %+v, %v", res, err)
	}
}

func TestEventStreamIsPerUser(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	if err := doJSON(t, srv, token, http.MethodPost, "/v1/functions/"+string(fnID)+"/share",
		api.ShareFunctionRequest{Users: []types.UserID{"bob"}}, nil); err != http.StatusOK {
		t.Fatalf("share = %d", err)
	}

	bob := svc.MintUserToken("bob", auth.ScopeAll)
	bobCh, bobResp := openSSE(t, srv, bob, "")
	defer bobResp.Body.Close()
	aliceCh, aliceResp := openSSE(t, srv, token, "")
	defer aliceResp.Body.Close()

	var sub api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
	if ev := nextEvent(t, aliceCh); ev.TaskID != sub.TaskID {
		t.Fatalf("alice missed her event: %+v", ev)
	}
	select {
	case ev := <-bobCh:
		t.Fatalf("bob saw alice's event: %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestSSEResumeNoLossNoDup kills the stream mid-run and reconnects
// with Last-Event-ID: every event published while disconnected must
// arrive exactly once, as long as the replay ring covers the gap.
func TestSSEResumeNoLossNoDup(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)

	submit := func() types.TaskID {
		var sub api.SubmitResponse
		doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
			api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
		return sub.TaskID
	}

	ch, resp := openSSE(t, srv, token, "")
	idA := submit()
	first := nextEvent(t, ch)
	if first.TaskID != idA {
		t.Fatalf("first event = %+v", first)
	}
	// Kill the stream, then generate events while disconnected.
	resp.Body.Close()
	completeTask(svc, idA, []byte("01\na")) // seq 2
	idB := submit()                         // seq 3
	completeTask(svc, idB, []byte("01\nb")) // seq 4

	ch2, resp2 := openSSE(t, srv, token, strconv.FormatUint(first.Seq, 10))
	defer resp2.Body.Close()
	var got []types.TaskEvent
	for i := 0; i < 3; i++ {
		got = append(got, nextEvent(t, ch2))
	}
	// Exactly seqs 2,3,4 in order: nothing lost, nothing duplicated.
	for i, ev := range got {
		if ev.Seq != first.Seq+uint64(i+1) {
			t.Fatalf("resumed seqs = %v (event %d = %+v)", seqsOf(got), i, ev)
		}
	}
	if got[0].TaskID != idA || got[0].Status != types.TaskSuccess ||
		got[1].TaskID != idB || got[1].Status != types.TaskQueued ||
		got[2].TaskID != idB || got[2].Status != types.TaskSuccess {
		t.Fatalf("resumed events = %v", seqsOf(got))
	}
	// Replayed terminal events are trimmed: the ring does not pin
	// result bytes, and clients reconcile them via POST /v1/tasks/wait.
	if len(got[0].Result) != 0 || len(got[2].Result) != 0 {
		t.Fatal("replayed terminal events carried inline result bytes")
	}
	// The stream continues live after the replay.
	idC := submit()
	if ev := nextEvent(t, ch2); ev.TaskID != idC || ev.Seq != first.Seq+4 {
		t.Fatalf("live event after resume = %+v", ev)
	}
}

// The same cut and resume on a completions-only stream: the replay is
// the terminal events of the missed stretch and nothing else, seqs
// keep the full stream's numbering, and the stream carries on live.
func TestSSEResumeTerminalOnlyNoLossNoDup(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	submit := func() types.TaskID {
		var sub api.SubmitResponse
		doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
			api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
		return sub.TaskID
	}

	ch, resp := openSSEAt(t, srv, terminalOnly, token, "")
	idA := submit()                         // seq 1, not sent
	completeTask(svc, idA, []byte("01\na")) // seq 2
	first := nextEvent(t, ch)
	if first.TaskID != idA || first.Status != types.TaskSuccess || first.Seq != 2 || len(first.Result) == 0 {
		t.Fatalf("first event = %+v, want A's completion at seq 2 with its result", first)
	}
	resp.Body.Close()
	idB := submit()                         // seq 3
	completeTask(svc, idB, []byte("01\nb")) // seq 4
	idC := submit()                         // seq 5

	ch2, resp2 := openSSEAt(t, srv, terminalOnly, token, strconv.FormatUint(first.Seq, 10))
	defer resp2.Body.Close()
	if ev := nextEvent(t, ch2); ev.TaskID != idB || ev.Status != types.TaskSuccess || ev.Seq != 4 || len(ev.Result) != 0 {
		t.Fatalf("replayed event = %+v, want B's completion at seq 4, result trimmed", ev)
	}
	completeTask(svc, idC, []byte("01\nc")) // seq 6
	if ev := nextEvent(t, ch2); ev.TaskID != idC || ev.Seq != 6 || len(ev.Result) == 0 {
		t.Fatalf("live event after resume = %+v, want C's completion at seq 6 with its result", ev)
	}
	select {
	case ev := <-ch2:
		t.Fatalf("unexpected extra event %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func seqsOf(evs []types.TaskEvent) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}

// TestSSEResumeGapIsGone shrinks the replay ring so a disconnected
// client's position is evicted: the reconnect must fail with a clear
// 410 rather than silently skipping events.
func TestSSEResumeGapIsGone(t *testing.T) {
	svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, EventRing: 2})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	token := svc.MintUserToken("alice", auth.ScopeAll)
	fnID, epID := registerFixture(t, srv, token)

	for i := 0; i < 5; i++ {
		doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
			api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, nil)
	}
	// Ring of 2 holds seqs 4,5. Resuming after 1 needs 2..5: gone.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/events", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Last-Event-ID", "1")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("gap resume = %d, want 410 Gone", resp.StatusCode)
	}
	// Filtered or not: the ring is judged on the whole stream.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+terminalOnly, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Last-Event-ID", "1")
	if resp, err = srv.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("filtered gap resume = %d, want 410 Gone", resp.StatusCode)
	}
	// A position the ring still covers resumes fine.
	ch, resp2 := openSSE(t, srv, token, "3")
	defer resp2.Body.Close()
	if ev := nextEvent(t, ch); ev.Seq != 4 {
		t.Fatalf("in-ring resume started at seq %d, want 4", ev.Seq)
	}
}

func TestWaitTasksEndpoint(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	var ids []types.TaskID
	for i := 0; i < 3; i++ {
		var sub api.SubmitResponse
		doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
			api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte{byte(i)}}, &sub)
		ids = append(ids, sub.TaskID)
	}
	completeTask(svc, ids[0], []byte("01\na"))
	completeTask(svc, ids[2], []byte("01\nc"))

	// Non-blocking: the completed subset plus the pending remainder.
	var resp api.WaitTasksResponse
	code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks/wait",
		api.WaitTasksRequest{TaskIDs: ids}, &resp)
	if code != http.StatusOK || len(resp.Results) != 2 || len(resp.Pending) != 1 || resp.Pending[0] != ids[1] {
		t.Fatalf("wait = %d, %+v", code, resp)
	}

	// Blocking: one request parks until the completion lands.
	go func() {
		time.Sleep(50 * time.Millisecond)
		completeTask(svc, ids[1], []byte("01\nb"))
	}()
	start := time.Now()
	var resp2 api.WaitTasksResponse
	code = doJSON(t, srv, token, http.MethodPost, "/v1/tasks/wait",
		api.WaitTasksRequest{TaskIDs: []types.TaskID{ids[1]}, Wait: "2s"}, &resp2)
	if code != http.StatusOK || len(resp2.Results) != 1 || len(resp2.Pending) != 0 {
		t.Fatalf("blocking wait = %d, %+v", code, resp2)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("blocking wait returned before completion")
	}
	if string(resp2.Results[0].Output) != "01\nb" {
		t.Fatalf("blocking wait output = %q", resp2.Results[0].Output)
	}
}

func TestWaitTasksValidation(t *testing.T) {
	_, srv, token := testService(t)
	if code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks/wait",
		api.WaitTasksRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty wait = %d, want 400", code)
	}
	big := make([]types.TaskID, maxWaitBatch+1)
	for i := range big {
		big[i] = types.TaskID(strconv.Itoa(i))
	}
	if code := doJSON(t, srv, token, http.MethodPost, "/v1/tasks/wait",
		api.WaitTasksRequest{TaskIDs: big}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized wait = %d, want 400", code)
	}
}

// TestWaitersGoneUnifiedOnBus pins the acceptance criterion: blocking
// retrieval leaves no per-connection state behind in the service —
// the event bus's done-registration map drains once waiters return.
func TestWaitersGoneUnifiedOnBus(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	var sub api.SubmitResponse
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
		api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
	// A timed-out wait must not leak its registration.
	doJSON(t, srv, token, http.MethodPost, "/v1/tasks/wait",
		api.WaitTasksRequest{TaskIDs: []types.TaskID{sub.TaskID}, Wait: "10ms"}, nil)
	completeTask(svc, sub.TaskID, []byte("01\nx"))
	doJSON(t, srv, token, http.MethodGet, "/v1/tasks/"+string(sub.TaskID)+"/result", nil, nil)
	if n := svc.Events.PendingDone(); n != 0 {
		t.Fatalf("done registrations leaked: %d", n)
	}
}

// A completions-only stream carries no queued, dispatched, running or
// pending event, and every terminal one in seq order with its result.
func TestEventStreamTerminalOnly(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	ch, resp := openSSEAt(t, srv, terminalOnly, token, "")
	defer resp.Body.Close()

	var ids []types.TaskID
	for range 3 {
		var sub api.SubmitResponse
		doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
			api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
		svc.onDispatched(&types.Task{ID: sub.TaskID, EndpointID: epID, Owner: "alice"})
		svc.onRunning(sub.TaskID, epID)
		ids = append(ids, sub.TaskID)
	}
	for i, id := range ids {
		completeTask(svc, id, []byte("01\n"+strconv.Itoa(i)))
	}
	var last uint64
	for i, id := range ids {
		ev := nextEvent(t, ch)
		res, err := wire.DecodeResult(ev.Result)
		if ev.TaskID != id || !ev.Terminal() || ev.Seq <= last || err != nil || string(res.Output) != "01\n"+strconv.Itoa(i) {
			t.Fatalf("event %d = %+v (result %+v, %v), want %s's completion after seq %d", i, ev, res, err, id, last)
		}
		last = ev.Seq
	}
	// Three tasks of four events each: the last completion is seq 12.
	if last != 12 {
		t.Fatalf("last seq = %d, want 12: the filtered stream keeps the full numbering", last)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/events?"+api.EventsTerminalParam+"=maybe", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	bad, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed terminal parameter = %d, want 400", bad.StatusCode)
	}
}

// streamRecorder is a ResponseWriter for driving handleEvents without
// a connection: it records frames and flushes, and holds every Write
// until gate is closed, so a test can fill the subscription while the
// handler sits in its first write.
type streamRecorder struct {
	gate    chan struct{}
	flushed chan struct{} // one token per flush

	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes int
}

func newStreamRecorder() *streamRecorder {
	return &streamRecorder{gate: make(chan struct{}), flushed: make(chan struct{}, 1024), header: make(http.Header)}
}

func (w *streamRecorder) Header() http.Header { return w.header }
func (w *streamRecorder) WriteHeader(int)     {}

func (w *streamRecorder) Write(p []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

func (w *streamRecorder) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
	w.flushed <- struct{}{}
}

// seqs returns the ids of the frames written so far and the number of
// flushes that carried them.
func (w *streamRecorder) seqs(t *testing.T) (seqs []uint64, flushes int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, line := range strings.Split(w.body.String(), "\n") {
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			seq, err := strconv.ParseUint(id, 10, 64)
			if err != nil {
				t.Fatalf("frame id %q: %v", id, err)
			}
			seqs = append(seqs, seq)
		}
	}
	return seqs, w.flushes
}

// streamInto serves one GET /v1/events for alice into a recorder and
// returns once the subscription is attached (the 200 has been
// flushed). stop ends the request and waits for the handler.
func streamInto(t *testing.T, svc *Service, token string) (w *streamRecorder, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, terminalOnly, nil).WithContext(ctx)
	req.Header.Set("Authorization", "Bearer "+token)
	w = newStreamRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.ServeHTTP(w, req)
	}()
	select {
	case <-w.flushed:
	case <-time.After(2 * time.Second):
		t.Fatal("stream never answered")
	}
	return w, func() {
		cancel()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("handler did not return after its request was canceled")
		}
	}
}

// publishCompletions puts n terminal events on alice's stream and
// returns their seqs.
func publishCompletions(svc *Service, n int) []uint64 {
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = svc.Events.Publish("alice", types.TaskEvent{
			TaskID: types.TaskID("t" + strconv.Itoa(i)), Status: types.TaskSuccess, Time: time.Now(),
		})
	}
	return seqs
}

// awaitFrames waits until the recorder holds n frames.
func awaitFrames(t *testing.T, w *streamRecorder, n int) (seqs []uint64, flushes int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if seqs, flushes = w.seqs(t); len(seqs) >= n {
			return seqs, flushes
		}
		select {
		case <-w.flushed:
		case <-deadline:
			t.Fatalf("%d of %d frames arrived", len(seqs), n)
		}
	}
}

// Events that are ready together share a flush: N of them waiting when
// the handler gets to write cost about N/sseDrainMax flushes, not N,
// and arrive in order.
func TestEventStreamCoalescesFlushes(t *testing.T) {
	svc, _, token := testService(t)
	w, stop := streamInto(t, svc, token)
	defer stop()

	const n = 150
	want := publishCompletions(svc, n) // the handler takes the first and blocks writing it
	close(w.gate)
	got, flushes := awaitFrames(t, w, n)
	if !slices.Equal(got, want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
	// One flush sent the 200; the rest carried frames.
	if limit := (n+sseDrainMax-1)/sseDrainMax + 1; flushes-1 > limit {
		t.Fatalf("%d events cost %d flushes, want at most %d", n, flushes-1, limit)
	}
}

// A subscription the bus closes as lagged while the handler is in the
// middle of draining it loses nothing: what was buffered is written,
// and the rest comes from the ring.
func TestEventStreamLaggedMidDrainResumes(t *testing.T) {
	svc, _, token := testService(t)
	w, stop := streamInto(t, svc, token)
	defer stop()

	// More than the subscription's buffer can hold behind the one
	// event the handler is stuck writing, and less than the ring.
	const n = 400
	want := publishCompletions(svc, n)
	close(w.gate)
	got, _ := awaitFrames(t, w, n)
	if !slices.Equal(got, want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
	if strings.Contains(w.body.String(), "event: gap") {
		t.Fatal("stream reported a gap the ring covered")
	}
}

// Two clients of one user both receive a result inline, but its
// cleanup is scheduled, and counted, once.
func TestStreamPurgeCountsOncePerTask(t *testing.T) {
	svc, srv, token := testService(t)
	fnID, epID := registerFixture(t, srv, token)
	ch1, resp1 := openSSEAt(t, srv, terminalOnly, token, "")
	defer resp1.Body.Close()
	ch2, resp2 := openSSE(t, srv, token, "")
	defer resp2.Body.Close()

	// Each handler purges after a flush and before its next write, so
	// once both clients hold the third completion the first two are
	// accounted for on both streams.
	for range 3 {
		var sub api.SubmitResponse
		doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
			api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
		completeTask(svc, sub.TaskID, []byte("01\nout"))
		for _, ch := range []<-chan types.TaskEvent{ch1, ch2} {
			for ev := nextEvent(t, ch); !ev.Terminal(); ev = nextEvent(t, ch) {
			}
		}
	}
	if n := svc.StatsSnapshot().StreamPurged; n < 2 || n > 3 {
		t.Fatalf("StreamPurged = %d after 3 results on 2 streams, want 2 or 3 (once per task)", n)
	}
}
