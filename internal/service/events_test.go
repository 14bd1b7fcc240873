package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
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

// encoding is one of the two encodings of GET /v1/events as a client
// meets it. The stream tests run once under each: the handler is one
// piece of code, and only how an event is written differs.
type encoding struct {
	name        string
	accept      string // the request's Accept header
	contentType string // the response's Content-Type
	heartbeat   string
	// read decodes a stream until it ends, handing each event to emit,
	// and reports whether it ended in the gap signal. A stream cut
	// inside an event ends before that event.
	read func(r io.Reader, emit func(types.TaskEvent)) (gap bool)
}

var encodings = []encoding{
	{name: "sse", contentType: "text/event-stream", heartbeat: ": hb\n\n", read: readSSE},
	{name: "frames", accept: api.FrameMediaType, contentType: api.FrameMediaType, heartbeat: wire.EventHeartbeat, read: readFrames},
}

// eachEncoding runs a stream test under both encodings.
func eachEncoding(t *testing.T, test func(t *testing.T, enc encoding)) {
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) { test(t, enc) })
	}
}

func readSSE(r io.Reader, emit func(types.TaskEvent)) (gap bool) {
	sc := bufio.NewScanner(r)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				if ev, err := wire.DecodeEvent(data); err == nil {
					emit(*ev)
				}
			}
			data = nil
		case line == "event: gap":
			gap = true
		case strings.HasPrefix(line, "data:"):
			data = []byte(strings.TrimPrefix(line[5:], " "))
		}
	}
	return gap
}

func readFrames(r io.Reader, emit func(types.TaskEvent)) (gap bool) {
	frames := wire.NewEventReader(r, 1<<20)
	for {
		ev, err := frames.Next()
		if err != nil {
			return errors.Is(err, wire.ErrEventGap)
		}
		emit(*ev)
	}
}

// terminalOnly is the completions-only stream the SDK subscribes to.
const terminalOnly = "/v1/events?" + api.EventsTerminalParam + "=1"

// openStream connects to GET /v1/events (path may carry a query) in
// the given encoding, optionally resuming from lastEventID, and pumps
// decoded events into the returned channel (closed when the stream
// ends). The caller must close the response body to end the stream.
func openStream(t *testing.T, srv *httptest.Server, enc encoding, path, token, lastEventID string) (<-chan types.TaskEvent, *http.Response) {
	t.Helper()
	resp := getEvents(t, srv, enc, path, token, lastEventID)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream connect = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != enc.contentType {
		resp.Body.Close()
		t.Fatalf("stream Content-Type = %q, want %q", ct, enc.contentType)
	}
	ch := make(chan types.TaskEvent, 64)
	go func() {
		defer close(ch)
		enc.read(resp.Body, func(ev types.TaskEvent) { ch <- ev })
	}()
	return ch, resp
}

// getEvents issues the GET behind openStream and returns whatever the
// server answered.
func getEvents(t *testing.T, srv *httptest.Server, enc encoding, path, token, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if enc.accept != "" {
		req.Header.Set("Accept", enc.accept)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// openSSE is openStream for the whole lifecycle stream as Server-Sent
// Events, what a client that asks for nothing gets.
func openSSE(t *testing.T, srv *httptest.Server, token, lastEventID string) (<-chan types.TaskEvent, *http.Response) {
	t.Helper()
	return openStream(t, srv, encodings[0], "/v1/events", token, lastEventID)
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
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, srv, token := testService(t)
		fnID, epID := registerFixture(t, srv, token)

		ch, resp := openStream(t, srv, enc, "/v1/events", token, "")
		defer resp.Body.Close()

		var sub api.SubmitResponse
		doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
			api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("p")}, &sub)

		ev := nextEvent(t, ch)
		if ev.TaskID != sub.TaskID || ev.Status != types.TaskQueued || ev.EndpointID != epID || ev.Time.IsZero() {
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
	})
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

// TestResumeNoLossNoDup kills the stream mid-run and reconnects with
// Last-Event-ID: every event published while disconnected must arrive
// exactly once, as long as the replay ring covers the gap.
func TestResumeNoLossNoDup(t *testing.T) {
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, srv, token := testService(t)
		fnID, epID := registerFixture(t, srv, token)

		submit := func() types.TaskID {
			var sub api.SubmitResponse
			doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
				api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
			return sub.TaskID
		}

		ch, resp := openStream(t, srv, enc, "/v1/events", token, "")
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

		ch2, resp2 := openStream(t, srv, enc, "/v1/events", token, strconv.FormatUint(first.Seq, 10))
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
	})
}

// The same cut and resume on a completions-only stream: the replay is
// the terminal events of the missed stretch and nothing else, seqs
// keep the full stream's numbering, and the stream carries on live.
func TestResumeTerminalOnlyNoLossNoDup(t *testing.T) {
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, srv, token := testService(t)
		fnID, epID := registerFixture(t, srv, token)
		submit := func() types.TaskID {
			var sub api.SubmitResponse
			doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
				api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
			return sub.TaskID
		}

		ch, resp := openStream(t, srv, enc, terminalOnly, token, "")
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

		ch2, resp2 := openStream(t, srv, enc, terminalOnly, token, strconv.FormatUint(first.Seq, 10))
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
	})
}

func seqsOf(evs []types.TaskEvent) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}

// TestResumeGapIsGone shrinks the replay ring so a disconnected
// client's position is evicted: the reconnect must fail with a clear
// 410 rather than silently skipping events.
func TestResumeGapIsGone(t *testing.T) {
	eachEncoding(t, func(t *testing.T, enc encoding) {
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
		// Ring of 2 holds seqs 4,5. Resuming after 1 needs 2..5: gone,
		// filtered or not (the ring is judged on the whole stream).
		for _, path := range []string{"/v1/events", terminalOnly} {
			resp := getEvents(t, srv, enc, path, token, "1")
			resp.Body.Close()
			if resp.StatusCode != http.StatusGone {
				t.Fatalf("gap resume of %s = %d, want 410 Gone", path, resp.StatusCode)
			}
		}
		// A position the ring still covers resumes fine.
		ch, resp := openStream(t, srv, enc, "/v1/events", token, "3")
		defer resp.Body.Close()
		if ev := nextEvent(t, ch); ev.Seq != 4 {
			t.Fatalf("in-ring resume started at seq %d, want 4", ev.Seq)
		}
	})
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
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, srv, token := testService(t)
		fnID, epID := registerFixture(t, srv, token)
		ch, resp := openStream(t, srv, enc, terminalOnly, token, "")
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

		bad := getEvents(t, srv, enc, "/v1/events?"+api.EventsTerminalParam+"=maybe", token, "")
		bad.Body.Close()
		if bad.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed terminal parameter = %d, want 400", bad.StatusCode)
		}
	})
}

// streamRecorder is a ResponseWriter for driving handleEvents without
// a connection: it records what is written and the flushes, and holds
// every Write until gate is closed, so a test can fill the subscription
// while the handler sits in its first write.
type streamRecorder struct {
	enc     encoding
	gate    chan struct{}
	flushed chan struct{} // one token per flush

	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes int
}

func newStreamRecorder(enc encoding) *streamRecorder {
	return &streamRecorder{enc: enc, gate: make(chan struct{}), flushed: make(chan struct{}, 1024), header: make(http.Header)}
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

// written returns a copy of the bytes written so far.
func (w *streamRecorder) written() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Clone(w.body.Bytes())
}

// seqs returns the seqs of the events written so far, the number of
// flushes that carried them, and whether the gap signal followed.
func (w *streamRecorder) seqs() (seqs []uint64, flushes int, gap bool) {
	w.mu.Lock()
	body, flushes := bytes.Clone(w.body.Bytes()), w.flushes
	w.mu.Unlock()
	gap = w.enc.read(bytes.NewReader(body), func(ev types.TaskEvent) { seqs = append(seqs, ev.Seq) })
	return seqs, flushes, gap
}

// streamInto serves one completions-only GET /v1/events for alice, in
// the given encoding, into a recorder and returns once the subscription
// is attached (the 200 has been flushed). stop ends the request and
// waits for the handler.
func streamInto(t *testing.T, svc *Service, enc encoding, token string) (w *streamRecorder, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, terminalOnly, nil).WithContext(ctx)
	req.Header.Set("Authorization", "Bearer "+token)
	if enc.accept != "" {
		req.Header.Set("Accept", enc.accept)
	}
	w = newStreamRecorder(enc)
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
	if ct := w.header.Get("Content-Type"); ct != enc.contentType {
		t.Fatalf("stream Content-Type = %q, want %q", ct, enc.contentType)
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

// awaitEvents waits until the recorder holds n events.
func awaitEvents(t *testing.T, w *streamRecorder, n int) (seqs []uint64, flushes int, gap bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if seqs, flushes, gap = w.seqs(); len(seqs) >= n {
			return seqs, flushes, gap
		}
		select {
		case <-w.flushed:
		case <-deadline:
			t.Fatalf("%d of %d events arrived", len(seqs), n)
		}
	}
}

// Events that are ready together share a flush: N of them waiting when
// the handler gets to write cost about N/sseDrainMax flushes, not N,
// and arrive in order.
func TestEventStreamCoalescesFlushes(t *testing.T) {
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, _, token := testService(t)
		w, stop := streamInto(t, svc, enc, token)
		defer stop()

		const n = 150
		want := publishCompletions(svc, n) // the handler takes the first and blocks writing it
		close(w.gate)
		got, flushes, _ := awaitEvents(t, w, n)
		if !slices.Equal(got, want) {
			t.Fatalf("events = %v, want %v", got, want)
		}
		// One flush sent the 200; the rest carried events.
		if limit := (n+sseDrainMax-1)/sseDrainMax + 1; flushes-1 > limit {
			t.Fatalf("%d events cost %d flushes, want at most %d", n, flushes-1, limit)
		}
	})
}

// A subscription the bus closes as lagged while the handler is in the
// middle of draining it loses nothing: what was buffered is written,
// and the rest comes from the ring.
func TestEventStreamLaggedMidDrainResumes(t *testing.T) {
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, _, token := testService(t)
		w, stop := streamInto(t, svc, enc, token)
		defer stop()

		// More than the subscription's buffer can hold behind the one
		// event the handler is stuck writing, and less than the ring.
		const n = 400
		want := publishCompletions(svc, n)
		close(w.gate)
		got, _, gap := awaitEvents(t, w, n)
		if !slices.Equal(got, want) {
			t.Fatalf("events = %v, want %v", got, want)
		}
		if gap {
			t.Fatal("stream reported a gap the ring covered")
		}
	})
}

// A subscriber that lags past what the ring can replay is told so, in
// its own encoding, and the stream ends there.
func TestEventStreamLaggedPastRingSignalsGap(t *testing.T) {
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc := New(Config{HeartbeatPeriod: 50 * time.Millisecond, EventRing: 8})
		t.Cleanup(svc.Close)
		w, stop := streamInto(t, svc, enc, svc.MintUserToken("alice", auth.ScopeAll))
		defer stop()

		publishCompletions(svc, 1000) // far past the subscription's buffer and the ring
		close(w.gate)
		deadline := time.After(5 * time.Second)
		for {
			if _, _, gap := w.seqs(); gap {
				return
			}
			select {
			case <-w.flushed:
			case <-deadline:
				t.Fatal("no gap signal on a stream the ring could not resume")
			}
		}
	})
}

// Two clients of one user both receive a result inline, byte for byte
// the same stream, but its cleanup is scheduled, and counted, once.
func TestStreamPurgeCountsOncePerTask(t *testing.T) {
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, srv, token := testService(t)
		fnID, epID := registerFixture(t, srv, token)
		w1, stop1 := streamInto(t, svc, enc, token)
		defer stop1()
		w2, stop2 := streamInto(t, svc, enc, token)
		defer stop2()
		close(w1.gate)
		close(w2.gate)

		// Each handler purges after a flush and before its next write, so
		// once both clients hold the third completion the first two are
		// accounted for on both streams.
		for i := range 3 {
			var sub api.SubmitResponse
			doJSON(t, srv, token, http.MethodPost, "/v1/tasks",
				api.SubmitRequest{FunctionID: fnID, EndpointID: epID}, &sub)
			completeTask(svc, sub.TaskID, bytes.Repeat([]byte("01\nout"), 1000))
			awaitEvents(t, w1, i+1)
			awaitEvents(t, w2, i+1)
		}
		if n := svc.StatsSnapshot().StreamPurged; n < 2 || n > 3 {
			t.Fatalf("StreamPurged = %d after 3 results on 2 streams, want 2 or 3 (once per task)", n)
		}
		if b1, b2 := w1.written(), w2.written(); !bytes.Equal(b1, b2) {
			t.Fatalf("two subscribers of one user read different streams: %d and %d bytes", len(b1), len(b2))
		}
	})
}

// An idle stream carries its encoding's heartbeat and nothing else; a
// reader passes over it to the next event.
func TestEventStreamHeartbeats(t *testing.T) {
	period := sseHeartbeat
	sseHeartbeat = 10 * time.Millisecond
	t.Cleanup(func() { sseHeartbeat = period })
	eachEncoding(t, func(t *testing.T, enc encoding) {
		svc, _, token := testService(t)
		w, stop := streamInto(t, svc, enc, token)
		defer stop()
		close(w.gate)

		deadline := time.After(5 * time.Second)
		for len(w.written()) < 3*len(enc.heartbeat) {
			select {
			case <-w.flushed:
			case <-deadline:
				t.Fatalf("idle stream wrote %q, want heartbeats", w.written())
			}
		}
		idle := w.written()
		if want := strings.Repeat(enc.heartbeat, len(idle)/len(enc.heartbeat)); string(idle) != want {
			t.Fatalf("idle stream wrote %q, want only heartbeats %q", idle, enc.heartbeat)
		}
		want := publishCompletions(svc, 1)
		if got, _, gap := awaitEvents(t, w, 1); !slices.Equal(got, want) || gap {
			t.Fatalf("events behind the heartbeats = %v (gap %v), want %v", got, gap, want)
		}
	})
}
