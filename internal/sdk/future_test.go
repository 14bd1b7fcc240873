package sdk

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// getCtx bounds future gathering in tests.
func getCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitFutureResolvesViaStream(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte("in")})
	if err != nil {
		t.Fatal(err)
	}
	complete(svc, f.TaskID(), "streamed")
	res, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if _, err := res.Value(&s); err != nil || s != "streamed" {
		t.Fatalf("value = %q, %v", s, err)
	}
}

func TestFutureOfResolvesAlreadyCompletedTask(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	// Complete the task before any future (or stream) exists: the
	// consumer must reconcile via batch wait, not hang.
	id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	complete(svc, id, 7.0)
	f, err := c.FutureOf(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := res.Value(nil); err != nil || v.(float64) != 7.0 {
		t.Fatalf("value = %v, %v", v, err)
	}
}

func TestFutureSurfacesRemoteFailure(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	res := &types.Result{TaskID: f.TaskID(), Err: string(serial.EncodeError(errors.New("boom"), string(f.TaskID())))}
	land(svc, res)
	got, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Err == nil || !errors.Is(got.Err, ErrTaskFailed) {
		t.Fatalf("Err = %v, want ErrTaskFailed", got.Err)
	}
}

// A server that does not know the terminal parameter streams every
// lifecycle event; the consumer drops what it did not ask for and
// resolves from the completions all the same.
func TestFutureResolvesWhenServerIgnoresTerminalFilter(t *testing.T) {
	c0, svc := testClient(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/events" {
			r.URL.RawQuery = ""
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, c0.token)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	for i := range 3 {
		f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
		if err != nil {
			t.Fatal(err)
		}
		complete(svc, f.TaskID(), float64(i))
		res, err := f.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := res.Value(nil); err != nil || v.(float64) != float64(i) {
			t.Fatalf("task %d: value = %v, %v", i, v, err)
		}
	}
}

// A server with no event stream, or one that answers a request for
// frames with Server-Sent Events, leaves the consumer on batched waits.
func TestFutureFallsBackToBatchWait(t *testing.T) {
	for name, events := range map[string]func(*service.Service) http.HandlerFunc{
		"no stream": func(*service.Service) http.HandlerFunc { return http.NotFound },
		"SSE only": func(svc *service.Service) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				r.Header.Del("Accept")
				svc.ServeHTTP(w, r)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, svc := testClient(t)
			var waits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/events":
					events(svc)(w, r)
					return
				case "/v1/tasks/wait":
					waits.Add(1)
				}
				svc.ServeHTTP(w, r)
			}))
			t.Cleanup(srv.Close)
			c2 := New(srv.URL, c.token)
			c2.PollInterval = time.Millisecond
			c2.WaitHint = 50 * time.Millisecond
			t.Cleanup(c2.Close)
			fnID, epID := fixture(t, c2)
			ctx := getCtx(t)

			f, err := c2.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				time.Sleep(30 * time.Millisecond)
				complete(svc, f.TaskID(), "fallback")
			}()
			res, err := f.Get(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var s string
			if _, err := res.Value(&s); err != nil || s != "fallback" {
				t.Fatalf("value = %q, %v", s, err)
			}
			if waits.Load() == 0 {
				t.Fatal("future resolved without a wait request: the fallback engine did not run")
			}
		})
	}
}

func TestCloseFailsPendingFutures(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := f.Get(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitFuture after Close = %v, want ErrClosed", err)
	}
}

func TestWaitTasksPartialCompletion(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	var ids []types.TaskID
	for i := 0; i < 3; i++ {
		id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	complete(svc, ids[0], "a")
	complete(svc, ids[2], "c")
	done, pending, err := c.WaitTasks(ctx, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || len(pending) != 1 || pending[0] != ids[1] {
		t.Fatalf("done=%d pending=%v", len(done), pending)
	}
}

func TestGetResultsBatchWaitPreservesOrder(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	var ids []types.TaskID
	for i := 0; i < 4; i++ {
		id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The slowest task is first: batch wait must not let it serialize
	// the rest (one blocking round gathers everything).
	for i := 1; i < 4; i++ {
		complete(svc, ids[i], fmt.Sprintf("v%d", i))
	}
	go func() {
		time.Sleep(40 * time.Millisecond)
		complete(svc, ids[0], "v0")
	}()
	results, err := c.GetResults(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		var s string
		if _, err := res.Value(&s); err != nil || s != fmt.Sprintf("v%d", i) {
			t.Fatalf("result %d = %q, %v", i, s, err)
		}
		if res.TaskID != ids[i] {
			t.Fatalf("result %d out of order", i)
		}
	}
}

func TestMapFutureGathersPackedBatches(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	mf, err := c.MapFuture(ctx, fnID, epID, seqOf(5), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Futures()) != 3 {
		t.Fatalf("futures = %d, want 3 batches", len(mf.Futures()))
	}
	// Simulate the worker: each batch returns one packed output per
	// item.
	for i, id := range mf.Handle.TaskIDs {
		parts := make([]serial.Part, mf.Handle.Sizes[i])
		for j := range parts {
			parts[j] = serial.Part{Tag: fmt.Sprintf("o%d", j), Body: []byte(fmt.Sprintf("out-%d-%d", i, j))}
		}
		res := &types.Result{TaskID: id, Output: serial.Pack(parts...), Completed: time.Now()}
		land(svc, res)
	}
	outs, err := mf.Results(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 5 || string(outs[0]) != "out-0-0" || string(outs[4]) != "out-2-0" {
		t.Fatalf("outs = %q", outs)
	}
}

// waitCounter serves svc and counts POST /v1/tasks/wait requests and
// the event streams opened; it also holds the consumer to asking for
// completions only, as frames.
func waitCounter(t *testing.T, svc *service.Service) (srv *httptest.Server, waits, streams *atomic.Int64) {
	t.Helper()
	waits, streams = new(atomic.Int64), new(atomic.Int64)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/tasks/wait":
			waits.Add(1)
		case "/v1/events":
			streams.Add(1)
			if r.URL.RawQuery != api.EventsTerminalParam+"=1" {
				t.Errorf("GET /v1/events?%s, want ?%s=1", r.URL.RawQuery, api.EventsTerminalParam)
			}
			if accept := r.Header.Get("Accept"); accept != api.FrameMediaType {
				t.Errorf("GET /v1/events with Accept %q, want %s", accept, api.FrameMediaType)
			}
		case "/v1/tasks":
			if ct := r.Header.Get("Content-Type"); ct != api.FrameMediaType {
				t.Errorf("POST /v1/tasks as %q, want %s", ct, api.FrameMediaType)
			}
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, waits, streams
}

// attach submits a task and attaches a future to it by id: a future the
// consumer always verifies, however early its subscription went live
// (SubmitFuture's, begun under a subscription already live, is not).
func attach(t *testing.T, ctx context.Context, c *Client, spec SubmitSpec) *Future {
	t.Helper()
	id, _, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.FutureOf(id)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// awaitLive waits until c's front-door subscription is live and its
// opening reconcile, of at least one future, is done, and returns the
// wait requests so far.
func awaitLive(t *testing.T, c *Client, waits *atomic.Int64) int64 {
	t.Helper()
	st, err := c.ensureStreamer("")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		live, verifying := !st.coveredSince.IsZero(), len(st.verify) > 0
		st.mu.Unlock()
		if live && !verifying && waits.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never went live")
		}
	}
	time.Sleep(10 * time.Millisecond) // past the verifier's debounce
	return waits.Load()
}

// A task submitted under a subscription that was already live needs no
// registration-time wait request: the stream (or the stash) delivers
// its result. A future attached by id still gets one, as does
// everything pending when a subscription begins.
func TestSubmitFutureUnderLiveStreamSkipsVerify(t *testing.T) {
	c0, svc := testClient(t)
	srv, waits, _ := waitCounter(t, svc)
	c := New(srv.URL, c0.token)
	c.WaitHint = time.Minute // keep the periodic sweep out of the count
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	// The first future starts the consumer and is verified.
	first := attach(t, ctx, c, SubmitSpec{Function: fnID, Endpoint: epID})
	before := awaitLive(t, c, waits)

	for i := range 8 {
		f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
		if err != nil {
			t.Fatal(err)
		}
		complete(svc, f.TaskID(), float64(i))
		res, err := f.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := res.Value(nil); err != nil || v.(float64) != float64(i) {
			t.Fatalf("task %d: value = %v, %v", i, v, err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if got := waits.Load(); got != before {
		t.Fatalf("%d wait requests for 8 futures submitted under a live stream, want 0", got-before)
	}

	// Attached by id: the task may have finished long ago, so the
	// consumer asks.
	id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.FutureOf(id)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); waits.Load() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("FutureOf issued no wait request")
		}
	}
	complete(svc, id, "attached")
	complete(svc, first.TaskID(), "first")
	for _, f := range []*Future{f, first} {
		if _, err := f.Get(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// A result too large to take off the stream is passed over without
// ending the subscription, and its future resolves through the verify
// path; the next completion arrives on the same stream.
func TestOversizeStreamResultResolvesByVerify(t *testing.T) {
	c0, svc := testClient(t)
	srv, waits, streams := waitCounter(t, svc)
	c := New(srv.URL, c0.token)
	c.WaitHint = time.Minute
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	big := attach(t, ctx, c, SubmitSpec{Function: fnID, Endpoint: epID})
	before := awaitLive(t, c, waits)
	output := make([]byte, maxStreamResult+1)
	output[len(output)-1] = 0x7f
	land(svc, &types.Result{TaskID: big.TaskID(), Output: output, Completed: time.Now()})
	res, err := big.Get(ctx)
	if err != nil || len(res.Output) != len(output) || res.Output[len(output)-1] != 0x7f {
		t.Fatalf("oversize result = %d bytes, %v; want %d", len(res.Output), err, len(output))
	}
	if waits.Load() == before {
		t.Fatal("an oversize result resolved without a wait request")
	}

	before = waits.Load()
	small, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	complete(svc, small.TaskID(), "after")
	if _, err := small.Get(ctx); err != nil {
		t.Fatal(err)
	}
	if n := streams.Load(); n != 1 {
		t.Fatalf("%d event streams opened, want the one that passed over the oversize result", n)
	}
	time.Sleep(10 * time.Millisecond)
	if got := waits.Load(); got != before {
		t.Fatalf("%d wait requests for a future submitted after the oversize result, want 0", got-before)
	}
}

// Heartbeats, frames of other users' making and the gap signal on a
// framed stream: the consumer ignores the first, and after the last
// resubscribes from scratch and reconciles.
func TestStreamHeartbeatsIgnoredAndGapResubscribes(t *testing.T) {
	c0, svc := testClient(t)
	var streams atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/events" {
			svc.ServeHTTP(w, r)
			return
		}
		if streams.Add(1) > 1 {
			if id := r.Header.Get("Last-Event-ID"); id != "" {
				t.Errorf("resubscribed after a gap with Last-Event-ID %s, want none", id)
			}
			svc.ServeHTTP(w, r)
			return
		}
		// The first subscription: heartbeats around one event for a task
		// nobody registered, then the gap signal and the end.
		w.Header().Set("Content-Type", api.FrameMediaType)
		stray := &types.TaskEvent{Seq: 41, TaskID: "stray", Status: types.TaskSuccess,
			Result: wire.EncodeResult(&types.Result{TaskID: "stray", Output: []byte("x")})}
		for _, piece := range [][]byte{
			[]byte(wire.EventHeartbeat), []byte(wire.EventHeartbeat),
			wire.AppendEventHead(nil, stray), stray.Result,
			[]byte(wire.EventHeartbeat), []byte(wire.EventGap),
		} {
			w.Write(piece) //nolint:errcheck
		}
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, c0.token)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); streams.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("consumer did not resubscribe after the gap signal")
		}
	}
	complete(svc, f.TaskID(), "after the gap")
	res, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if _, err := res.Value(&s); err != nil || s != "after the gap" {
		t.Fatalf("value = %q, %v", s, err)
	}
	// The stray event was stashed, not dropped: its result is the only
	// copy once the server has purged on delivery.
	if res, ok := c.takeStashed("stray"); !ok || string(res.Output) != "x" {
		t.Fatalf("stray completion = %+v, %v; want it stashed", res, ok)
	}
}

// The stash is bounded in bytes as well as in results: a client whose
// user has busy siblings holds at most stashMaxBytes of their outputs,
// oldest evicted first, and a future attached to an evicted task still
// resolves through the registration-time wait.
func TestStashBoundedInBytes(t *testing.T) {
	c0, svc := testClient(t)
	srv, waits, _ := waitCounter(t, svc)
	c := New(srv.URL, c0.token)
	c.WaitHint = time.Minute
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	// One real task, finished before the consumer subscribes: the stream
	// will never carry it, and its result stays on the server.
	const results, size = 200, 1 << 20
	first, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	complete(svc, first, "evicted")
	st, err := c.ensureStreamer("")
	if err != nil {
		t.Fatal(err)
	}
	ids := []types.TaskID{first}
	for i := 1; i < results; i++ {
		ids = append(ids, types.TaskID(fmt.Sprintf("sibling-%d", i)))
	}
	output := make([]byte, size)
	for _, id := range ids {
		st.resolveOrStash(id, &Result{TaskID: id, Output: output})
		st.mu.Lock()
		held, n := st.stashBytes, len(st.stash)
		st.mu.Unlock()
		if held > stashMaxBytes || held != n*size {
			t.Fatalf("after %s the stash holds %d results and counts %d bytes, bound %d", id, n, held, stashMaxBytes)
		}
	}
	st.mu.Lock()
	_, oldest := st.stash[first]
	_, newest := st.stash[ids[results-1]]
	n := len(st.stash)
	st.mu.Unlock()
	if oldest || !newest || n != stashMaxBytes/size {
		t.Fatalf("stash holds %d results (oldest %v, newest %v), want the newest %d", n, oldest, newest, stashMaxBytes/size)
	}
	// Taking a result gives its bytes back.
	if _, ok := c.takeStashed(ids[results-1]); !ok {
		t.Fatal("newest result not in the stash")
	}
	st.mu.Lock()
	held := st.stashBytes
	st.mu.Unlock()
	if held != (n-1)*size {
		t.Fatalf("stash counts %d bytes after a take, want %d", held, (n-1)*size)
	}

	before := waits.Load()
	f, err := c.FutureOf(first)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if _, err := res.Value(&s); err != nil || s != "evicted" {
		t.Fatalf("value = %q, %v", s, err)
	}
	if waits.Load() == before {
		t.Fatal("a future on an evicted result resolved without a wait request")
	}
}
