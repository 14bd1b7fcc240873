package sdk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/service"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// heldSubmit is one POST /v1/tasks the stub server has read and not yet
// passed on to the service.
type heldSubmit struct {
	body    []byte
	release chan struct{} // close to let the request through
}

// holdSubmits serves svc, holding every POST /v1/tasks open until the
// test releases it, so the test decides what is in flight while other
// callers arrive.
func holdSubmits(t *testing.T, svc *service.Service) (*Client, <-chan *heldSubmit) {
	t.Helper()
	// Sized to what a test has held at once; a send never blocks.
	arrivals := make(chan *heldSubmit, 16)
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/tasks" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			h := &heldSubmit{body: body, release: make(chan struct{})}
			arrivals <- h
			select {
			case <-h.release:
			case <-r.Context().Done():
				return
			case <-stop:
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(stop) })
	c := New(srv.URL, svc.MintUserToken("alice", auth.ScopeAll))
	t.Cleanup(c.Close)
	return c, arrivals
}

// next returns the next request to reach the stub.
func next(t *testing.T, arrivals <-chan *heldSubmit) *heldSubmit {
	t.Helper()
	select {
	case h := <-arrivals:
		return h
	case <-time.After(10 * time.Second):
		t.Fatal("no submit request reached the server")
		return nil
	}
}

// none fails the test if a request has reached the stub that the test
// did not expect: callers to a busy target must queue, not send.
func none(t *testing.T, arrivals <-chan *heldSubmit) {
	t.Helper()
	select {
	case h := <-arrivals:
		t.Fatalf("a %d-byte submit request was sent while one was in flight for its target", len(h.body))
	default:
	}
}

type submitted struct {
	resp api.SubmitResponse
	err  error
}

// goSubmit submits spec on its own goroutine.
func goSubmit(ctx context.Context, c *Client, spec SubmitSpec) <-chan submitted {
	done := make(chan submitted, 1)
	go func() {
		resp, err := c.submit(ctx, spec)
		done <- submitted{resp, err}
	}()
	return done
}

// queue submits spec on its own goroutine and returns once that caller
// is queued behind the request in flight, n-th in line.
func queue(t *testing.T, ctx context.Context, c *Client, spec SubmitSpec, n int) <-chan submitted {
	t.Helper()
	done := goSubmit(ctx, c, spec)
	awaitQueued(t, c, spec, n)
	return done
}

// awaitQueued waits until n callers are queued for spec's target.
func awaitQueued(t *testing.T, c *Client, spec SubmitSpec, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		c.submitMu.Lock()
		var got int
		if q := c.submits[submitTarget{spec.Endpoint, spec.Group}]; q != nil {
			got = len(q.waiters)
		}
		c.submitMu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers queued, want %d", got, n)
		}
	}
}

func await(t *testing.T, done <-chan submitted) submitted {
	t.Helper()
	select {
	case s := <-done:
		return s
	case <-time.After(10 * time.Second):
		t.Fatal("a submit call did not return")
		return submitted{}
	}
}

// payloadOf is the payload the service stored for a task.
func payloadOf(t *testing.T, svc *service.Service, id types.TaskID) string {
	t.Helper()
	rec, ok := svc.Store.Tasks().Get(id)
	if !ok {
		t.Fatalf("the service has no task %s", id)
	}
	task, err := wire.DecodeTask(rec.Task())
	if err != nil {
		t.Fatal(err)
	}
	return string(task.Payload)
}

func wantCounters(t *testing.T, c *Client, want Counters) {
	t.Helper()
	if got := c.Counters(); got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
}

// A caller that finds nothing in flight sends the frame it always sent;
// the callers that arrive meanwhile go out together when it returns, as
// one batch frame, and each gets the id of its own task.
func TestConcurrentSubmitsShareOneRequest(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	spec := func(payload string) SubmitSpec {
		return SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte(payload), Memoize: true, Walltime: time.Minute}
	}

	lone := goSubmit(ctx, c, spec("lone"))
	first := next(t, arrivals)
	want := api.EncodeSubmitFrame(&api.SubmitRequest{FunctionID: fnID, EndpointID: epID, Payload: []byte("lone"), Memoize: true, Walltime: time.Minute})
	if !bytes.Equal(first.body, want) {
		t.Fatalf("a lone submit sent\n%q, want the submission frame\n%q", first.body, want)
	}

	const n = 5
	payloads := []string{"a", "b", "c", "d", "e"}
	var queued [n]<-chan submitted
	for i, p := range payloads {
		queued[i] = queue(t, ctx, c, spec(p), i+1)
	}
	none(t, arrivals)
	close(first.release)
	if s := await(t, lone); s.err != nil || payloadOf(t, svc, s.resp.TaskID) != "lone" {
		t.Fatalf("lone submit = %+v", s)
	}

	second := next(t, arrivals)
	reqs, err := api.DecodeSubmitBatch(second.body)
	if !wire.IsTaskBatch(second.body) || err != nil || len(reqs) != n {
		t.Fatalf("the queued callers sent %q (%d submissions, %v), want one batch frame of %d", second.body, len(reqs), err, n)
	}
	for i, r := range reqs {
		if string(r.Payload) != payloads[i] || r.FunctionID != fnID || r.EndpointID != epID || !r.Memoize || r.Walltime != time.Minute {
			t.Fatalf("entry %d of the batch = %+v, want caller %q's submission", i, r, payloads[i])
		}
	}
	none(t, arrivals)
	close(second.release)
	for i, done := range queued {
		s := await(t, done)
		if s.err != nil || s.resp.EndpointID != epID {
			t.Fatalf("caller %q = %+v", payloads[i], s)
		}
		if got := payloadOf(t, svc, s.resp.TaskID); got != payloads[i] {
			t.Fatalf("caller %q was given the task of caller %q", payloads[i], got)
		}
	}
	wantCounters(t, c, Counters{SubmitRequests: 2, SubmitTasks: n + 1, LargestSubmit: n})

	// With nothing in flight again, the next caller is alone again.
	again := goSubmit(ctx, c, spec("again"))
	third := next(t, arrivals)
	if wire.IsTaskBatch(third.body) {
		t.Fatal("a submit into an idle queue went as a batch frame")
	}
	close(third.release)
	if s := await(t, again); s.err != nil {
		t.Fatal(s.err)
	}
	wantCounters(t, c, Counters{SubmitRequests: 3, SubmitTasks: n + 2, LargestSubmit: n})
}

// One caller's unknown function is that caller's error, the one it
// would have had alone; the futures of the callers it shared a request
// with resolve.
func TestSharedSubmitOutcomesArePerCaller(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	bad := SubmitSpec{Function: "no-such-function", Endpoint: epID}

	lone := goSubmit(ctx, c, SubmitSpec{Function: fnID, Endpoint: epID})
	first := next(t, arrivals)
	type future struct {
		f   *Future
		err error
	}
	futures := make([]chan future, 3)
	for i, spec := range []SubmitSpec{{Function: fnID, Endpoint: epID, Payload: []byte("x")}, bad, {Function: fnID, Endpoint: epID, Payload: []byte("z")}} {
		futures[i] = make(chan future, 1)
		go func() {
			f, err := c.SubmitFuture(ctx, spec)
			futures[i] <- future{f, err}
		}()
		awaitQueued(t, c, spec, i+1)
	}
	close(first.release)
	await(t, lone)
	second := next(t, arrivals)
	if reqs, err := api.DecodeSubmitBatch(second.body); err != nil || len(reqs) != 3 {
		t.Fatalf("the three callers sent %d submissions, %v", len(reqs), err)
	}
	close(second.release)

	alone := goSubmit(ctx, c, bad)
	if refused := <-futures[1]; refused.err == nil {
		t.Fatal("a submission naming an unknown function was accepted")
	} else {
		close(next(t, arrivals).release)
		if want := await(t, alone).err; want == nil || refused.err.Error() != want.Error() {
			t.Fatalf("sharing a request the caller was told\n%v\nalone it is told\n%v", refused.err, want)
		}
	}
	for _, i := range []int{0, 2} {
		got := <-futures[i]
		if got.err != nil {
			t.Fatalf("caller %d = %v: its neighbour's refusal reached it", i, got.err)
		}
		complete(svc, got.f.TaskID(), float64(i))
		res, err := got.f.Get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := res.Value(nil); err != nil || v.(float64) != float64(i) {
			t.Fatalf("caller %d resolved to %v, %v", i, v, err)
		}
	}
}

// A caller whose ctx ends while it is queued leaves the queue and the
// batch; one whose ctx ends once its submission is sent returns without
// waiting for the answer, the caller that started the request like any
// other; and none of them takes the others' submissions with it.
func TestSubmitContextsAreTheCallersOwn(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	spec := func(payload string) SubmitSpec {
		return SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte(payload)}
	}
	cancellable := func() (context.Context, context.CancelFunc) { return context.WithCancel(ctx) }

	lone := goSubmit(ctx, c, spec("lone"))
	first := next(t, arrivals)
	senderCtx, cancelSender := cancellable()
	sender := queue(t, senderCtx, c, spec("sender"), 1)
	leaverCtx, cancelLeaver := cancellable()
	leaver := queue(t, leaverCtx, c, spec("leaver"), 2)
	stayer := queue(t, ctx, c, spec("stayer"), 3)
	quitterCtx, cancelQuitter := cancellable()
	quitter := queue(t, quitterCtx, c, spec("quitter"), 4)

	cancelQuitter()
	if s := await(t, quitter); !errors.Is(s.err, context.Canceled) {
		t.Fatalf("a caller cancelled in the queue = %v, want context.Canceled", s.err)
	}
	awaitQueued(t, c, spec(""), 3)
	close(first.release)
	await(t, lone)

	second := next(t, arrivals)
	reqs, err := api.DecodeSubmitBatch(second.body)
	if err != nil || len(reqs) != 3 || string(reqs[0].Payload) != "sender" || string(reqs[1].Payload) != "leaver" || string(reqs[2].Payload) != "stayer" {
		t.Fatalf("the batch = %+v, %v; want sender, leaver, stayer and no quitter", reqs, err)
	}
	// In flight and held: both leave at once, and the request itself is
	// nobody's to cancel.
	cancelLeaver()
	if s := await(t, leaver); !errors.Is(s.err, context.Canceled) {
		t.Fatalf("a caller cancelled with its submission in flight = %v, want context.Canceled", s.err)
	}
	cancelSender()
	if s := await(t, sender); !errors.Is(s.err, context.Canceled) {
		t.Fatalf("the caller that started the request, cancelled with it in flight = %v, want context.Canceled", s.err)
	}
	close(second.release)
	if s := await(t, stayer); s.err != nil || payloadOf(t, svc, s.resp.TaskID) != "stayer" {
		t.Fatalf("the caller that stayed = %+v: the sender's ctx reached it", s)
	}
	wantCounters(t, c, Counters{SubmitRequests: 2, SubmitTasks: 4, LargestSubmit: 3})
	if got := svc.StatsSnapshot().Submitted; got != 4 {
		t.Fatalf("the service accepted %d tasks, want 4: the quitter's was never sent", got)
	}

}

// answered stands in for a request in flight to spec's target that the
// test answers itself: the queue is busy until the test, holding
// submitMu, calls handOff on it. It puts a test between a request's
// answer and the woken caller's next step, where no stub server can be.
func answered(c *Client, spec SubmitSpec) *submitQueue {
	q := &submitQueue{sending: true}
	c.submitMu.Lock()
	if c.submits == nil {
		c.submits = make(map[submitTarget]*submitQueue)
	}
	c.submits[submitTarget{spec.Endpoint, spec.Group}] = q
	c.submitMu.Unlock()
	return q
}

// A caller whose ctx ends as its turn to send comes sends nothing of
// its own, and the caller behind it sends instead.
func TestSubmitterCancelledAtItsTurnPassesItOn(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	spec := func(payload string) SubmitSpec {
		return SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte(payload)}
	}

	q := answered(c, spec(""))
	turnCtx, cancelTurn := context.WithCancel(ctx)
	turn := queue(t, turnCtx, c, spec("turn"), 1)
	behind := queue(t, ctx, c, spec("behind"), 2)
	c.submitMu.Lock()
	q.handOff()
	cancelTurn() // before the woken caller can take the lock
	c.submitMu.Unlock()
	if s := await(t, turn); !errors.Is(s.err, context.Canceled) {
		t.Fatalf("a caller cancelled at its turn = %v, want context.Canceled", s.err)
	}
	only := next(t, arrivals)
	if r, err := api.DecodeSubmitFrame(only.body); err != nil || string(r.Payload) != "behind" {
		t.Fatalf("after the cancelled caller the server got %+v, %v; want the one behind it, alone", r, err)
	}
	close(only.release)
	if s := await(t, behind); s.err != nil {
		t.Fatal(s.err)
	}
	wantCounters(t, c, Counters{SubmitRequests: 1, SubmitTasks: 1, LargestSubmit: 1})
}

// Close fails what is queued with ErrClosed and ends a shared request
// in flight; a lone request is its caller's and runs on.
func TestCloseFailsQueuedSubmits(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	spec := SubmitSpec{Function: fnID, Endpoint: epID}

	lone := goSubmit(ctx, c, spec)
	first := next(t, arrivals)
	a, b := queue(t, ctx, c, spec, 1), queue(t, ctx, c, spec, 2)
	close(first.release)
	await(t, lone)
	next(t, arrivals) // a and b, in flight and held
	d := queue(t, ctx, c, spec, 1)
	c.Close()
	for name, done := range map[string]<-chan submitted{"sending": a, "sent": b, "queued": d} {
		if s := await(t, done); !errors.Is(s.err, ErrClosed) {
			t.Fatalf("the %s caller at Close = %v, want ErrClosed", name, s.err)
		}
	}
	// Plain calls still work on a closed client.
	again := goSubmit(ctx, c, spec)
	close(next(t, arrivals).release)
	if s := await(t, again); s.err != nil {
		t.Fatal(s.err)
	}
}

// Close also reaches the callers between a request's answer and the
// next request: the one woken to send and those it would have sent
// with. Whether Close finds them still queued or just sent, they get
// ErrClosed, and the queue is not left busy.
func TestCloseFailsWokenSubmitter(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	spec := SubmitSpec{Function: fnID, Endpoint: epID}

	q := answered(c, spec)
	a, b := queue(t, ctx, c, spec, 1), queue(t, ctx, c, spec, 2)
	c.submitMu.Lock()
	q.handOff()
	c.submitMu.Unlock()
	c.Close()
	for name, done := range map[string]<-chan submitted{"woken": a, "following": b} {
		if s := await(t, done); !errors.Is(s.err, ErrClosed) {
			t.Fatalf("the %s caller at Close = %v, want ErrClosed", name, s.err)
		}
	}
	again := goSubmit(ctx, c, spec)
	for h := range arrivals {
		close(h.release)
		if !wire.IsTaskBatch(h.body) { // not the request Close ended
			break
		}
	}
	if s := await(t, again); s.err != nil {
		t.Fatal(s.err)
	}
}

// Two targets are two queues: their requests are in flight together and
// their callers never share one.
func TestSubmitsToTwoTargetsNeverMerge(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, ep1 := fixture(t, c)
	ep2, err := c.NewEndpoint(context.Background(), EndpointSpec{Name: "ep2"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := getCtx(t)
	to := func(ep types.EndpointID) SubmitSpec { return SubmitSpec{Function: fnID, Endpoint: ep} }

	var calls []<-chan submitted
	calls = append(calls, goSubmit(ctx, c, to(ep1)))
	held := []*heldSubmit{next(t, arrivals)}
	calls = append(calls, goSubmit(ctx, c, to(ep2.EndpointID)))
	held = append(held, next(t, arrivals)) // while the first is still held
	calls = append(calls, queue(t, ctx, c, to(ep1), 1), queue(t, ctx, c, to(ep2.EndpointID), 1))
	none(t, arrivals)
	for _, h := range held {
		close(h.release)
	}
	for range 2 {
		h := next(t, arrivals)
		if wire.IsTaskBatch(h.body) {
			t.Fatal("callers to two endpoints were sent as one batch frame")
		}
		close(h.release)
	}
	got := map[types.EndpointID]int{}
	for _, done := range calls {
		s := await(t, done)
		if s.err != nil {
			t.Fatal(s.err)
		}
		got[s.resp.EndpointID]++
	}
	if got[ep1] != 2 || got[ep2.EndpointID] != 2 {
		t.Fatalf("placements = %v, want two on each endpoint", got)
	}
	wantCounters(t, c, Counters{SubmitRequests: 4, SubmitTasks: 4, LargestSubmit: 1})
}

// A batch is closed by the bytes of its frames too: two large
// submissions go one by one, and a small one rides with the second.
func TestSharedSubmitIsBoundedInBytes(t *testing.T) {
	_, svc := testClient(t)
	c, arrivals := holdSubmits(t, svc)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	spec := func(size int) SubmitSpec {
		return SubmitSpec{Function: fnID, Endpoint: epID, Payload: make([]byte, size)}
	}
	const large = submitBatchBytes/2 + 1

	lone := goSubmit(ctx, c, spec(0))
	first := next(t, arrivals)
	calls := []<-chan submitted{lone, queue(t, ctx, c, spec(large), 1), queue(t, ctx, c, spec(large), 2), queue(t, ctx, c, spec(1), 3)}
	close(first.release)
	second := next(t, arrivals)
	if r, err := api.DecodeSubmitFrame(second.body); err != nil || len(r.Payload) != large {
		t.Fatalf("the first large submission went as %d bytes (%v), want a frame of its own", len(second.body), err)
	}
	close(second.release)
	third := next(t, arrivals)
	if reqs, err := api.DecodeSubmitBatch(third.body); err != nil || len(reqs) != 2 || len(reqs[0].Payload) != large || len(reqs[1].Payload) != 1 {
		t.Fatalf("after it the server got %d submissions (%v), want the second large one and the small one", len(reqs), err)
	}
	close(third.release)
	for _, done := range calls {
		if s := await(t, done); s.err != nil {
			t.Fatal(s.err)
		}
	}
	wantCounters(t, c, Counters{SubmitRequests: 3, SubmitTasks: 4, LargestSubmit: 2})
}

// BenchmarkSubmitBySize is what one submit request costs by payload
// size, one caller over loopback to a service with nothing to run the
// tasks: the empty size is a request's fixed cost, which sharing saves,
// and the rest is what a caller queued behind it waits out. Run it with
// -benchtime 3000x: the service keeps every task.
func BenchmarkSubmitBySize(b *testing.B) {
	for _, size := range []int{0, 1 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			svc := service.New(service.Config{})
			defer svc.Close()
			srv := httptest.NewServer(svc)
			defer srv.Close()
			c := New(srv.URL, svc.MintUserToken("alice", auth.ScopeAll))
			ctx := context.Background()
			fnID, err := c.RegisterFunction(ctx, "f", []byte("def f(): pass"), types.ContainerSpec{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			ep, err := c.RegisterEndpoint(ctx, "ep", "", false)
			if err != nil {
				b.Fatal(err)
			}
			spec := SubmitSpec{Function: fnID, Endpoint: ep.EndpointID, Payload: make([]byte, size)}
			b.ResetTimer()
			for range b.N {
				if _, _, err := c.Submit(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
