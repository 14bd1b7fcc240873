package sdk

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"sync"
	"time"

	"funcx/internal/api"
	"funcx/internal/serial"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// Future is a handle on one submitted task's eventual result. Futures
// are resolved by the client's single shared stream consumer: one
// connection (GET /v1/events, as binary event frames) carries every
// task's terminal event with its result, so N outstanding futures cost
// one HTTP request, not N long-polls. When the server cannot stream
// frames, the consumer falls back to batched waits
// (POST /v1/tasks/wait) — the future's surface is the same either way.
type Future struct {
	c    *Client
	id   types.TaskID
	done chan struct{}
	once sync.Once
	res  *Result
	err  error
}

func newFuture(c *Client, id types.TaskID) *Future {
	return &Future{c: c, id: id, done: make(chan struct{})}
}

// TaskID returns the underlying task id.
func (f *Future) TaskID() types.TaskID { return f.id }

// Done returns a channel closed when the future resolves.
func (f *Future) Done() <-chan struct{} { return f.done }

// Get blocks until the future resolves or ctx is done. A remote
// execution failure is reported inside the Result (Result.Err), not
// as Get's error, mirroring GetResult.
func (f *Future) Get(ctx context.Context) (*Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryGet returns the resolved result without blocking; ok is false
// while the task is still outstanding.
func (f *Future) TryGet() (res *Result, err error, ok bool) {
	select {
	case <-f.done:
		return f.res, f.err, true
	default:
		return nil, nil, false
	}
}

func (f *Future) resolve(res *Result, err error) {
	f.once.Do(func() {
		f.res, f.err = res, err
		close(f.done)
	})
}

// Trace fetches the task's recorded lifecycle timeline from the
// service (see Client.TaskTrace). Most useful after the future
// resolves, when the timeline is complete and carries the per-stage
// latency decomposition.
func (f *Future) Trace(ctx context.Context) (*api.TaskTraceResponse, error) {
	return f.c.TaskTrace(ctx, f.id)
}

// SubmitFuture submits one task and returns a future for its result,
// starting the client's shared stream consumer on first use. Against a
// sharded service the future is registered with the consumer pinned to
// the task's *owner* shard (named by the submit response): lifecycle
// events are published on the owner's bus, not the front door's.
func (c *Client) SubmitFuture(ctx context.Context, spec SubmitSpec) (*Future, error) {
	// Start the front-door consumer before submitting so the event
	// subscription races ahead of the task on an unsharded service;
	// for a shard-proxied submission the registration catch-up (and
	// the owner consumer's own subscription) covers the window.
	if _, err := c.ensureStreamer(""); err != nil {
		return nil, err
	}
	began := time.Now()
	resp, err := c.submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	st, err := c.ensureStreamer(resp.ShardURL)
	if err != nil {
		return nil, err
	}
	f := newFuture(c, resp.TaskID)
	st.register(f, began)
	return f, nil
}

// RunFuture is Run returning a future instead of a bare task id.
func (c *Client) RunFuture(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, payload []byte) (*Future, error) {
	return c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: payload})
}

// RunAnywhereFuture is RunAnywhere returning a future.
func (c *Client) RunAnywhereFuture(ctx context.Context, fnID types.FunctionID, gid types.GroupID, payload []byte) (*Future, error) {
	return c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Group: gid, Payload: payload})
}

// FutureOf attaches a future to an already-submitted task id (e.g.
// ids returned by RunBatch). The consumer reconciles tasks that
// completed before attachment via a batched wait, so no completion is
// lost to the registration race. The future rides the front-door
// consumer; against a sharded service whose front door does not own
// the task, resolution comes from the consumer's periodic batched
// sweep (the gateway scatter-gathers the wait) rather than the event
// stream.
func (c *Client) FutureOf(id types.TaskID) (*Future, error) {
	st, err := c.ensureStreamer("")
	if err != nil {
		return nil, err
	}
	f := newFuture(c, id)
	st.register(f, time.Time{})
	return f, nil
}

// MapFuture tracks the batch tasks of one Map call as futures.
type MapFuture struct {
	// Handle is the underlying Map handle (task ids, batch sizes).
	Handle  *MapHandle
	futures []*Future
}

// Futures returns the per-batch futures in dispatch order.
func (m *MapFuture) Futures() []*Future { return m.futures }

// Results blocks for every batch and returns the flattened unpacked
// outputs in submission order, like MapResults.
func (m *MapFuture) Results(ctx context.Context) ([][]byte, error) {
	results := make([]*Result, len(m.futures))
	for i, f := range m.futures {
		res, err := f.Get(ctx)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return unpackMapResults(results)
}

// MapFuture is Map returning per-batch futures resolved by the shared
// stream consumer.
func (c *Client) MapFuture(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, items iter.Seq[any], batchSize, batchCount int) (*MapFuture, error) {
	h, err := c.Map(ctx, fnID, epID, items, batchSize, batchCount)
	if err != nil {
		return nil, err
	}
	return c.mapFutureOf(h)
}

// MapAnywhereFuture is MapAnywhere returning per-batch futures.
func (c *Client) MapAnywhereFuture(ctx context.Context, fnID types.FunctionID, gid types.GroupID, items iter.Seq[any], batchSize, batchCount int) (*MapFuture, error) {
	h, err := c.MapAnywhere(ctx, fnID, gid, items, batchSize, batchCount)
	if err != nil {
		return nil, err
	}
	return c.mapFutureOf(h)
}

func (c *Client) mapFutureOf(h *MapHandle) (*MapFuture, error) {
	m := &MapFuture{Handle: h, futures: make([]*Future, len(h.TaskIDs))}
	for i, id := range h.TaskIDs {
		f, err := c.FutureOf(id)
		if err != nil {
			return nil, err
		}
		m.futures[i] = f
	}
	return m, nil
}

// --- the shared stream consumer ---

// streamer is the per-client background consumer resolving futures:
// one framed event subscription for all of the user's completions, with
// automatic reconnect (Last-Event-ID resume), a batched-wait catch-up
// for registration races and replay gaps, and a full batched-wait
// fallback when the server cannot stream.
type streamer struct {
	c *Client
	// base is the shard base URL this consumer is pinned to ("" = the
	// client's front door): its event subscription, batched waits, and
	// fallback polls all target the shard that owns its tasks.
	base   string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	futures map[types.TaskID]*Future
	// verify accumulates ids needing a batched completion check:
	// futures registered for a task the stream is not known to cover
	// (see coveredSince) and everything pending after a replay gap.
	verify map[types.TaskID]bool
	// coveredSince is the instant from which the live subscription is
	// known to carry every terminal event with its result inline: set
	// when GET /v1/events answers 200, moved forward by anything that
	// breaks the promise (a replayed event without its result, a
	// gap), zero while no subscription is live. A task submitted after
	// it resolves from the stream or the stash and needs no verify.
	coveredSince time.Time
	// kick wakes the verifier; fbKick wakes the fallback engine. They
	// are separate single-token channels because both loops run
	// concurrently in fallback mode — a shared channel would let one
	// loop swallow the other's wakeup and strand a future.
	kick   chan struct{}
	fbKick chan struct{}
	// stash holds terminal results that arrived on the stream before
	// their future registered. The server purges a result's store copy
	// once its inline event is delivered on the owner's stream
	// (ack-on-stream), so the event bytes may be the only copy left —
	// dropping them would strand a late-registered future. Bounded
	// FIFO (stashOrder) in count and in bytes of Output (stashBytes),
	// so tasks that never register cannot pin unbounded memory.
	stash      map[types.TaskID]*Result
	stashOrder []types.TaskID
	stashBytes int
	// stopped marks the consumer shut down: late registrations (a
	// SubmitFuture racing Close) resolve with ErrClosed instead of
	// landing in a map nothing drains.
	stopped bool
}

// ensureStreamer lazily starts the consumer for one shard base URL
// ("" or the client's own base URL both mean the front door).
func (c *Client) ensureStreamer(base string) (*streamer, error) {
	if base == c.baseURL {
		base = ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.streamers == nil {
		c.streamers = make(map[string]*streamer)
	}
	if c.streamers[base] == nil {
		//funcx:ignore ctxflow the stream consumer is client-scoped by design: it outlives any single call and is torn down by Client.Close.
		ctx, cancel := context.WithCancel(context.Background())
		st := &streamer{
			c: c, base: base, ctx: ctx, cancel: cancel,
			futures: make(map[types.TaskID]*Future),
			verify:  make(map[types.TaskID]bool),
			stash:   make(map[types.TaskID]*Result),
			kick:    make(chan struct{}, 1),
			fbKick:  make(chan struct{}, 1),
		}
		st.wg.Add(3)
		go st.streamLoop()
		go st.verifyLoop()
		go st.sweepLoop()
		c.streamers[base] = st
	}
	return c.streamers[base], nil
}

// sweepLoop is the resolution safety net: while futures are pending it
// periodically re-enqueues them all for a batched completion check.
// It exists for terminal events this consumer's stream can never
// carry — chiefly futures attached by id (FutureOf / batch ids) whose
// tasks live on another shard, where the front door's scatter-gather
// wait is the only path to the result.
func (st *streamer) sweepLoop() {
	defer st.wg.Done()
	interval := max(st.c.WaitHint, time.Second)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-st.ctx.Done():
			return
		case <-ticker.C:
			st.mu.Lock()
			pending := len(st.futures) > 0
			st.mu.Unlock()
			if pending {
				st.enqueueVerifyAll()
			}
		}
	}
}

func (st *streamer) stop() {
	st.cancel()
	st.wg.Wait()
	st.mu.Lock()
	st.stopped = true
	st.mu.Unlock()
	st.failAll(ErrClosed)
}

// register tracks f until its terminal result arrives. began is when
// the call that submitted the task started; the zero time for a task
// submitted some other way.
func (st *streamer) register(f *Future, began time.Time) {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		f.resolve(nil, ErrClosed)
		return
	}
	// A stashed result means the terminal event already arrived on the
	// stream (and its store copy may be purged): resolve immediately.
	if res, ok := st.unstash(f.id); ok {
		st.mu.Unlock()
		f.resolve(res, nil)
		return
	}
	st.futures[f.id] = f
	// Unless the subscription already covered the whole life of the
	// task, it may have completed unseen (even before the subscription
	// existed): the verifier's batched non-blocking wait resolves it.
	covered := !st.coveredSince.IsZero() && st.coveredSince.Before(began)
	if !covered {
		st.verify[f.id] = true
	}
	st.mu.Unlock()
	if !covered {
		st.wake()
	}
}

// setCovered records that the subscription covers terminal events
// from now on (live), or that there is none.
func (st *streamer) setCovered(live bool) {
	st.mu.Lock()
	st.coveredSince = time.Time{}
	if live {
		st.coveredSince = time.Now()
	}
	st.mu.Unlock()
}

func (st *streamer) wake() {
	select {
	case st.kick <- struct{}{}:
	default:
	}
	select {
	case st.fbKick <- struct{}{}:
	default:
	}
}

// stashCap and stashMaxBytes bound the unmatched-result stash per
// consumer: in results, and in bytes of their outputs. A client whose
// user has busy sibling clients stashes every result of theirs.
const (
	stashCap      = 4096
	stashMaxBytes = 64 << 20
)

// unstash removes and returns id's stashed result. The caller holds
// st.mu.
func (st *streamer) unstash(id types.TaskID) (*Result, bool) {
	res, ok := st.stash[id]
	if ok {
		delete(st.stash, id)
		st.stashBytes -= len(res.Output)
	}
	return res, ok
}

// resolveOrStash routes one terminal result to its registered future,
// stashing results for tasks with no future yet. The stash matters
// since the ack-on-stream purge: delivering an inline result on the
// owner's event stream drops its store copy early, so a future
// registered *after* the event (FutureOf on a batch id, a reconnect
// replay) may find nothing left to wait on — the stashed event bytes
// are its result. The stash is bounded FIFO; evicted tasks fall back
// to the registration-time verify, which still resolves them whenever
// the server retains results (purge disabled or TTL-deferred).
func (st *streamer) resolveOrStash(id types.TaskID, res *Result) {
	st.mu.Lock()
	f, ok := st.futures[id]
	if ok {
		delete(st.futures, id)
		delete(st.verify, id)
	} else if _, dup := st.stash[id]; !dup {
		// Make room, oldest first; an order entry whose id was already
		// taken by a poll or a registration frees nothing but itself.
		for len(st.stashOrder) > 0 && (len(st.stashOrder) >= stashCap || st.stashBytes+len(res.Output) > stashMaxBytes) {
			st.unstash(st.stashOrder[0])
			st.stashOrder = st.stashOrder[1:]
		}
		st.stash[id] = res
		st.stashOrder = append(st.stashOrder, id)
		st.stashBytes += len(res.Output)
	}
	st.mu.Unlock()
	if ok {
		f.resolve(res, nil)
	}
}

// takeStashed removes and returns a result the ack-on-stream purge
// left only in a streamer's stash. The polling paths (TryResult,
// GetResult, WaitTasks) consult it before going to the wire: once a
// client holds an open event stream, terminal results for its user
// ride that stream and their store copies are purged, so a poll that
// ignored the stash would wait on a result the client already has.
func (c *Client) takeStashed(id types.TaskID) (*Result, bool) {
	c.mu.Lock()
	sts := make([]*streamer, 0, len(c.streamers))
	for _, st := range c.streamers {
		sts = append(sts, st)
	}
	c.mu.Unlock()
	for _, st := range sts {
		st.mu.Lock()
		res, ok := st.unstash(id)
		st.mu.Unlock()
		if ok {
			return res, true
		}
	}
	return nil, false
}

// pendingIDs snapshots the unresolved future ids.
func (st *streamer) pendingIDs() []types.TaskID {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]types.TaskID, 0, len(st.futures))
	for id := range st.futures {
		ids = append(ids, id)
	}
	return ids
}

// enqueueVerifyAll schedules a completion check for every pending
// future (after a fresh subscription or a replay gap).
func (st *streamer) enqueueVerifyAll() {
	st.mu.Lock()
	for id := range st.futures {
		st.verify[id] = true
	}
	st.mu.Unlock()
	st.wake()
}

func (st *streamer) failAll(err error) {
	st.mu.Lock()
	futures := st.futures
	st.futures = make(map[types.TaskID]*Future)
	st.verify = make(map[types.TaskID]bool)
	st.mu.Unlock()
	for _, f := range futures {
		f.resolve(nil, err)
	}
}

// streamLoop keeps one event subscription alive, reconnecting with
// Last-Event-ID after drops; when the server has no event stream it
// degrades to the batched-wait engine for the client's lifetime.
func (st *streamer) streamLoop() {
	defer st.wg.Done()
	var lastSeq uint64
	backoff := 100 * time.Millisecond
	for {
		if st.ctx.Err() != nil {
			return
		}
		err := st.streamOnce(&lastSeq)
		switch {
		case st.ctx.Err() != nil:
			return
		case errors.Is(err, ErrUnsupported):
			st.fallbackLoop()
			return
		}
		if err == nil {
			backoff = 100 * time.Millisecond
		} else {
			// Persistent errors (revoked token, server 5xx) must not
			// hammer the service: back off exponentially, capped.
			backoff = min(2*backoff, 5*time.Second)
		}
		select {
		case <-st.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// maxStreamResult bounds the result the consumer takes off the stream;
// a larger one is fetched like a replayed event's (see handleEvent).
const maxStreamResult = 8 << 20

// streamOnce opens one subscription to the framed event stream and
// consumes it until the connection drops. lastSeq carries the resume
// position across calls; it is reset to zero (resubscribe from now +
// reconcile) on a replay gap.
func (st *streamer) streamOnce(lastSeq *uint64) error {
	c := st.c
	base := st.base
	if base == "" {
		base = c.baseURL
	}
	// Completions only: handleEvent has no use for anything else.
	req, err := http.NewRequestWithContext(st.ctx, http.MethodGet, base+"/v1/events?"+api.EventsTerminalParam+"=1", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Accept", api.FrameMediaType)
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastSeq, 10))
	}
	c.Lat.Delay()
	// The stream outlives any request timeout: use a client sharing
	// the transport but without the deadline.
	resp, err := (&http.Client{Transport: c.httpc.Transport}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if ct := resp.Header.Get("Content-Type"); !api.IsFrameType(ct) {
			return fmt.Errorf("%w: GET /v1/events answered %q, not %s", ErrUnsupported, ct, api.FrameMediaType)
		}
	case http.StatusNotFound, http.StatusMethodNotAllowed:
		return fmt.Errorf("%w: GET /v1/events: HTTP %d", ErrUnsupported, resp.StatusCode)
	case http.StatusGone:
		// Replay gap: resume impossible. Resubscribe from now and
		// reconcile completions missed meanwhile via batched wait.
		*lastSeq = 0
		st.enqueueVerifyAll()
		return nil
	default:
		return fmt.Errorf("sdk: GET /v1/events: HTTP %d", resp.StatusCode)
	}

	// Subscribed. Futures registered before this point may have
	// completed before the subscription existed: reconcile them.
	st.setCovered(true)
	defer st.setCovered(false)
	st.enqueueVerifyAll()

	frames := wire.NewEventReader(resp.Body, maxStreamResult)
	for {
		ev, err := frames.Next()
		switch {
		case errors.Is(err, wire.ErrEventGap):
			// The server could not resume us in place and has ended the
			// stream: resubscribe from now, which reconciles everything
			// pending.
			*lastSeq = 0
			return nil
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
		if ev.Seq > 0 {
			*lastSeq = ev.Seq
		}
		st.handleEvent(ev)
	}
}

// handleEvent routes one decoded stream event.
func (st *streamer) handleEvent(ev *types.TaskEvent) {
	if !ev.Terminal() {
		return
	}
	if len(ev.Result) > 0 {
		if r, err := wire.DecodeResult(ev.Result); err == nil {
			st.resolveOrStash(ev.TaskID, resultFromWire(r))
			return
		}
	}
	// A replayed terminal event: the replay ring trims inline result
	// bytes, so fetch the result via batched wait instead. A submit
	// call still in flight may be this task's: the stream no longer
	// covers it.
	st.mu.Lock()
	st.coveredSince = time.Now()
	if _, pending := st.futures[ev.TaskID]; pending {
		st.verify[ev.TaskID] = true
	}
	st.mu.Unlock()
	st.wake()
}

// resultFromWire converts a wire result into the SDK shape, mapping
// remote failures exactly like the REST retrieval path.
func resultFromWire(r *types.Result) *Result {
	res := &Result{
		TaskID:   r.TaskID,
		Output:   r.Output,
		Timing:   r.Timing,
		Memoized: r.Memoized,
	}
	if r.Err != "" {
		res.Err = fmt.Errorf("%w: %w", ErrTaskFailed, serial.DecodeError([]byte(r.Err)))
		if r.Lost {
			res.Err = fmt.Errorf("%w: %w", ErrTaskLost, res.Err)
		}
	}
	return res
}

// verifyLoop services registration catch-ups: it debounces bursts of
// newly registered futures into one batched non-blocking wait, so a
// future whose task completed before the subscription (or during a
// replay gap) still resolves.
func (st *streamer) verifyLoop() {
	defer st.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-st.ctx.Done():
			return
		case <-st.kick:
		}
		// Debounce: let a burst of registrations coalesce.
		select {
		case <-st.ctx.Done():
			return
		case <-time.After(2 * time.Millisecond):
		}
		st.mu.Lock()
		ids := make([]types.TaskID, 0, len(st.verify))
		for id := range st.verify {
			if _, pending := st.futures[id]; pending {
				ids = append(ids, id)
			}
		}
		st.verify = make(map[types.TaskID]bool)
		st.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		done, _, err := st.c.waitTasksAt(st.ctx, st.base, ids, 0)
		// Resolve partial results before the error: their server-side
		// copies are already purged.
		for _, res := range done {
			st.resolveOrStash(res.TaskID, res)
		}
		if err != nil {
			// Retry the whole set on the next kick, backing off while
			// the error persists (it may be permanent: revoked token,
			// server fault).
			st.mu.Lock()
			for _, id := range ids {
				st.verify[id] = true
			}
			st.mu.Unlock()
			select {
			case <-st.ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, 5*time.Second)
			st.wake()
			continue
		}
		backoff = 50 * time.Millisecond
		// Ids still pending resolve through the stream (or the
		// fallback engine) when their terminal event lands.
	}
}

// fallbackLoop is the engine for servers without a framed event
// stream: pending futures are resolved by repeated batched waits, one
// blocking request per round for the whole set.
func (st *streamer) fallbackLoop() {
	backoff := st.c.PollInterval
	for {
		ids := st.pendingIDs()
		if len(ids) == 0 {
			select {
			case <-st.ctx.Done():
				return
			case <-st.fbKick:
				continue
			}
		}
		done, _, err := st.c.waitTasksAt(st.ctx, st.base, ids, st.c.WaitHint)
		// Resolve partial results before the error: their server-side
		// copies are already purged.
		for _, res := range done {
			st.resolveOrStash(res.TaskID, res)
		}
		if err != nil {
			select {
			case <-st.ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff = min(max(2*backoff, 10*time.Millisecond), 5*time.Second)
			continue
		}
		backoff = st.c.PollInterval
		if len(done) == 0 {
			// Nothing completed this round (e.g. WaitHint 0 means the
			// server cannot block): pace the retry like GetResults.
			select {
			case <-st.ctx.Done():
				return
			case <-time.After(st.c.PollInterval):
			}
		}
	}
}
