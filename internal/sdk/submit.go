package sdk

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"funcx/internal/api"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// Submission is a group commit per target, the shape internal/wal has
// for appends: a caller that finds no submit request in flight for its
// endpoint or group sends its own at once; callers that arrive while
// one is in flight queue behind it, and when it returns the first of
// them sends everything queued as one batch frame and each caller is
// handed its own outcome. Nothing waits on a timer, so a lone caller
// pays nothing, and a batch is whatever gathered during one round trip.
// A queue has one request in flight at a time, so one the server is
// slow to answer holds up the submissions queued behind it.

// submitBatchTasks and submitBatchBytes close a batch: at most so many
// submissions (what the service takes in one batch frame) and, past the
// first, so many bytes of their frames share a request. The frames are
// copied once more into the one body and every caller waits for all of
// it, so the bound is low: tasks small enough to gain by sharing fit in
// their hundreds, and two of 64 KiB go one by one.
const (
	submitBatchTasks = 10000
	submitBatchBytes = 64 << 10
)

// submitTarget keys a queue: what two submissions must share for the
// service to take them in one batch frame.
type submitTarget struct {
	endpoint types.EndpointID
	group    types.GroupID
}

// submitQueue is the submissions of one target. The Client's submitMu
// guards it and every waiter in it.
type submitQueue struct {
	// sending is set while a request for this target is in flight or a
	// waiter has been woken to send the next.
	sending bool
	// waiters are the callers queued behind it, oldest first. Only the
	// first can be waiterLeading.
	waiters []*submitWaiter
	// cancel ends the shared request in flight, if there is one.
	cancel context.CancelFunc
}

// submitWaiter is one queued caller. Waiters are pooled, each with its
// wake channel, so queueing allocates nothing in the steady state.
type submitWaiter struct {
	// frame is the caller's submission, encoded before it queued: what
	// is sent is never memory of a caller that has left with ctx.Err().
	frame []byte
	// wake carries a token when state leaves waiterQueued for
	// waiterLeading and when it reaches waiterDone.
	wake  chan struct{}
	state waiterState
	resp  api.SubmitResponse
	err   error
}

type waiterState int

const (
	// waiterQueued: in its queue, where its caller may still withdraw it.
	waiterQueued waiterState = iota
	// waiterLeading: still in its queue, and woken to send the next
	// request: itself and as many behind it as a batch takes.
	waiterLeading
	// waiterSent: in the shared request in flight.
	waiterSent
	// waiterAbandoned: sent, and its caller has left with ctx.Err(); the
	// request recycles it.
	waiterAbandoned
	// waiterDone: resp and err are set.
	waiterDone
)

var waiterPool = sync.Pool{New: func() any { return &submitWaiter{wake: make(chan struct{}, 1)} }}

// recycle returns w, which no queue or request holds any more, to the
// pool, without the token its caller may have left unread.
func recycle(w *submitWaiter) {
	select {
	case <-w.wake:
	default:
	}
	*w = submitWaiter{wake: w.wake}
	waiterPool.Put(w)
}

// wakeWith sets w's state and sends the token that says so. The token
// of an earlier state may still be unread, and then serves for both.
func (w *submitWaiter) wakeWith(state waiterState) {
	w.state = state
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Counters are a client's own counts of the submissions it has put on
// the wire as frames: all but the dependent ones and RunBatch's.
type Counters struct {
	// SubmitRequests is the POST /v1/tasks requests sent, answered or
	// not, SubmitTasks the submissions they carried, and LargestSubmit
	// the most that one of them did.
	SubmitRequests int64
	SubmitTasks    int64
	LargestSubmit  int
}

// Counters returns the client's counts so far.
func (c *Client) Counters() Counters {
	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	return c.counters
}

// countSubmit counts one request of n submissions. The caller holds
// submitMu.
func (c *Client) countSubmit(n int) {
	c.counters.SubmitRequests++
	c.counters.SubmitTasks += int64(n)
	c.counters.LargestSubmit = max(c.counters.LargestSubmit, n)
}

// handOff wakes the oldest waiter to send the next request, or marks
// the queue idle. The caller holds submitMu, and its own request has
// been answered or was never sent.
func (q *submitQueue) handOff() {
	if len(q.waiters) == 0 {
		q.sending = false
		return
	}
	q.waiters[0].wakeWith(waiterLeading)
}

// batchLen is how many waiters, from the oldest, the next request
// carries.
func (q *submitQueue) batchLen() int {
	n, size := 1, len(q.waiters[0].frame)
	for n < len(q.waiters) && n < submitBatchTasks && size+len(q.waiters[n].frame) <= submitBatchBytes {
		size += len(q.waiters[n].frame)
		n++
	}
	return n
}

// drop removes the n oldest waiters from the queue.
func (q *submitQueue) drop(n int) {
	rest := copy(q.waiters, q.waiters[n:])
	clear(q.waiters[rest:])
	q.waiters = q.waiters[:rest]
}

// submitFrame submits req through its target's queue.
func (c *Client) submitFrame(ctx context.Context, req *api.SubmitRequest) (api.SubmitResponse, error) {
	frame := api.EncodeSubmitFrame(req)
	target := submitTarget{endpoint: req.EndpointID, group: req.GroupID}
	c.submitMu.Lock()
	q := c.submits[target]
	if q == nil {
		if c.submits == nil {
			c.submits = make(map[submitTarget]*submitQueue)
		}
		q = new(submitQueue)
		c.submits[target] = q
	}
	if !q.sending {
		q.sending = true
		c.submitMu.Unlock()
		return c.sendAlone(ctx, q, frame)
	}
	w := waiterPool.Get().(*submitWaiter)
	w.frame = frame
	q.waiters = append(q.waiters, w)
	c.submitMu.Unlock()

	for {
		select {
		case <-w.wake:
		case <-ctx.Done():
		}
		c.submitMu.Lock()
		if w.state == waiterDone {
			resp, err := w.resp, w.err
			c.submitMu.Unlock()
			recycle(w)
			return resp, err
		}
		if gone := ctx.Err(); gone != nil {
			if w.state == waiterSent {
				// The task may be placed all the same; its result then waits
				// in the stash, as after a request cancelled in flight. The
				// request recycles w.
				w.state = waiterAbandoned
				c.submitMu.Unlock()
				return api.SubmitResponse{}, gone
			}
			leading := w.state == waiterLeading
			q.waiters = slices.DeleteFunc(q.waiters, func(o *submitWaiter) bool { return o == w })
			if leading {
				q.handOff() // nothing was sent: the caller behind sends
			}
			c.submitMu.Unlock()
			recycle(w)
			return api.SubmitResponse{}, gone
		}
		if w.state == waiterLeading {
			n := q.batchLen()
			if n == 1 {
				q.drop(1)
				c.submitMu.Unlock()
				recycle(w)
				return c.sendAlone(ctx, q, frame)
			}
			batch := slices.Clone(q.waiters[:n])
			q.drop(n)
			for _, o := range batch {
				o.state = waiterSent
			}
			// The request is every caller's in it and so no one caller's
			// to cancel, this one included: from here on it waits for its
			// outcome as the others do, and only Close ends the request.
			shared, cancel := context.WithCancel(context.WithoutCancel(ctx))
			q.cancel = cancel
			go c.sendShared(shared, q, batch)
		}
		c.submitMu.Unlock()
	}
}

// sendAlone posts one submission frame as q's request in flight, the
// request a submission has always been, under its caller's ctx.
func (c *Client) sendAlone(ctx context.Context, q *submitQueue, frame []byte) (api.SubmitResponse, error) {
	var resp api.SubmitResponse
	_, err := c.send(ctx, http.MethodPost, "", "/v1/tasks", api.FrameMediaType, frame, &resp)
	c.submitMu.Lock()
	c.countSubmit(1)
	q.handOff()
	c.submitMu.Unlock()
	return resp, err
}

// sendShared posts the submissions of batch as one batch frame, q's
// request in flight, and gives each waiter its outcome. It has a
// goroutine of its own so that every caller in the batch, the one that
// started it included, is free to leave when its ctx ends.
func (c *Client) sendShared(ctx context.Context, q *submitQueue, batch []*submitWaiter) {
	frames := make([][]byte, len(batch))
	for i, w := range batch {
		frames[i] = w.frame
	}
	var out api.SubmitBatchResponse
	_, err := c.send(ctx, http.MethodPost, "", "/v1/tasks", api.FrameMediaType, wire.JoinTasks(frames), &out)
	switch {
	case err != nil && ctx.Err() != nil:
		err = ErrClosed
	case err == nil && len(out.Outcomes) != len(batch):
		err = fmt.Errorf("sdk: POST /v1/tasks: %d outcomes for %d submissions", len(out.Outcomes), len(batch))
	}

	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	q.cancel()
	q.cancel = nil
	for i, w := range batch {
		switch {
		case w.state == waiterAbandoned:
			recycle(w)
			continue
		case err != nil:
			w.err = err
		case out.Outcomes[i].Status != 0:
			w.err = apiError(http.MethodPost, "/v1/tasks", out.Outcomes[i].Status, out.Outcomes[i].Error)
		default:
			w.resp = out.Outcomes[i].SubmitResponse
		}
		w.wakeWith(waiterDone)
	}
	c.countSubmit(len(batch))
	q.handOff()
}

// closeSubmits fails every queued submission with ErrClosed and ends
// the shared requests in flight.
func (c *Client) closeSubmits() {
	c.submitMu.Lock()
	defer c.submitMu.Unlock()
	for _, q := range c.submits {
		if len(q.waiters) > 0 && q.waiters[0].state == waiterLeading {
			q.sending = false // woken to send, it now will not
		}
		for _, w := range q.waiters {
			w.err = ErrClosed
			w.wakeWith(waiterDone)
		}
		clear(q.waiters)
		q.waiters = q.waiters[:0]
		if q.cancel != nil {
			q.cancel()
		}
	}
}
