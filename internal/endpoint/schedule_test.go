package endpoint

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// fakeConn stands in for a manager link in the scheduler's own tests: it
// keeps what it is sent, or refuses it.
type fakeConn struct {
	fail bool // Send errors
	drop bool // Send succeeds and keeps nothing (the benchmark)

	mu   sync.Mutex
	sent []transport.Message
}

func (c *fakeConn) Send(m transport.Message) error {
	if c.fail {
		return errors.New("fakeConn: link down")
	}
	if !c.drop {
		c.mu.Lock()
		c.sent = append(c.sent, m)
		c.mu.Unlock()
	}
	return nil
}
func (c *fakeConn) Recv(time.Duration) (transport.Message, error) {
	return transport.Message{}, transport.ErrClosed
}
func (c *fakeConn) RemoteIdentity() string { return "fake" }
func (c *fakeConn) Close() error           { return nil }

// taskIDs decodes what a fake link was sent, one slice per frame.
func (c *fakeConn) taskIDs(t *testing.T) [][]types.TaskID {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var frames [][]types.TaskID
	for _, m := range c.sent {
		frames = append(frames, frameTaskIDs(t, m))
	}
	return frames
}

// frameTaskIDs lists the tasks of one MsgTask or MsgTaskBatch.
func frameTaskIDs(t *testing.T, m transport.Message) []types.TaskID {
	t.Helper()
	var ts []*types.Task
	var err error
	switch m.Type {
	case transport.MsgTask:
		var one *types.Task
		one, err = wire.DecodeTask(m.Payload)
		ts = []*types.Task{one}
	case transport.MsgTaskBatch:
		ts, err = wire.DecodeTasks(m.Payload)
	default:
		t.Fatalf("a manager was sent a %s frame", m.Type)
	}
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]types.TaskID, len(ts))
	for i, task := range ts {
		ids[i] = task.ID
	}
	return ids
}

// register adds a manager as manageConn would and advertises budget
// for it. The tests that use it work on an agent that was never
// started: no goroutine runs, so they call schedule themselves and see
// each pass whole.
func (a *Agent) register(id types.ManagerID, conn transport.Conn, budget int) *managerState {
	st := &managerState{id: id, conn: conn, lastSeen: time.Now(), outstanding: make(map[types.TaskID]wire.TaskView)}
	a.mu.Lock()
	a.order = append(a.order, st)
	a.managers[id] = st
	a.mu.Unlock()
	a.advertise(st, budget)
	return st
}

// advertise is the MsgCapacity arm of manageConn, less the kick.
func (a *Agent) advertise(st *managerState, budget int) {
	a.mu.Lock()
	st.capacity = &types.Capacity{ManagerID: st.id, Slots: budget, Total: budget}
	st.budget = budget
	st.awaitingAdvert = false
	a.starved = false
	a.mu.Unlock()
}

func views(ids ...types.TaskID) []wire.TaskView {
	vs := make([]wire.TaskView, len(ids))
	for i, id := range ids {
		t := &types.Task{ID: id, Attempt: 1}
		vs[i] = wire.TaskView{Head: t, Raw: wire.EncodeTask(t)}
	}
	return vs
}

func seqIDs(from, to int) []types.TaskID {
	var ids []types.TaskID
	for i := from; i < to; i++ {
		ids = append(ids, types.TaskID(fmt.Sprintf("t%05d", i)))
	}
	return ids
}

// dialFakeManager registers a manager that is the test's end of a real
// link: the test sends its advertisements and reads what it is sent.
func dialFakeManager(t *testing.T, a *Agent, id types.ManagerID) transport.Conn {
	t.Helper()
	network, addr := a.ManagerAddr()
	conn, err := transport.Dial(network, addr, string(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	mustSend(t, conn, transport.MsgRegister, wire.EncodeRegistration(&wire.Registration{ManagerID: id}))
	return conn
}

// keepAlive heartbeats on a fake manager's link, so that the watchdog
// leaves it alone until the returned function is called.
func keepAlive(conn transport.Conn) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				conn.Send(transport.Message{Type: transport.MsgHeartbeat}) //nolint:errcheck
			}
		}
	}()
	return func() { close(done); <-stopped }
}

func mustSend(t *testing.T, conn transport.Conn, typ transport.MsgType, payload []byte) {
	t.Helper()
	if err := conn.Send(transport.Message{Type: typ, Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls for a state the agent reaches on its own goroutines.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// counters reads the scheduler's test-only counters.
func (a *Agent) counters() (passes, evals int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.passes, a.evals
}

// "First" and the rotation order are the managers' registration order,
// not a map's: first-fit fills the first-registered manager until its
// budget is spent, round-robin alternates while both have budget, and
// without BatchDispatch each manager gets one task per advertisement.
func TestSchedulingOrderIsRegistrationOrder(t *testing.T) {
	ids := seqIDs(0, 6)
	for _, tc := range []struct {
		name         string
		cfg          Config
		first, later [][]types.TaskID // what each manager is sent, frame by frame
		queued       int
	}{
		{"first-fit", Config{Policy: ScheduleFirstFit, BatchDispatch: true},
			[][]types.TaskID{ids[0:3]}, [][]types.TaskID{ids[3:6]}, 0},
		{"round-robin", Config{Policy: ScheduleRoundRobin, BatchDispatch: true},
			[][]types.TaskID{{ids[1], ids[3], ids[5]}}, [][]types.TaskID{{ids[0], ids[2], ids[4]}}, 0},
		{"first-fit unbatched", Config{Policy: ScheduleFirstFit},
			[][]types.TaskID{ids[0:1]}, [][]types.TaskID{ids[1:2]}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for range 20 { // a map's order would differ between runs
				a := New(tc.cfg)
				first, later := &fakeConn{}, &fakeConn{}
				a.register("m-first", first, 3)
				a.register("m-later", later, 3)
				a.enqueue(views(ids...)...)
				a.schedule()
				if got := first.taskIDs(t); !slices.EqualFunc(got, tc.first, slices.Equal) {
					t.Fatalf("first-registered manager got %v, want %v", got, tc.first)
				}
				if got := later.taskIDs(t); !slices.EqualFunc(got, tc.later, slices.Equal) {
					t.Fatalf("later-registered manager got %v, want %v", got, tc.later)
				}
				if a.QueueDepth() != tc.queued {
					t.Fatalf("%d tasks left queued, want %d", a.QueueDepth(), tc.queued)
				}
				if got := a.ManagerIDs(); !slices.Equal(got, []types.ManagerID{"m-first", "m-later"}) {
					t.Fatalf("ManagerIDs = %v", got)
				}
			}
		})
	}
}

// A manager whose link refuses a frame keeps none of it: the tasks go
// back to the head of the queue in their order, ahead of what arrived
// meanwhile, the books (outstanding, inflight) match, and the manager is
// offered nothing more until it advertises again.
func TestSendFailureRequeuesAtHead(t *testing.T) {
	a := New(Config{Policy: ScheduleFirstFit, BatchDispatch: true})
	bad, good := &fakeConn{fail: true}, &fakeConn{}
	badSt := a.register("m-bad", bad, 3)
	goodSt := a.register("m-good", good, 2)
	ids := seqIDs(0, 6)
	a.enqueue(views(ids[:5]...)...)
	a.schedule() // t0..t2 to the bad link, t3 t4 to the good one

	if got := good.taskIDs(t); !slices.EqualFunc(got, [][]types.TaskID{ids[3:5]}, slices.Equal) {
		t.Fatalf("good manager got %v", got)
	}
	a.mu.Lock()
	badLeft, goodLeft, inflight, budget := len(badSt.outstanding), len(goodSt.outstanding), len(a.inflight), badSt.budget
	a.mu.Unlock()
	if badLeft != 0 || goodLeft != 2 || inflight != 5 || budget != 0 || a.QueueDepth() != 3 {
		t.Fatalf("after the failed send: %d outstanding at the failed manager, %d at the good one, %d inflight, budget %d, %d queued",
			badLeft, goodLeft, inflight, budget, a.QueueDepth())
	}

	a.enqueue(views(ids[5])...) // arrives after the failure
	a.advertise(goodSt, 4)
	a.schedule()
	want := [][]types.TaskID{ids[3:5], {ids[0], ids[1], ids[2], ids[5]}}
	if got := good.taskIDs(t); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("good manager got %v, want %v", got, want)
	}
	if a.OutstandingAt("m-good") != 6 || a.OutstandingAt("m-bad") != 0 || a.QueueDepth() != 0 {
		t.Fatalf("%d outstanding at the good manager, %d at the failed one, %d queued",
			a.OutstandingAt("m-good"), a.OutstandingAt("m-bad"), a.QueueDepth())
	}
}

// What a pass costs depends on what it dispatches, not on what is
// queued: behind a manager with no budget 20 000 tasks cost a bounded
// number of manager evaluations per arriving frame, and each
// advertisement of budget b costs O(b + managers), with the tasks
// leaving in arrival order and the depth reported truthfully.
func TestScheduleCostIndependentOfQueueDepth(t *testing.T) {
	const (
		depth    = 20000
		perFrame = 250
		frames   = depth / perFrame
		managers = 1
		budget   = 8
		c        = 2
	)
	for _, batched := range []bool{true, false} {
		t.Run(fmt.Sprintf("BatchDispatch=%v", batched), func(t *testing.T) {
			ff := newFakeForwarder(t)
			a, _, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: batched, HeartbeatPeriod: time.Minute}, 0, 0)
			mgr := dialFakeManager(t, a, "mgr-fake")
			advertise := func(slots int) {
				t.Helper()
				mustSend(t, mgr, transport.MsgCapacity, wire.EncodeCapacity(&types.Capacity{ManagerID: "mgr-fake", Slots: slots, Total: budget}))
			}
			advertise(0)
			waitFor(t, "the zero-budget advertisement", func() bool { return a.Status().Workers == budget })

			// (a) a deep queue behind a manager that can take nothing.
			ids := seqIDs(0, depth)
			for f := 0; f < frames; f++ {
				var tasks []*types.Task
				for _, id := range ids[f*perFrame : (f+1)*perFrame] {
					tasks = append(tasks, &types.Task{ID: id, Attempt: 1})
				}
				mustSend(t, ff.conn, transport.MsgTaskBatch, wire.EncodeTasks(tasks))
			}
			waitFor(t, "the queue to fill", func() bool { return a.QueueDepth() == depth })
			passes, evals := a.counters()
			if passes > frames || evals > c*(frames+managers) {
				t.Fatalf("queueing %d frames behind a manager without budget: %d passes, %d manager evaluations", frames, passes, evals)
			}

			// (b), (c) each advertisement costs what it dispatches.
			perAdvert := budget
			if !batched {
				perAdvert = 1
			}
			next := 0
			for round := 0; round < 5; round++ {
				_, before := a.counters()
				advertise(budget)
				for got := 0; got < perAdvert; {
					msg, err := mgr.Recv(5 * time.Second)
					if err != nil {
						t.Fatalf("round %d: %v after %d of %d tasks", round, err, got, perAdvert)
					}
					for _, id := range frameTaskIDs(t, msg) {
						if id != ids[next] {
							t.Fatalf("round %d: manager received %s, want %s (arrival order)", round, id, ids[next])
						}
						next++
						got++
					}
				}
				// The manager holds its frame, so the pass that sent it
				// has done its counting.
				_, after := a.counters()
				if after-before > c*(int64(perAdvert)+managers) {
					t.Fatalf("round %d: %d manager evaluations to dispatch %d tasks with %d queued", round, after-before, perAdvert, depth-next)
				}
				if d, q := a.QueueDepth(), a.Status().QueuedTasks; d != depth-next || q != depth-next {
					t.Fatalf("round %d: QueueDepth %d, Status().QueuedTasks %d, want %d", round, d, q, depth-next)
				}
			}
			if a.OutstandingAt("mgr-fake") != next {
				t.Fatalf("%d outstanding at the manager, %d sent", a.OutstandingAt("mgr-fake"), next)
			}
		})
	}
}

// BenchmarkAgentScheduleDeepQueue times the scheduling pass that one
// capacity advertisement of 4 triggers, with 16, 512 and 8 192 tasks
// queued: ns/task is per dispatched task and should read the same at
// every depth.
func BenchmarkAgentScheduleDeepQueue(b *testing.B) {
	const budget = 4
	for _, depth := range []int{16, 512, 8192} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			a := New(Config{BatchDispatch: true})
			st := a.register("m-1", &fakeConn{drop: true}, budget)
			refill := views(seqIDs(0, budget)...)
			a.enqueue(views(seqIDs(budget, budget+depth)...)...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.schedule()
				// Put back what left and the budget it used, so that every
				// pass sees the same depth.
				a.mu.Lock()
				clear(st.outstanding)
				for _, v := range refill {
					a.queue.PushBack(v)
				}
				st.budget, a.starved = budget, false
				a.mu.Unlock()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*budget), "ns/task")
			if a.QueueDepth() != depth {
				b.Fatalf("queue depth %d after the run, want %d", a.QueueDepth(), depth)
			}
		})
	}
}
