package endpoint

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"funcx/internal/container"
	"funcx/internal/fx"
	"funcx/internal/manager"
	"funcx/internal/serial"
	"funcx/internal/testlog"
	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// fakeForwarder accepts agent registrations and relays messages.
type fakeForwarder struct {
	ln   transport.Listener
	conn transport.Conn
	msgs chan transport.Message
	// accepted signals each successful registration.
	accepted chan struct{}
}

func newFakeForwarder(t *testing.T) *fakeForwarder {
	t.Helper()
	ln, err := transport.Listen("inproc", "")
	if err != nil {
		t.Fatal(err)
	}
	ff := &fakeForwarder{ln: ln, msgs: make(chan transport.Message, 1024), accepted: make(chan struct{}, 8)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn transport.Conn) {
				msg, err := conn.Recv(2 * time.Second)
				if err != nil || msg.Type != transport.MsgRegister {
					conn.Close()
					return
				}
				if err := conn.Send(transport.Message{Type: transport.MsgRegisterAck}); err != nil {
					return
				}
				ff.conn = conn
				ff.accepted <- struct{}{}
				for {
					m, err := conn.Recv(0)
					if err != nil {
						return
					}
					ff.msgs <- m
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ff
}

func (ff *fakeForwarder) waitResult(t *testing.T, timeout time.Duration) *types.Result {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case msg := <-ff.msgs:
			if msg.Type != transport.MsgResult {
				continue
			}
			res, err := wire.DecodeResult(msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return res
		case <-deadline:
			t.Fatal("no result within timeout")
		}
	}
}

// newAgentWithManagers boots an agent plus n real managers.
func newAgentWithManagers(t *testing.T, ff *fakeForwarder, cfg Config, n, workers int) (*Agent, []*manager.Manager, *fx.Runtime) {
	t.Helper()
	cfg.ID = "ep-1"
	cfg.ServiceNetwork = "inproc"
	cfg.ServiceAddr = ff.ln.Addr()
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 40 * time.Millisecond
	}
	a := New(cfg)
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	<-ff.accepted

	rt := fx.NewRuntime()
	rt.SleepScale = 0.001
	rt.RegisterBuiltins()
	network, addr := a.ManagerAddr()
	var mgrs []*manager.Manager
	for i := 0; i < n; i++ {
		m := manager.New(manager.Config{
			AgentNetwork: network, AgentAddr: addr,
			MaxWorkers: workers, HeartbeatPeriod: 40 * time.Millisecond,
			Runtime:    rt,
			Containers: container.NewRuntime(container.Config{System: "ec2", TimeScale: 0}),
		})
		if err := m.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		mgrs = append(mgrs, m)
	}
	// Wait for manager registration.
	deadline := time.Now().Add(2 * time.Second)
	for a.ManagerCount() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if a.ManagerCount() < n {
		t.Fatalf("only %d of %d managers registered", a.ManagerCount(), n)
	}
	return a, mgrs, rt
}

func sendTask(t *testing.T, ff *fakeForwarder, id types.TaskID, bodyHash string, payload []byte) {
	t.Helper()
	task := &types.Task{ID: id, BodyHash: bodyHash, Payload: payload, Attempt: 1} // as the service stamps it
	if err := ff.conn.Send(transport.Message{Type: transport.MsgTask, Payload: wire.EncodeTask(task)}); err != nil {
		t.Fatal(err)
	}
}

func TestAgentEndToEnd(t *testing.T) {
	ff := newFakeForwarder(t)
	a, _, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true}, 2, 2)
	payload, _ := serial.Serialize("hi")
	sendTask(t, ff, "t1", fx.HashBody(fx.BodyEcho), payload)
	res := ff.waitResult(t, 5*time.Second)
	if res.TaskID != "t1" || res.Failed() {
		t.Fatalf("result = %+v", res)
	}
	if res.Timing.TE < 0 {
		t.Fatalf("TE = %v", res.Timing.TE)
	}
	rcv, cmp, _ := a.Stats()
	if rcv != 1 || cmp != 1 {
		t.Fatalf("stats = %d received, %d completed", rcv, cmp)
	}
}

func TestAgentSpreadsLoadAcrossManagers(t *testing.T) {
	ff := newFakeForwarder(t)
	_, mgrs, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true, Seed: 3}, 3, 2)
	payload, _ := serial.Serialize("x")
	const n = 60
	for i := 0; i < n; i++ {
		sendTask(t, ff, types.TaskID(string(rune('A'+i%26))+string(rune('a'+i/26))), fx.HashBody(fx.BodyEcho), payload)
	}
	seen := 0
	deadline := time.After(10 * time.Second)
	for seen < n {
		select {
		case msg := <-ff.msgs:
			if msg.Type == transport.MsgResult {
				seen++
			}
		case <-deadline:
			t.Fatalf("only %d of %d results", seen, n)
		}
	}
	// Randomized scheduling should have touched every manager.
	for i, m := range mgrs {
		if m.Completed() == 0 {
			t.Fatalf("manager %d received no work (randomized spread)", i)
		}
	}
}

func TestWatchdogReexecutesLostTasks(t *testing.T) {
	ff := newFakeForwarder(t)
	a, mgrs, _ := newAgentWithManagers(t, ff,
		Config{BatchDispatch: true, HeartbeatPeriod: 40 * time.Millisecond, HeartbeatMisses: 2}, 2, 2)

	// A long task lands somewhere; kill both managers' ability to
	// finish by killing the one holding it. Simpler: send tasks that
	// sleep long, kill manager 0, and expect re-execution after the
	// replacement picks them up.
	payload := fx.SleepArgs(200) // 200ms scaled (SleepScale 0.001 in manager runtime)
	for i := 0; i < 4; i++ {
		sendTask(t, ff, types.TaskID([]byte{byte('a' + i)}), fx.HashBody(fx.BodySleep), payload)
	}
	time.Sleep(30 * time.Millisecond)
	mgrs[0].Kill()

	// All four tasks must still complete (via manager 1 after the
	// watchdog requeues).
	done := map[types.TaskID]bool{}
	deadline := time.After(15 * time.Second)
	for len(done) < 4 {
		select {
		case msg := <-ff.msgs:
			if msg.Type != transport.MsgResult {
				continue
			}
			res, _ := wire.DecodeResult(msg.Payload)
			if !res.Failed() {
				done[res.TaskID] = true
			}
		case <-deadline:
			t.Fatalf("only %d of 4 tasks completed after manager kill", len(done))
		}
	}
	_, _, requeued := a.Stats()
	if requeued == 0 {
		t.Log("note: kill raced completion; no tasks needed re-execution")
	}
	deadline2 := time.Now().Add(3 * time.Second)
	for a.ManagerCount() != 1 && time.Now().Before(deadline2) {
		time.Sleep(20 * time.Millisecond)
	}
	if a.ManagerCount() != 1 {
		t.Fatalf("dead manager still registered: %d", a.ManagerCount())
	}
}

// What the watchdog recovers from a lost manager goes to the head of the
// queue: the next manager with room receives the recovered tasks, on
// their second attempt, ahead of tasks that arrived after them and never
// left the queue.
func TestWatchdogRequeuesLostTasksAtHead(t *testing.T) {
	ff := newFakeForwarder(t)
	a, _, _ := newAgentWithManagers(t, ff,
		Config{BatchDispatch: true, HeartbeatPeriod: 40 * time.Millisecond, HeartbeatMisses: 2}, 0, 0)
	advertise := func(conn transport.Conn, id types.ManagerID, slots int) {
		t.Helper()
		mustSend(t, conn, transport.MsgCapacity, wire.EncodeCapacity(&types.Capacity{ManagerID: id, Slots: slots, Total: 4}))
	}
	doomed := dialFakeManager(t, a, "mgr-doomed")
	silence := keepAlive(doomed)
	advertise(doomed, "mgr-doomed", 2)
	waitFor(t, "the doomed manager's advertisement", func() bool { return a.Status().IdleWorkers == 2 })
	for _, id := range []types.TaskID{"old-1", "old-2"} {
		sendTask(t, ff, id, fx.HashBody(fx.BodyEcho), nil)
	}
	waitFor(t, "the doomed manager to be sent both tasks", func() bool { return a.OutstandingAt("mgr-doomed") == 2 })
	for _, id := range []types.TaskID{"new-1", "new-2"} {
		sendTask(t, ff, id, fx.HashBody(fx.BodyEcho), nil)
	}
	waitFor(t, "the later arrivals to queue", func() bool { return a.QueueDepth() == 2 })

	silence()
	waitFor(t, "the watchdog to drop the silent manager", func() bool { return a.ManagerCount() == 0 })
	if _, _, requeued := a.Stats(); requeued != 2 || a.QueueDepth() != 4 {
		t.Fatalf("%d requeued, %d queued; want 2 and 4", requeued, a.QueueDepth())
	}

	heir := dialFakeManager(t, a, "mgr-heir")
	defer keepAlive(heir)()
	advertise(heir, "mgr-heir", 4)
	var got []*types.Task
	for len(got) < 4 {
		msg, err := heir.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("%v after %d of 4 tasks", err, len(got))
		}
		ts := []*types.Task{nil}
		if msg.Type == transport.MsgTaskBatch {
			ts, err = wire.DecodeTasks(msg.Payload)
		} else {
			ts[0], err = wire.DecodeTask(msg.Payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ts...)
	}
	// The two recovered tasks come out of a map, in either order.
	recovered := map[types.TaskID]bool{got[0].ID: true, got[1].ID: true}
	if !recovered["old-1"] || !recovered["old-2"] || got[0].Attempt != 2 || got[1].Attempt != 2 ||
		got[2].ID != "new-1" || got[3].ID != "new-2" || got[2].Attempt != 1 {
		t.Fatalf("the heir received %v, want old-1 and old-2 on attempt 2, then new-1, new-2", got)
	}
	if n, st := a.OutstandingAt("mgr-heir"), a.Status(); n != 4 || st.OutstandingTasks != 4 || st.QueuedTasks != 0 {
		t.Fatalf("%d outstanding at the heir, status %+v", n, st)
	}
}

func TestDisconnectReconnect(t *testing.T) {
	ff := newFakeForwarder(t)
	a, _, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true}, 1, 2)
	if !a.Connected() {
		t.Fatal("agent not connected after start")
	}
	a.Disconnect()
	if a.Connected() {
		t.Fatal("agent connected after Disconnect")
	}
	if err := a.Reconnect(); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	<-ff.accepted
	if !a.Connected() {
		t.Fatal("agent not connected after Reconnect")
	}
	// Work still flows.
	payload, _ := serial.Serialize("back")
	sendTask(t, ff, "t9", fx.HashBody(fx.BodyEcho), payload)
	res := ff.waitResult(t, 5*time.Second)
	if res.TaskID != "t9" || res.Failed() {
		t.Fatalf("post-reconnect result = %+v", res)
	}
}

func TestStatusReporting(t *testing.T) {
	ff := newFakeForwarder(t)
	a, _, _ := newAgentWithManagers(t, ff, Config{}, 2, 3)
	st := a.Status()
	if st.ID != "ep-1" || !st.Connected || st.Managers != 2 {
		t.Fatalf("status = %+v", st)
	}
	// Worker counts arrive with each manager's first capacity
	// advertisement; poll until both have reported.
	pollDeadline := time.Now().Add(3 * time.Second)
	for a.Status().Workers != 6 && time.Now().Before(pollDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st = a.Status(); st.Workers != 6 {
		t.Fatalf("workers = %d, want 6", st.Workers)
	}
	// Status messages reach the forwarder via heartbeats.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case msg := <-ff.msgs:
			if msg.Type == transport.MsgStatus {
				got, err := wire.DecodeStatus(msg.Payload)
				if err != nil || got.Managers != 2 {
					t.Fatalf("status msg = %+v, %v", got, err)
				}
				return
			}
		case <-deadline:
			t.Fatal("no status report")
		}
	}
}

// A batch frame from the forwarder is queued and scheduled as one: six
// tasks onto a manager with room for all of them cost one scheduling
// pass, and the advertisements that follow find nothing queued and cost
// none.
func TestTaskBatchFromForwarder(t *testing.T) {
	ff := newFakeForwarder(t)
	a, _, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true}, 1, 8)
	waitFor(t, "the manager's first advertisement", func() bool { return a.Status().IdleWorkers == 8 })
	before, _ := a.counters()
	payload, _ := serial.Serialize("x")
	var tasks []*types.Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, &types.Task{
			ID: types.TaskID([]byte{byte('0' + i)}), BodyHash: fx.HashBody(fx.BodyEcho), Payload: payload,
		})
	}
	ff.conn.Send(transport.Message{Type: transport.MsgTaskBatch, Payload: wire.EncodeTasks(tasks)}) //nolint:errcheck
	seen := 0
	deadline := time.After(10 * time.Second)
	for seen < 6 {
		select {
		case msg := <-ff.msgs:
			if msg.Type == transport.MsgResult {
				seen++
			}
		case <-deadline:
			t.Fatalf("only %d of 6 batch tasks completed", seen)
		}
	}
	if after, _ := a.counters(); after-before != 1 {
		t.Fatalf("%d scheduling passes for one batch frame", after-before)
	}
}

func TestSuspendManagerStopsScheduling(t *testing.T) {
	ff := newFakeForwarder(t)
	a, mgrs, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true}, 2, 2)
	ids := a.ManagerIDs()
	if len(ids) != 2 {
		t.Fatalf("ManagerIDs = %v", ids)
	}
	// Suspend the first manager; all work should land on the other.
	if err := a.SuspendManager(ids[0]); err != nil {
		t.Fatal(err)
	}
	payload, _ := serial.Serialize("x")
	for i := 0; i < 10; i++ {
		sendTask(t, ff, types.TaskID([]byte{byte('a' + i)}), fx.HashBody(fx.BodyEcho), payload)
	}
	seen := 0
	deadline := time.After(10 * time.Second)
	for seen < 10 {
		select {
		case msg := <-ff.msgs:
			if msg.Type == transport.MsgResult {
				seen++
			}
		case <-deadline:
			t.Fatalf("only %d of 10 completed with one manager suspended", seen)
		}
	}
	var suspended *manager.Manager
	for _, m := range mgrs {
		if m.ID() == ids[0] {
			suspended = m
		}
	}
	if suspended.Completed() != 0 {
		t.Fatalf("suspended manager executed %d tasks", suspended.Completed())
	}
	if err := a.SuspendManager("ghost"); err == nil {
		t.Fatal("suspending unknown manager succeeded")
	}
}

func TestSchedulingPoliciesComplete(t *testing.T) {
	for _, policy := range []SchedulingPolicy{ScheduleRandom, ScheduleRoundRobin, ScheduleFirstFit} {
		t.Run(string(policy), func(t *testing.T) {
			ff := newFakeForwarder(t)
			newAgentWithManagers(t, ff, Config{BatchDispatch: true, Policy: policy}, 2, 2)
			payload, _ := serial.Serialize("x")
			for i := 0; i < 8; i++ {
				sendTask(t, ff, types.TaskID([]byte{byte('a' + i)}), fx.HashBody(fx.BodyEcho), payload)
			}
			seen := 0
			deadline := time.After(10 * time.Second)
			for seen < 8 {
				select {
				case msg := <-ff.msgs:
					if msg.Type == transport.MsgResult {
						seen++
					}
				case <-deadline:
					t.Fatalf("policy %s: only %d of 8 completed", policy, seen)
				}
			}
		})
	}
}

// A frame that does not decode, from the forwarder (a task, a batch) or
// from a manager (a result), is dropped with a warning that says who
// sent what, and both loops keep serving the frames behind it.
func TestAgentWarnsOnUndecodableFrames(t *testing.T) {
	logger, logs := testlog.New()
	ff := newFakeForwarder(t)
	a, _, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true, Logger: logger}, 0, 0)

	// A manager of the test's own, so that it can send a corrupt result.
	network, addr := a.ManagerAddr()
	mgr, err := transport.Dial(network, addr, "mgr-fake")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	send := func(conn transport.Conn, typ transport.MsgType, payload []byte) {
		t.Helper()
		if err := conn.Send(transport.Message{Type: typ, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	send(mgr, transport.MsgRegister, wire.EncodeRegistration(&wire.Registration{ManagerID: "mgr-fake"}))
	send(mgr, transport.MsgResult, []byte("junk"))
	send(mgr, transport.MsgCapacity, wire.EncodeCapacity(&types.Capacity{ManagerID: "mgr-fake", Slots: 1, Total: 1}))

	good := wire.EncodeTask(&types.Task{ID: "t1", Attempt: 1})
	send(ff.conn, transport.MsgTask, good[:len(good)-1])
	send(ff.conn, transport.MsgTaskBatch, []byte{0x02, 0xff})
	send(ff.conn, transport.MsgTask, good)

	// The task behind the corrupt frames reaches the manager behind the
	// corrupt result, as the bytes the forwarder sent.
	msg, err := mgr.Recv(5 * time.Second)
	if err != nil || msg.Type != transport.MsgTask || string(msg.Payload) != string(good) {
		t.Fatalf("manager received %+v, %v; want the task frame as sent", msg, err)
	}
	send(mgr, transport.MsgResult, wire.EncodeResult(&types.Result{TaskID: "t1", Timing: types.Timing{TW: time.Millisecond}}))
	if res := ff.waitResult(t, 5*time.Second); res.TaskID != "t1" {
		t.Fatalf("result = %+v", res)
	}

	out := logs.String()
	for _, want := range []string{
		"level=WARN", "dropping undecodable frame", "endpoint_id=ep-1", "malformed frame",
		"peer=forwarder", "msg_type=TASK ", "msg_type=TASK_BATCH", "bytes=2",
		"peer=manager", "peer_id=mgr-fake", "msg_type=RESULT", "bytes=4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "dropping undecodable frame"); n != 3 {
		t.Fatalf("%d warnings for 3 corrupt frames:\n%s", n, out)
	}
}

func TestMaxAttemptsGivesUp(t *testing.T) {
	ff := newFakeForwarder(t)
	a, mgrs, _ := newAgentWithManagers(t, ff,
		Config{BatchDispatch: true, MaxAttempts: 1, HeartbeatPeriod: 40 * time.Millisecond, HeartbeatMisses: 2}, 1, 1)
	// One long task; kill its manager; with MaxAttempts=1 the agent
	// must give up and report a failure upstream.
	sendTask(t, ff, "doomed", fx.HashBody(fx.BodySleep), fx.SleepArgs(5000))
	time.Sleep(60 * time.Millisecond)
	mgrs[0].Kill()
	res := ff.waitResult(t, 10*time.Second)
	if res.TaskID != "doomed" || !res.Failed() {
		t.Fatalf("result = %+v, want permanent failure", res)
	}
	_, cmp, _ := a.Stats()
	if cmp != 1 {
		t.Fatalf("completed = %d", cmp)
	}
}

// A process that stood still for longer than the watchdog's patience
// must not take its own absence for its managers': here the agent's
// lock is held for six beats, so neither the watchdog nor the reader
// that refreshes a manager's lastSeen runs, and when it is released
// the managers are all still there, and stay.
func TestWatchdogForgivesItsOwnStall(t *testing.T) {
	const beat = 40 * time.Millisecond // the managers' period in newAgentWithManagers
	ff := newFakeForwarder(t)
	a, _, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true, HeartbeatPeriod: beat}, 2, 1)
	for range 5 {
		a.mu.Lock()
		time.Sleep(6 * beat)
		a.mu.Unlock()
		time.Sleep(3 * beat)
		if n := a.ManagerCount(); n != 2 {
			t.Fatalf("%d of 2 managers left after the agent stalled", n)
		}
	}
}

// The agent forwards a manager's result frame stamped where it lies:
// the bytes are the ones RestampResult gives for the decoded result
// carrying the same stamps. A frame with no Timing section gains one
// with TE, which takes a re-encode; a result for a task the agent does
// not hold goes on unchanged.
func TestFinishForwardsRestampedFrame(t *testing.T) {
	a := New(Config{ID: "ep-1"})
	st := a.register("m1", &fakeConn{drop: true}, 1)
	for _, c := range []struct {
		name string
		res  types.Result
		held bool
	}{
		{"timing and trace", types.Result{TaskID: "t1", Output: []byte("out"), Timing: types.Timing{TW: time.Microsecond},
			Trace: &types.TraceDeltas{Exec: time.Microsecond, ManagerQueue: time.Nanosecond}}, true},
		{"timing", types.Result{TaskID: "t2", Err: "boom", Timing: types.Timing{TW: time.Microsecond}}, true},
		{"no timing", types.Result{TaskID: "t3", Output: []byte("out")}, true},
		{"trace, no timing", types.Result{TaskID: "t4", Trace: &types.TraceDeltas{}}, true},
		{"not held", types.Result{TaskID: "t5", Timing: types.Timing{TW: time.Microsecond}}, false},
	} {
		if c.held {
			sent := views(c.res.TaskID)[0]
			a.inflight[c.res.TaskID] = &arrivedTask{task: sent.Head, arrived: time.Now().Add(-time.Millisecond)}
			st.outstanding[c.res.TaskID] = sent
		}
		frame := wire.EncodeResult(&c.res)
		orig := append([]byte(nil), frame...)
		a.outbox = a.outbox[:0]
		v, err := wire.ViewResult(frame)
		if err != nil {
			t.Fatal(err)
		}
		a.finish(st, &v)
		out := a.outbox[0].Payload

		stamped, err := wire.DecodeResult(out)
		if err != nil {
			t.Fatalf("%s: forwarded frame does not decode: %v", c.name, err)
		}
		want, _ := wire.DecodeResult(orig)
		if c.held {
			if stamped.Timing.TE < time.Millisecond-c.res.Timing.TW {
				t.Errorf("%s: TE = %v, want the time since arrival less TW", c.name, stamped.Timing.TE)
			}
			want.Timing.TE = stamped.Timing.TE
			if want.Trace != nil {
				want.Trace.AgentQueue = max(stamped.Timing.TE-want.Trace.ManagerQueue, 0)
			}
		}
		if inPlace := &out[0] == &frame[0]; inPlace != (c.res.Timing != types.Timing{}) {
			t.Errorf("%s: stamped in place: %v", c.name, inPlace)
		}
		if wantBytes := wire.RestampResult(orig, want); string(out) != string(wantBytes) {
			t.Errorf("%s: forwarded %q, want RestampResult's %q", c.name, out, wantBytes)
		}
		if _, ok := a.inflight[c.res.TaskID]; ok || len(st.outstanding) != 0 {
			t.Errorf("%s: the task is still held", c.name)
		}
	}
}

// At Debug level the agent still logs "task completed" for every
// result, with the attributes it always had.
func TestDebugRecordTaskCompleted(t *testing.T) {
	logger, logs := testlog.NewDebug()
	ff := newFakeForwarder(t)
	_, mgrs, _ := newAgentWithManagers(t, ff, Config{BatchDispatch: true, Logger: logger}, 1, 1)
	payload, _ := serial.Serialize("hi")
	const traceID = "0123456789abcdef0123456789abcdef"
	task := &types.Task{ID: "t1", BodyHash: fx.HashBody(fx.BodyEcho), Payload: payload, Attempt: 1,
		Trace: &types.TraceContext{Sampled: true, TraceID: traceID}}
	if err := ff.conn.Send(transport.Message{Type: transport.MsgTask, Payload: wire.EncodeTask(task)}); err != nil {
		t.Fatal(err)
	}
	ff.waitResult(t, 5*time.Second)

	want := map[string]any{
		"level": "DEBUG", "msg": "task completed", "endpoint_id": "ep-1", "task_id": "t1",
		"manager_id": string(mgrs[0].ID()), "failed": false, "trace_id": traceID,
	}
	got, err := logs.Records("task completed")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("task completed records = %v, want one %v", got, want)
	}
}
