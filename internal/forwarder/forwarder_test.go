package forwarder

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"funcx/internal/store"
	"funcx/internal/testlog"
	"funcx/internal/transport"
	"funcx/internal/transport/transporttest"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// testHarness bundles a forwarder with its queue and result sink.
type testHarness struct {
	fwd     *Forwarder
	queue   *store.Queue
	results chan *types.Result // what OnResult received, unless the test set its own
	frames  chan []byte        // and the frame beside each
	network string
	addr    string
}

func newHarness(t *testing.T, cfg Config) *testHarness {
	t.Helper()
	h := &testHarness{
		queue:   store.NewQueue(),
		results: make(chan *types.Result, 16), // more than any test here sends
		frames:  make(chan []byte, 16),
	}
	cfg.EndpointID = "ep-1"
	if cfg.Network == "" {
		cfg.Network = "inproc"
	}
	cfg.TaskQueue = h.queue
	if cfg.OnResult == nil {
		cfg.OnResult = func(r *types.Result, frame []byte) { h.frames <- frame; h.results <- r }
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 40 * time.Millisecond
	}
	if cfg.HeartbeatMisses == 0 {
		cfg.HeartbeatMisses = 3
	}
	h.fwd = New(cfg)
	if err := h.fwd.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.fwd.Stop)
	h.network, h.addr = h.fwd.Addr()
	return h
}

// fakeEndpoint registers with the forwarder and exposes the conn.
func (h *testHarness) connectAgent(t *testing.T, token string) transport.Conn {
	t.Helper()
	conn, err := transport.Dial(h.network, h.addr, "ep-1")
	if err != nil {
		t.Fatal(err)
	}
	reg := &wire.Registration{EndpointID: "ep-1", Token: token}
	if err := conn.Send(transport.Message{Type: transport.MsgRegister, Payload: wire.EncodeRegistration(reg)}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv(2 * time.Second)
	if err != nil || msg.Type != transport.MsgRegisterAck {
		t.Fatalf("registration ack = %+v, %v", msg, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func pushTask(t *testing.T, q *store.Queue, id types.TaskID) {
	t.Helper()
	if err := q.Push(wire.EncodeTask(&types.Task{ID: id})); err != nil {
		t.Fatal(err)
	}
}

func recvType(t *testing.T, conn transport.Conn, want transport.MsgType, timeout time.Duration) transport.Message {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		msg, err := conn.Recv(timeout)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if msg.Type == want {
			return msg
		}
	}
	t.Fatalf("no %s within %v", want, timeout)
	return transport.Message{}
}

func TestTasksWaitUntilAgentConnects(t *testing.T) {
	h := newHarness(t, Config{})
	pushTask(t, h.queue, "t1")
	time.Sleep(100 * time.Millisecond)
	if d, _, _ := h.fwd.Stats(); d != 0 {
		t.Fatalf("dispatched %d tasks with no agent", d)
	}
	conn := h.connectAgent(t, "")
	msg := recvType(t, conn, transport.MsgTask, 2*time.Second)
	task, err := wire.DecodeTask(msg.Payload)
	if err != nil || task.ID != "t1" {
		t.Fatalf("task = %+v, %v", task, err)
	}
	if !h.fwd.Connected() {
		t.Fatal("forwarder not connected")
	}
}

func TestResultStoredAndAcked(t *testing.T) {
	h := newHarness(t, Config{})
	conn := h.connectAgent(t, "")
	pushTask(t, h.queue, "t1")
	recvType(t, conn, transport.MsgTask, 2*time.Second)
	if h.fwd.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d", h.fwd.Outstanding())
	}
	res := &types.Result{TaskID: "t1", Output: []byte("out"), Timing: types.Timing{TW: time.Millisecond}}
	sent := wire.EncodeResult(res)
	conn.Send(transport.Message{Type: transport.MsgResult, Payload: sent}) //nolint:errcheck

	select {
	case got := <-h.results:
		if string(got.Output) != "out" || got.Timing.TW != time.Millisecond || got.Timing.TF <= 0 {
			t.Fatalf("OnResult got %+v", got)
		}
		// The frame beside it is the one the agent sent, not a copy: the
		// receiver writes TF into it where it lies.
		frame := <-h.frames
		if &frame[0] != &sent[0] {
			t.Fatal("OnResult got a copy of the frame the agent sent")
		}
		out := wire.RestampResult(frame, got)
		if stamped, err := wire.DecodeResult(out); err != nil || stamped.Timing != got.Timing || &out[0] != &sent[0] {
			t.Fatalf("restamped frame = %+v, %v; want timing %+v written in place", stamped, err, got.Timing)
		}
		// The sink runs after the lease is released and the receipt acked.
		if h.fwd.Outstanding() != 0 {
			t.Fatalf("Outstanding after result = %d", h.fwd.Outstanding())
		}
		if h.queue.PendingLen() != 0 {
			t.Fatal("queue item not acked")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("result never reached OnResult")
	}
}

// A frame from the agent that does not decode — here a corrupt result,
// a result in the layout of an older endpoint build, and a corrupt
// running signal — is dropped with a warning that says who sent what and
// why, and the forwarder keeps serving the frames behind it.
func TestWarnsOnUndecodableFrames(t *testing.T) {
	logger, logs := testlog.New()
	h := newHarness(t, Config{Logger: logger})
	conn := h.connectAgent(t, "")
	pushTask(t, h.queue, "t1")
	recvType(t, conn, transport.MsgTask, 2*time.Second)

	good := wire.EncodeResult(&types.Result{TaskID: "t1", Output: []byte("out"), Timing: types.Timing{TW: time.Millisecond}})
	old := append([]byte{0x03}, good[1:]...) // the result format byte before fixed-width stamps
	for _, msg := range []transport.Message{
		{Type: transport.MsgResult, Payload: good[:len(good)-1]},
		{Type: transport.MsgResult, Payload: old},
		{Type: transport.MsgRunning, Payload: []byte("junk")},
		{Type: transport.MsgResult, Payload: good},
	} {
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case got := <-h.results:
		if got.TaskID != "t1" || string(got.Output) != "out" {
			t.Fatalf("result after the corrupt frames = %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the forwarder stopped serving after a corrupt frame")
	}
	out := logs.String()
	for _, want := range []string{
		"level=WARN", "dropping undecodable frame", "endpoint_id=ep-1", "peer=agent", "peer_id=ep-1",
		"msg_type=RESULT", "msg_type=RUNNING", "bytes=4", "malformed frame", wire.ErrLegacyResult.Error(),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "dropping undecodable frame"); n != 3 {
		t.Fatalf("%d warnings for 3 corrupt frames:\n%s", n, out)
	}
}

func TestDisconnectRequeuesOutstanding(t *testing.T) {
	h := newHarness(t, Config{})
	conn := h.connectAgent(t, "")
	pushTask(t, h.queue, "t1")
	pushTask(t, h.queue, "t2")
	recvType(t, conn, transport.MsgTask, 2*time.Second)
	recvType(t, conn, transport.MsgTask, 2*time.Second)

	conn.Close() // agent dies without completing anything
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if h.queue.Len() == 2 && !h.fwd.Connected() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.queue.Len() != 2 {
		t.Fatalf("queue len after disconnect = %d, want 2 (at-least-once)", h.queue.Len())
	}

	// A reconnecting agent receives the tasks again in order.
	conn2 := h.connectAgent(t, "")
	m1 := recvType(t, conn2, transport.MsgTask, 2*time.Second)
	task1, _ := wire.DecodeTask(m1.Payload)
	if task1.ID != "t1" {
		t.Fatalf("redelivery order: first = %s, want t1", task1.ID)
	}
}

// heldTask waits for the forwarder's send of a task frame to be held
// on n, past the heartbeats held beside it, and returns the task.
func heldTask(t *testing.T, n *transporttest.Net) *types.Task {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case msg := <-n.Held():
			if msg.Type != transport.MsgTask {
				continue
			}
			task, err := wire.DecodeTask(msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return task
		case <-deadline:
			t.Fatal("no task send was held")
			return nil
		}
	}
}

// An agent that drops while a task frame is in flight to it — the
// frame delivered, the forwarder's Send not yet returned — gets that
// task back behind the one dispatched before it, on every run: the
// lease is taken before the send, so the drop requeues the whole
// window in queue order.
func TestDropDuringSendRedeliversInOrder(t *testing.T) {
	n := transporttest.NewNet()
	// Heartbeats slow enough, and misses many enough, that the test's
	// silent agent is dropped only when it closes its link.
	h := newHarness(t, Config{Network: n.Name(), HeartbeatPeriod: 200 * time.Millisecond, HeartbeatMisses: 100})
	t.Cleanup(n.ReleaseSends) // before the forwarder stops
	conn := h.connectAgent(t, "")
	pushTask(t, h.queue, "t1")
	recvType(t, conn, transport.MsgTask, 2*time.Second)

	n.HoldSends()
	pushTask(t, h.queue, "t2")
	if task := heldTask(t, n); task.ID != "t2" {
		t.Fatalf("held send of %s, want t2", task.ID)
	}
	recvType(t, conn, transport.MsgTask, 2*time.Second) // the agent has t2
	conn.Close()
	waitFor(t, "the forwarder to see the drop", func() bool { return !h.fwd.Connected() })
	n.ReleaseSends()
	waitFor(t, "both tasks back in the queue", func() bool { return h.queue.Len() == 2 })

	conn2 := h.connectAgent(t, "")
	for _, want := range []types.TaskID{"t1", "t2"} {
		m := recvType(t, conn2, transport.MsgTask, 2*time.Second)
		if task, _ := wire.DecodeTask(m.Payload); task.ID != want {
			t.Fatalf("redelivery order: got %s, want %s", task.ID, want)
		}
	}
}

// An at-most-once task in flight when its agent drops is handed to
// OnReclaim, which lands it lost, exactly once, and is never
// redelivered.
func TestDropDuringSendLosesAtMostOnceTask(t *testing.T) {
	n := transporttest.NewNet()
	reclaimed := make(chan *types.Task, 4)
	h := newHarness(t, Config{
		Network: n.Name(), HeartbeatPeriod: 200 * time.Millisecond, HeartbeatMisses: 100,
		OnReclaim: func(task *types.Task, _ string) bool {
			if !task.AtMostOnce {
				return false
			}
			reclaimed <- task
			return true
		},
	})
	t.Cleanup(n.ReleaseSends) // before the forwarder stops
	conn := h.connectAgent(t, "")
	n.HoldSends()
	if err := h.queue.Push(wire.EncodeTask(&types.Task{ID: "once", AtMostOnce: true})); err != nil {
		t.Fatal(err)
	}
	heldTask(t, n)
	recvType(t, conn, transport.MsgTask, 2*time.Second)
	conn.Close()
	waitFor(t, "the forwarder to see the drop", func() bool { return !h.fwd.Connected() })
	n.ReleaseSends()
	select {
	case task := <-reclaimed:
		if task.ID != "once" {
			t.Fatalf("reclaimed %s", task.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the in-flight at-most-once task was not reclaimed")
	}
	waitFor(t, "the receipt to be acknowledged", func() bool { return h.queue.PendingLen() == 0 })
	if h.queue.Len() != 0 {
		t.Fatalf("at-most-once task requeued: queue len %d", h.queue.Len())
	}
	if got := h.fwd.Reclaimed(); got != 1 {
		t.Fatalf("Reclaimed = %d, want 1", got)
	}
	select {
	case task := <-reclaimed:
		t.Fatalf("%s reclaimed twice", task.ID)
	default:
	}
}

// A dropped agent's tasks are offered to OnReclaim in the order they
// were dispatched, so the service, which requeues each one as it is
// offered, redelivers them in that order too.
func TestDropOffersLeasesInDispatchOrder(t *testing.T) {
	offered := make(chan types.TaskID, 32)
	h := newHarness(t, Config{OnReclaim: func(task *types.Task, _ string) bool {
		offered <- task.ID
		return true
	}})
	conn := h.connectAgent(t, "")
	var ids []types.TaskID
	for i := 0; i < 16; i++ {
		id := types.TaskID(fmt.Sprint("t", i))
		ids = append(ids, id)
		pushTask(t, h.queue, id)
		recvType(t, conn, transport.MsgTask, 2*time.Second)
	}
	waitFor(t, "every lease", func() bool { return h.fwd.Outstanding() == len(ids) })
	conn.Close()
	for _, want := range ids {
		select {
		case got := <-offered:
			if got != want {
				t.Fatalf("offered %s, want %s (dispatch order %v)", got, want, ids)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s was never offered", want)
		}
	}
}

func TestHeartbeatLossDetected(t *testing.T) {
	h := newHarness(t, Config{HeartbeatPeriod: 30 * time.Millisecond, HeartbeatMisses: 2})
	conn := h.connectAgent(t, "")
	// Do not send heartbeats; the forwarder should declare the agent
	// lost after ~2 periods and mark disconnected, even though the
	// connection object technically remains open.
	_ = conn
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !h.fwd.Connected() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("heartbeat loss never detected")
}

func TestHeartbeatsKeepConnectionAlive(t *testing.T) {
	h := newHarness(t, Config{HeartbeatPeriod: 30 * time.Millisecond, HeartbeatMisses: 3})
	conn := h.connectAgent(t, "")
	stop := time.After(400 * time.Millisecond)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
loop:
	for {
		select {
		case <-tick.C:
			conn.Send(transport.Message{Type: transport.MsgHeartbeat, Payload: []byte("ep-1")}) //nolint:errcheck
		case <-stop:
			break loop
		}
	}
	if !h.fwd.Connected() {
		t.Fatal("heartbeating agent declared lost")
	}
}

// A forwarder that stood still for longer than its patience must not
// take its own absence for the agent's: with its lock held for six
// beats neither the loss check nor the reader that refreshes lastSeen
// runs, and a heartbeating agent is still connected afterwards.
func TestHeartbeatLossForgivesItsOwnStall(t *testing.T) {
	const beat = 30 * time.Millisecond
	h := newHarness(t, Config{HeartbeatPeriod: beat, HeartbeatMisses: 3})
	conn := h.connectAgent(t, "")
	done := make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(beat / 2)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				conn.Send(transport.Message{Type: transport.MsgHeartbeat, Payload: []byte("ep-1")}) //nolint:errcheck
			case <-done:
				return
			}
		}
	}()
	for range 5 {
		h.fwd.mu.Lock()
		time.Sleep(6 * beat)
		h.fwd.mu.Unlock()
		time.Sleep(2 * beat)
		if !h.fwd.Connected() {
			t.Fatal("heartbeating agent declared lost after the forwarder stalled")
		}
	}
}

func TestAuthRejection(t *testing.T) {
	h := newHarness(t, Config{
		Auth: func(ep types.EndpointID, token string) error {
			if token != "valid" {
				return errors.New("bad token")
			}
			return nil
		},
	})
	conn, err := transport.Dial(h.network, h.addr, "ep-1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reg := &wire.Registration{EndpointID: "ep-1", Token: "wrong"}
	conn.Send(transport.Message{Type: transport.MsgRegister, Payload: wire.EncodeRegistration(reg)}) //nolint:errcheck
	if msg, err := conn.Recv(300 * time.Millisecond); err == nil && msg.Type == transport.MsgRegisterAck {
		t.Fatal("bad token acknowledged")
	}
	if h.fwd.Connected() {
		t.Fatal("forwarder connected despite auth failure")
	}
	// Valid token succeeds.
	h.connectAgent(t, "valid")
}

func TestWrongEndpointIDRejected(t *testing.T) {
	h := newHarness(t, Config{})
	conn, err := transport.Dial(h.network, h.addr, "imposter")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reg := &wire.Registration{EndpointID: "other-endpoint"}
	conn.Send(transport.Message{Type: transport.MsgRegister, Payload: wire.EncodeRegistration(reg)}) //nolint:errcheck
	if msg, err := conn.Recv(300 * time.Millisecond); err == nil && msg.Type == transport.MsgRegisterAck {
		t.Fatal("foreign endpoint id acknowledged")
	}
}

func TestStatusReportStored(t *testing.T) {
	h := newHarness(t, Config{})
	conn := h.connectAgent(t, "")
	st := &types.EndpointStatus{ID: "ep-1", Managers: 3, Workers: 12}
	conn.Send(transport.Message{Type: transport.MsgStatus, Payload: wire.EncodeStatus(st)}) //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		got := h.fwd.Status()
		if got.Managers == 3 && got.Workers == 12 {
			if !got.Connected {
				t.Fatal("status lost connected flag")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("status report never recorded")
}

func TestNewRegistrationReplacesOld(t *testing.T) {
	h := newHarness(t, Config{})
	old := h.connectAgent(t, "")
	_ = old
	// A restarted endpoint repeats registration (paper §4.3); the new
	// connection takes over.
	fresh := h.connectAgent(t, "")
	pushTask(t, h.queue, "t1")
	msg := recvType(t, fresh, transport.MsgTask, 2*time.Second)
	task, _ := wire.DecodeTask(msg.Payload)
	if task.ID != "t1" {
		t.Fatalf("fresh conn got %s", task.ID)
	}
}

// A slow heartbeat must not slow the first dispatch: the loop is woken
// by the registration, not by its quarter-beat idle timer (500 ms here).
func TestDispatchWakesOnAgentAttach(t *testing.T) {
	h := newHarness(t, Config{HeartbeatPeriod: 2 * time.Second})
	pushTask(t, h.queue, "t1")
	// Let the loop see "no agent" and park.
	time.Sleep(50 * time.Millisecond)
	conn := h.connectAgent(t, "")
	attached := time.Now()
	recvType(t, conn, transport.MsgTask, 2*time.Second)
	if d := time.Since(attached); d > 100*time.Millisecond {
		t.Fatalf("task dispatched %v after the agent attached, want < 100ms", d)
	}
}

func TestStopDoesNotWaitOutIdleTimer(t *testing.T) {
	h := newHarness(t, Config{HeartbeatPeriod: 2 * time.Second})
	time.Sleep(20 * time.Millisecond)
	began := time.Now()
	h.fwd.Stop()
	if d := time.Since(began); d > 100*time.Millisecond {
		t.Fatalf("Stop took %v with no agent connected, want < 100ms", d)
	}
}
