package manager

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"funcx/internal/container"
	"funcx/internal/fx"
	"funcx/internal/serial"
	"funcx/internal/testlog"
	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// fakeAgent is a minimal agent-side listener: it accepts one manager
// connection and exposes received messages.
type fakeAgent struct {
	ln   transport.Listener
	conn transport.Conn
	msgs chan transport.Message
}

func newFakeAgent(t *testing.T) *fakeAgent {
	t.Helper()
	ln, err := transport.Listen("inproc", "")
	if err != nil {
		t.Fatal(err)
	}
	fa := &fakeAgent{ln: ln, msgs: make(chan transport.Message, 256)}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fa.conn = conn
		for {
			msg, err := conn.Recv(0)
			if err != nil {
				return
			}
			fa.msgs <- msg
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fa
}

// expect waits for the next message of the given type, skipping
// heartbeats and capacity updates.
func (fa *fakeAgent) expect(t *testing.T, want transport.MsgType, timeout time.Duration) transport.Message {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case msg := <-fa.msgs:
			if msg.Type == want {
				return msg
			}
		case <-deadline:
			t.Fatalf("no %s message within %v", want, timeout)
		}
	}
}

func newTestManager(t *testing.T, fa *fakeAgent, cfg Config) *Manager {
	t.Helper()
	rt := fx.NewRuntime()
	rt.SleepScale = 0.001
	rt.RegisterBuiltins()
	cfg.AgentNetwork = "inproc"
	cfg.AgentAddr = fa.ln.Addr()
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 50 * time.Millisecond
	}
	cfg.Runtime = rt
	cfg.Containers = container.NewRuntime(container.Config{System: "ec2", TimeScale: 0})
	m := New(cfg)
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func echoHash() string {
	return fx.HashBody(fx.BodyEcho)
}

func TestManagerRegistersOnStart(t *testing.T) {
	fa := newFakeAgent(t)
	m := newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 2})
	msg := fa.expect(t, transport.MsgRegister, 2*time.Second)
	reg, err := wire.DecodeRegistration(msg.Payload)
	if err != nil || reg.ManagerID != "mgr-1" {
		t.Fatalf("registration = %+v, %v", reg, err)
	}
	_ = m
}

func TestManagerAdvertisesCapacity(t *testing.T) {
	fa := newFakeAgent(t)
	newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 4})
	msg := fa.expect(t, transport.MsgCapacity, 2*time.Second)
	cap, err := wire.DecodeCapacity(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if cap.Total != 4 || cap.Slots != 4 {
		t.Fatalf("capacity = %+v (4 undeployed slots expected)", cap)
	}
}

func TestManagerExecutesTaskAndReturnsResult(t *testing.T) {
	fa := newFakeAgent(t)
	newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 2})
	fa.expect(t, transport.MsgRegister, 2*time.Second)

	payload, _ := serial.Serialize("hello")
	task := &types.Task{ID: "t1", BodyHash: echoHash(), Payload: payload}
	if err := fa.conn.Send(transport.Message{Type: transport.MsgTask, Payload: wire.EncodeTask(task)}); err != nil {
		t.Fatal(err)
	}
	msg := fa.expect(t, transport.MsgResult, 5*time.Second)
	res, err := wire.DecodeResult(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskID != "t1" || res.Failed() {
		t.Fatalf("result = %+v", res)
	}
	if string(res.Output) != string(payload) {
		t.Fatalf("echo output = %q", res.Output)
	}
}

// A frame that does not decode — an agent from another build, a corrupt
// link — is dropped with a warning that says who sent what, and the
// manager keeps serving the frames behind it.
func TestManagerWarnsOnUndecodableFrames(t *testing.T) {
	logger, logs := testlog.New()
	fa := newFakeAgent(t)
	newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 2, Logger: logger})
	fa.expect(t, transport.MsgRegister, 2*time.Second)

	payload, _ := serial.Serialize("hello")
	good := wire.EncodeTask(&types.Task{ID: "t1", BodyHash: echoHash(), Payload: payload})
	for _, msg := range []transport.Message{
		{Type: transport.MsgTask, Payload: good[:len(good)-1]},
		{Type: transport.MsgTaskBatch, Payload: []byte{0x02, 0xff}},
		{Type: transport.MsgTask, Payload: good},
	} {
		if err := fa.conn.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	msg := fa.expect(t, transport.MsgResult, 5*time.Second)
	if res, err := wire.DecodeResult(msg.Payload); err != nil || res.TaskID != "t1" || res.Failed() {
		t.Fatalf("result after the corrupt frames = %+v, %v", res, err)
	}
	out := logs.String()
	for _, want := range []string{
		"level=WARN", "dropping undecodable frame", "manager_id=mgr-1", "peer=agent",
		"msg_type=TASK ", "bytes=" + fmt.Sprint(len(good)-1), "msg_type=TASK_BATCH", "bytes=2", "malformed frame",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "dropping undecodable frame"); n != 2 {
		t.Fatalf("%d warnings for 2 corrupt frames:\n%s", n, out)
	}
}

func TestManagerHandlesTaskBatch(t *testing.T) {
	fa := newFakeAgent(t)
	m := newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 4})
	fa.expect(t, transport.MsgRegister, 2*time.Second)

	payload, _ := serial.Serialize("x")
	var tasks []*types.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, &types.Task{
			ID: types.TaskID(string(rune('a' + i))), BodyHash: echoHash(), Payload: payload,
		})
	}
	if err := fa.conn.Send(transport.Message{Type: transport.MsgTaskBatch, Payload: wire.EncodeTasks(tasks)}); err != nil {
		t.Fatal(err)
	}
	got := map[types.TaskID]bool{}
	deadline := time.After(10 * time.Second)
	for len(got) < 8 {
		select {
		case msg := <-fa.msgs:
			if msg.Type != transport.MsgResult {
				continue
			}
			res, err := wire.DecodeResult(msg.Payload)
			if err != nil || res.Failed() {
				t.Fatalf("result = %+v, %v", res, err)
			}
			got[res.TaskID] = true
		case <-deadline:
			t.Fatalf("only %d of 8 results (batch beyond worker count must drain via backlog)", len(got))
		}
	}
	if m.Completed() != 8 {
		t.Fatalf("Completed = %d", m.Completed())
	}
}

// A batch frame is answered with one capacity advertisement, not one per
// task a worker took: with no heartbeat in the way, a batch of 8 onto 4
// idle workers and 4 prefetch places costs one advertisement for the
// frame and one per result, and the last of them says what the manager
// itself reports once everything is done.
func TestManagerAdvertisesOncePerBatchFrame(t *testing.T) {
	fa := newFakeAgent(t)
	m := newTestManager(t, fa, Config{
		ID: "mgr-1", MaxWorkers: 4, PrewarmWorkers: 4, Prefetch: 4, HeartbeatPeriod: time.Hour,
	})
	fa.expect(t, transport.MsgRegister, 2*time.Second)
	fa.expect(t, transport.MsgCapacity, 2*time.Second) // Start's own

	payload, _ := serial.Serialize("x")
	var tasks []*types.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, &types.Task{ID: types.TaskID(fmt.Sprintf("t%d", i)), BodyHash: echoHash(), Payload: payload})
	}
	if err := fa.conn.Send(transport.Message{Type: transport.MsgTaskBatch, Payload: wire.EncodeTasks(tasks)}); err != nil {
		t.Fatal(err)
	}
	results, adverts := 0, 0
	var last *types.Capacity
	deadline := time.After(10 * time.Second)
	// Each result is followed by its advertisement, so the ninth
	// advertisement is the last message of the exchange.
	for results < 8 || adverts < 9 {
		select {
		case msg := <-fa.msgs:
			switch msg.Type {
			case transport.MsgResult:
				results++
			case transport.MsgCapacity:
				adverts++
				var err error
				if last, err = wire.DecodeCapacity(msg.Payload); err != nil {
					t.Fatal(err)
				}
			}
		case <-deadline:
			t.Fatalf("%d of 8 results and %d of 9 advertisements", results, adverts)
		}
	}
	select {
	case msg := <-fa.msgs:
		t.Fatalf("a %s message beyond 8 results and 9 advertisements", msg.Type)
	case <-time.After(50 * time.Millisecond):
	}
	want := m.Capacity()
	if last.Free["none"] != 4 || last.Prefetch != 4 || last.Slots != 0 || !reflect.DeepEqual(last, want) {
		t.Fatalf("last advertisement %+v, Capacity() %+v", last, want)
	}
}

func TestManagerDeploysRequestedContainer(t *testing.T) {
	fa := newFakeAgent(t)
	m := newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 2})
	fa.expect(t, transport.MsgRegister, 2*time.Second)

	payload, _ := serial.Serialize("x")
	spec := types.ContainerSpec{Tech: types.ContainerDocker, Image: "special:1"}
	task := &types.Task{ID: "t1", BodyHash: echoHash(), Payload: payload, Container: spec}
	fa.conn.Send(transport.Message{Type: transport.MsgTask, Payload: wire.EncodeTask(task)}) //nolint:errcheck
	fa.expect(t, transport.MsgResult, 5*time.Second)

	_ = m
	// The capacity advertisement now includes the deployed container.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case msg := <-fa.msgs:
			if msg.Type != transport.MsgCapacity {
				continue
			}
			cap, _ := wire.DecodeCapacity(msg.Payload)
			if cap.Free[spec.Key()] == 1 {
				return
			}
		case <-deadline:
			t.Fatal("deployed container never advertised")
		}
	}
}

func TestManagerPrewarm(t *testing.T) {
	fa := newFakeAgent(t)
	m := newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 4, PrewarmWorkers: 3})
	msg := fa.expect(t, transport.MsgRegister, 2*time.Second)
	reg, _ := wire.DecodeRegistration(msg.Payload)
	if reg.Workers != 3 {
		t.Fatalf("prewarmed workers = %d, want 3", reg.Workers)
	}
	if m.WorkerCount() != 3 {
		t.Fatalf("WorkerCount = %d", m.WorkerCount())
	}
}

func TestManagerPrefetchAdvertised(t *testing.T) {
	fa := newFakeAgent(t)
	newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 2, Prefetch: 7})
	deadline := time.After(2 * time.Second)
	for {
		select {
		case msg := <-fa.msgs:
			if msg.Type != transport.MsgCapacity {
				continue
			}
			cap, _ := wire.DecodeCapacity(msg.Payload)
			if cap.Prefetch == 7 {
				return
			}
		case <-deadline:
			t.Fatal("prefetch capacity never advertised")
		}
	}
}

func TestManagerHeartbeats(t *testing.T) {
	fa := newFakeAgent(t)
	newTestManager(t, fa, Config{ID: "mgr-hb", MaxWorkers: 1})
	msg := fa.expect(t, transport.MsgHeartbeat, 2*time.Second)
	if string(msg.Payload) != "mgr-hb" {
		t.Fatalf("heartbeat payload = %q", msg.Payload)
	}
}

func TestManagerShutdownMessage(t *testing.T) {
	fa := newFakeAgent(t)
	m := newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 1})
	fa.expect(t, transport.MsgRegister, 2*time.Second)
	fa.conn.Send(transport.Message{Type: transport.MsgShutdown}) //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m.WorkerCount() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Workers may be zero already (none deployed); the real check is
	// that Stop() terminates promptly, covered by cleanup.
}

func TestManagerKillAbandonsWork(t *testing.T) {
	fa := newFakeAgent(t)
	m := newTestManager(t, fa, Config{ID: "mgr-1", MaxWorkers: 1})
	fa.expect(t, transport.MsgRegister, 2*time.Second)
	// A long task, then kill: no result should arrive.
	task := &types.Task{ID: "t1", BodyHash: fx.HashBody(fx.BodySleep), Payload: fx.SleepArgs(3000)}
	fa.conn.Send(transport.Message{Type: transport.MsgTask, Payload: wire.EncodeTask(task)}) //nolint:errcheck
	time.Sleep(50 * time.Millisecond)
	m.Kill()
	select {
	case msg := <-fa.msgs:
		if msg.Type == transport.MsgResult {
			t.Fatal("killed manager delivered a result")
		}
	case <-time.After(300 * time.Millisecond):
	}
}
