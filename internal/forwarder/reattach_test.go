package forwarder

import (
	"context"
	"testing"
	"time"

	"funcx/internal/container"
	"funcx/internal/endpoint"
	"funcx/internal/fx"
	"funcx/internal/manager"
	"funcx/internal/serial"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// An agent the forwarder drops (missed heartbeats, as after a long
// store freeze) repeats its registration on its own, and a task
// queued during the gap completes; an agent taken down with
// Disconnect stays down until Reconnect.
func TestAgentReattachesAfterForwarderDropsIt(t *testing.T) {
	const beat = 20 * time.Millisecond
	h := newHarness(t, Config{HeartbeatPeriod: beat})
	a := endpoint.New(endpoint.Config{
		ID: "ep-1", ServiceNetwork: h.network, ServiceAddr: h.addr,
		HeartbeatPeriod: beat, BatchDispatch: true,
	})
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	rt := fx.NewRuntime()
	rt.RegisterBuiltins()
	network, addr := a.ManagerAddr()
	m := manager.New(manager.Config{
		AgentNetwork: network, AgentAddr: addr, MaxWorkers: 1, HeartbeatPeriod: beat,
		Runtime: rt, Containers: container.NewRuntime(container.Config{System: "ec2", TimeScale: 0}),
	})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	waitFor(t, "manager registration", func() bool { return a.ManagerCount() == 1 })
	waitFor(t, "first attach", h.fwd.Connected)

	h.fwd.disconnect("missed heartbeats")
	payload, err := serial.Serialize("after the gap")
	if err != nil {
		t.Fatal(err)
	}
	task := &types.Task{ID: "queued-in-gap", BodyHash: fx.HashBody(fx.BodyEcho), Payload: payload}
	if err := h.queue.Push(wire.EncodeTask(task)); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-h.results:
		if res.TaskID != task.ID || res.Failed() {
			t.Fatalf("result = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result for the task queued during the gap")
	}
	if !a.Connected() || !h.fwd.Connected() {
		t.Fatalf("after re-attach: agent connected=%v, forwarder connected=%v", a.Connected(), h.fwd.Connected())
	}

	a.Disconnect()
	waitFor(t, "the forwarder to see the explicit disconnect", func() bool { return !h.fwd.Connected() })
	time.Sleep(10 * beat) // several redial back-offs
	if a.Connected() || h.fwd.Connected() {
		t.Fatalf("explicit Disconnect did not stay down: agent connected=%v, forwarder connected=%v", a.Connected(), h.fwd.Connected())
	}
	if err := a.Reconnect(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "Reconnect", func() bool { return a.Connected() && h.fwd.Connected() })
}
