package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"funcx/internal/fx"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// A 64 KiB echo crosses the HTTP-free spine (SubmitTaskAt → queue →
// forwarder → agent → manager → worker and back to Result) in two
// payload-sized allocations: the service frames the bare payload, the
// manager frames the worker's output, and every hop in between sends on
// the frame it received. A hop that goes back to decoding and
// re-encoding costs a third, and fails the budget here rather than only
// in the benchmark's ledger. Two subscribers read every landed frame
// while the next tasks are in flight, so a stamp written into a frame
// after it became visible is a race this test runs into under -race.
func TestEcho64kCopyBudget(t *testing.T) {
	const (
		size  = 64 << 10
		tasks = 32
	)
	raw := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(raw)
	payload, err := serial.Serialize(raw)
	if err != nil {
		t.Fatal(err)
	}

	for _, network := range []string{"inproc", "tcp"} {
		t.Run(network, func(t *testing.T) {
			f, err := NewFabric(FabricConfig{Service: service.Config{
				ForwarderNetwork: network,
				HeartbeatPeriod:  200 * time.Millisecond,
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ep, err := f.AddEndpoint(EndpointOptions{
				Name: "echo-ep", Owner: "alice", Managers: 1, WorkersPerManager: 2, PrewarmWorkers: 2,
				BatchDispatch: true, HeartbeatPeriod: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			fnID, err := f.Client("alice").RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Each subscriber checks the bytes of every result frame the
			// bus shows it.
			var readers sync.WaitGroup
			for range 2 {
				sub := f.Service.Events.Subscribe("alice")
				defer sub.Cancel()
				readers.Add(1)
				go func() {
					defer readers.Done()
					for seen := 0; seen < tasks+1; {
						ev, ok := <-sub.C
						if !ok {
							t.Error("event stream closed early")
							return
						}
						if !ev.Status.Terminal() {
							continue
						}
						seen++
						if res, err := wire.DecodeResult(ev.Result); err != nil || !bytes.Equal(res.Output, payload) {
							t.Errorf("subscriber read a result of %d bytes for task %s (%v), want the payload echoed", len(ev.Result), ev.TaskID, err)
						}
					}
				}()
			}

			echo := func() {
				t.Helper()
				sub := service.Submission{FunctionID: fnID, EndpointID: ep.ID, Payload: payload}
				id, _, _, err := f.Service.SubmitTaskAt("alice", sub, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Service.Result(ctx, id, 10*time.Second)
				if err != nil || !bytes.Equal(res.Output, payload) {
					t.Fatalf("task %s returned %d bytes, %v; want the payload echoed", id, len(res.Output), err)
				}
				if res.Timing.TW <= 0 || res.Timing.TE <= 0 || res.Timing.TF <= 0 || res.Timing.TS <= 0 {
					t.Fatalf("task %s: a hop's stamp is missing from %+v", id, res.Timing)
				}
			}
			echo() // deploy, connect, size the maps

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range tasks {
				echo()
			}
			runtime.ReadMemStats(&after)
			readers.Wait()

			perTask := (after.TotalAlloc - before.TotalAlloc) / tasks
			t.Logf("%s: %d KiB allocated per 64 KiB echo", network, perTask>>10)
			// Over TCP each direction also reads the frame off the socket.
			if budget := uint64(3 * size); network == "inproc" && perTask > budget {
				t.Fatalf("%d bytes allocated per task, budget %d: a hop is copying the frame it received", perTask, budget)
			}
		})
	}
}
