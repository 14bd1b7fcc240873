package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"funcx/internal/api"
	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

const (
	poolSize      = 64               // distinct payloads per run
	taskDeadline  = 10 * time.Second // every wait is bounded by this
	openRate      = 1000             // tasks/s offered by the open loop
	batchSize     = 256
	tracedSeconds = 16 // the traced pass measures for this long at most
	traceEvery    = 20 // traced windows read the service timeline of every 20th task (the middle task of every batch)
	// heartbeat is internal/perf's: an idle forwarder polls for its
	// agent every quarter beat, which is most of setup_s.
	heartbeat = 100 * time.Millisecond
)

// workload is one traffic mix. README.md says why each exists.
type workload struct {
	name        string
	payloadSize int  // 0 = no-op with an empty payload; else echo of this many bytes
	wal         bool // service journals to a data dir
	open        bool // open loop at openRate instead of a closed loop
	batch       bool // RunBatch of batchSize no-ops + GetResults per operation
	// callers is how many closed-loop callers share one client, each
	// with one operation in flight: enough to keep every core busy.
	// With one caller per core the no-op loop leaves a fifth of the CPU
	// idle, and how long a parked thread of a virtual machine takes to
	// wake up is the host's business: under a noisy neighbour that
	// loop's throughput spread four times as wide as the saturated
	// one's. A batch is 256 tasks in flight already.
	callers int
	// ops is the fixed work of one end-to-end round: about a second
	// of it on the two-core development box.
	ops int
	// slo is the latency limit of slo_met_ratio, per operation: far
	// enough above the workload's p90 that a healthy run meets it.
	slo time.Duration
}

var workloads = []workload{
	{name: "noop_closed", callers: 4, ops: 7000, slo: 25 * time.Millisecond},
	{name: "echo64k_closed", payloadSize: 64 << 10, callers: 2, ops: 220, slo: 100 * time.Millisecond},
	{name: "noop_closed_wal", wal: true, callers: 4, ops: 5000, slo: 25 * time.Millisecond},
	{name: "noop_open", open: true, callers: 4, ops: 1000, slo: 25 * time.Millisecond},
	{name: "batch256", batch: true, callers: 1, ops: 56, slo: 2500 * time.Millisecond},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clientCount is the machine-sizing rule: one sdk.Client (and its
// event stream) per core up to four, GOMAXPROCS untouched.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// fixture is one booted fabric (1 manager, 4 prewarmed workers,
// BatchDispatch) with its clients and the workload's function
// registered and warmed up.
type fixture struct {
	fab     *core.Fabric
	ep      *core.Endpoint
	clients []*sdk.Client
	noop    types.FunctionID
	echo    types.FunctionID
	fn      types.FunctionID // the one the workload calls
	dataDir string
	*inputs
	// batchReqs is the request one batch256 operation submits.
	batchReqs []api.SubmitRequest
}

// inputs are what a run's tasks draw from, made once from the seed:
// the serialized payloads (one empty payload on the no-op workloads),
// and for each the output a correct fabric returns.
type inputs struct {
	payloads [][]byte
	want     [][]byte
}

// setUp boots the fixture for w. outDir holds the WAL data dir, so the
// benchmark writes nothing outside its own directory.
func setUp(w workload, in *inputs, outDir string) (*fixture, error) {
	// Every sdk.Client shares http.DefaultTransport, which keeps two idle
	// connections per host: with more callers than that, most requests
	// would open a connection of their own and close it.
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = 64
	f := &fixture{inputs: in}
	cfg := service.Config{HeartbeatPeriod: heartbeat}
	if w.wal {
		dir, err := os.MkdirTemp(outDir, "wal-*")
		if err != nil {
			return nil, err
		}
		f.dataDir = dir
		cfg.DataDir = dir
		// No checkpoint inside a run: see "Known findings" in README.md.
		cfg.SnapshotOps, cfg.SnapshotBytes = 1<<30, 1<<40
	}
	fab, err := core.NewFabric(core.FabricConfig{Service: cfg})
	if err != nil {
		f.close()
		return nil, err
	}
	f.fab = fab
	f.ep, err = fab.AddEndpoint(core.EndpointOptions{
		Name: "bench", Owner: "bench",
		Managers: 1, WorkersPerManager: 4, PrewarmWorkers: 4,
		BatchDispatch:   true,
		HeartbeatPeriod: heartbeat,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	// WaitForWorkers counts managers, not workers.
	if err := f.ep.WaitForWorkers(1, 5*time.Second); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < clientCount(); i++ {
		f.clients = append(f.clients, fab.Client("bench"))
	}
	f.noop, err = f.clients[0].RegisterFunction(context.Background(), "noop", fx.BodyNoop, types.ContainerSpec{}, nil)
	if err == nil {
		f.echo, err = f.clients[0].RegisterFunction(context.Background(), "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	f.fn = f.noop
	if w.payloadSize > 0 {
		f.fn = f.echo
	}
	if w.batch {
		f.batchReqs = make([]api.SubmitRequest, batchSize)
		for i := range f.batchReqs {
			f.batchReqs[i] = api.SubmitRequest{FunctionID: f.fn, EndpointID: f.ep.ID}
		}
	}
	if err := f.warmUp(w); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func makeInputs(w workload, seed int64) (*inputs, error) {
	if w.payloadSize == 0 {
		ok, err := serial.Serialize("ok") // what fx's noop returns
		if err != nil {
			return nil, err
		}
		return &inputs{payloads: [][]byte{nil}, want: [][]byte{ok}}, nil
	}
	in := &inputs{}
	for _, raw := range payloadPool(seed, w.payloadSize) {
		p, err := serial.Serialize(raw)
		if err != nil {
			return nil, err
		}
		in.payloads = append(in.payloads, p)
	}
	in.want = in.payloads // echo is the identity on the serialized buffer
	return in, nil
}

// warmUp pushes a sixteenth of a round through every caller's own
// connection and every client's event stream, using the workload's own
// operation.
func (f *fixture) warmUp(w workload) error {
	r := newRun(w, f, 1)
	callers := len(f.clients) * w.callers
	per := max(w.ops/16/callers, 1)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(c *sdk.Client) {
			for i := 0; i < per; i++ {
				if s := r.operate(c, i%len(f.payloads), time.Now(), false); s.failed > 0 {
					errs <- fmt.Errorf("%d of %d tasks failed", s.failed, s.tasks)
					return
				}
			}
			errs <- nil
		}(f.clients[i%len(f.clients)])
	}
	var first error
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f *fixture) close() {
	for _, c := range f.clients {
		c.Close()
	}
	// A connection left open to the dead fabric would hold its
	// shutdown for the whole two-second grace period.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if f.fab != nil {
		f.fab.Close()
	}
	if f.dataDir != "" {
		os.RemoveAll(f.dataDir)
	}
}
