package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/events"
	"funcx/internal/fx"
	"funcx/internal/memo"
	"funcx/internal/router"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/store"
	"funcx/internal/trace"
	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wal"
	"funcx/internal/wire"
	"funcx/internal/worker"
)

// timeOp calls op n times, three times over, and reports the median
// repetition's nanoseconds per call.
func timeOp(n int, op func(i int)) float64 {
	var reps [3]float64
	for r := range reps {
		began := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		reps[r] = float64(time.Since(began)) / float64(n)
	}
	return median(reps[:])
}

// allocsOp reports heap allocations per call of op over n calls.
func allocsOp(n int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// firstError keeps the first error of calls that are timed and so
// cannot return one; it fails the pass afterwards.
type firstError struct{ err error }

func (f *firstError) check(what string, err error) {
	if err != nil && f.err == nil {
		f.err = fmt.Errorf("%s: %w", what, err)
	}
}

// layerPass times public calls into single layers, one layer at a time
// on an otherwise idle process, with 64 KiB payloads drawn from the
// same seeded pool the workloads use. The op counts are fixed, so the
// pass costs the same few seconds on every commit.
func layerPass(put func(string, float64, string), seed int64, outDir string) error {
	pool := payloadPool(seed, 64<<10)
	big := make([][]byte, len(pool)) // serialized, as tasks carry them
	for i, raw := range pool {
		buf, err := serial.Serialize(raw)
		if err != nil {
			return err
		}
		big[i] = buf
	}
	small := pool[0][:256]
	ns := func(name string, n int, op func(i int)) { put(name, timeOp(n, op), "ns") }
	us := func(name string, n int, op func(i int)) { put(name, timeOp(n, op)/1e3, "us") }
	var failed firstError
	check := failed.check

	// auth
	authority := auth.NewAuthority()
	token := authority.Mint("bench", time.Hour, auth.ScopeAll)
	ns("auth.authorize_ns", 20000, func(int) { _, err := authority.Authorize(token, auth.ScopeRun); check("auth.Authorize", err) })

	// serial
	ns("serial.serialize_ns_64k", 2000, func(i int) { _, err := serial.Serialize(pool[i%poolSize]); check("serial.Serialize", err) })
	ns("serial.deserialize_ns_64k", 2000, func(i int) { _, err := serial.Deserialize(big[i%poolSize], nil); check("serial.Deserialize", err) })

	// wire
	now := time.Now()
	task := func(payload []byte) *types.Task {
		return &types.Task{ID: "0123456789abcdef", FunctionID: "fn", EndpointID: "ep", Owner: "bench",
			BodyHash: fx.HashBody(fx.BodyEcho), Payload: payload, Submitted: now}
	}
	result := &types.Result{TaskID: "0123456789abcdef", Output: big[0], Completed: now, WorkerID: "w"}
	event := &types.TaskEvent{TaskID: "0123456789abcdef", Status: types.TaskRunning, EndpointID: "ep", Time: now}
	task0, task64 := task(nil), task(big[0])
	enc0, enc64, encRes := wire.EncodeTask(task0), wire.EncodeTask(task64), wire.EncodeResult(result)
	ns("wire.encode_task_ns_0b", 20000, func(int) { wire.EncodeTask(task0) })
	ns("wire.decode_task_ns_0b", 20000, func(int) { _, err := wire.DecodeTask(enc0); check("wire.DecodeTask", err) })
	ns("wire.encode_task_ns_64k", 100, func(int) { wire.EncodeTask(task64) })
	ns("wire.decode_task_ns_64k", 100, func(int) { _, err := wire.DecodeTask(enc64); check("wire.DecodeTask", err) })
	ns("wire.encode_result_ns_64k", 100, func(int) { wire.EncodeResult(result) })
	ns("wire.decode_result_ns_64k", 100, func(int) { _, err := wire.DecodeResult(encRes); check("wire.DecodeResult", err) })
	put("wire.task_allocs_64k", allocsOp(100, func(int) { _, err := wire.DecodeTask(wire.EncodeTask(task64)); check("wire.DecodeTask", err) }), "count")
	ns("wire.encode_event_ns", 20000, func(int) { wire.EncodeEvent(event) })

	// store and wal
	fields := make([]string, 1024)
	for i := range fields {
		fields[i] = "task-" + strconv.Itoa(i)
	}
	mem := store.New()
	hash, queue := mem.Hash("h"), mem.Queue("q")
	ns("store.hash_set_ns", 50000, func(i int) { hash.Set(fields[i%len(fields)], small) })
	ns("store.queue_push_pop_ns", 50000, func(int) {
		check("Queue.Push", queue.Push(small))
		queue.TryPop()
	})
	mem.Close()

	dir, err := os.MkdirTemp(outDir, "layers-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(wal.Options{Dir: dir + "/store"})
	if err != nil {
		return err
	}
	// No checkpoint while timing; the log is closed by the store.
	durable, err := store.NewPersistent(log, store.PersistOptions{SnapshotOps: 1 << 30, SnapshotBytes: 1 << 40})
	if err != nil {
		return err
	}
	hash, queue = durable.Hash("h"), durable.Queue("q")
	ns("store.hash_set_journaled_ns", 20000, func(i int) { hash.Set(fields[i%len(fields)], small) })
	ns("store.queue_push_pop_journaled_ns", 20000, func(int) {
		check("Queue.Push", queue.Push(small))
		queue.TryPop()
	})
	durable.Close()

	// An hour's flush window leaves every fsync to the Sync below.
	log, err = wal.Open(wal.Options{Dir: dir + "/wal", SyncInterval: time.Hour})
	if err != nil {
		return err
	}
	ns("wal.append_ns_256b", 20000, func(int) { check("wal.Append", log.Append(small)) })
	ns("wal.append_ns_64k", 300, func(i int) { check("wal.Append", log.Append(big[i%poolSize])) })
	put("wal.sync_ms", timeOp(10, func(int) {
		check("wal.Append", log.Append(small))
		check("wal.Sync", log.Sync())
	})/1e6, "ms")
	check("wal.Close", log.Close())

	// router
	connected := &types.EndpointStatus{Connected: true, Workers: 4}
	rt := router.New(func(types.EndpointID) *types.EndpointStatus { return connected },
		func(types.EndpointID) map[string]string { return nil })
	group := func(members int) router.Request {
		g := &types.EndpointGroup{ID: types.GroupID("g" + strconv.Itoa(members)), Policy: string(router.LeastOutstanding)}
		for i := 0; i < members; i++ {
			g.Members = append(g.Members, types.GroupMember{EndpointID: types.EndpointID("ep-" + strconv.Itoa(i))})
		}
		return router.Request{Group: g}
	}
	g4, g64, g1024 := group(4), group(64), group(1024)
	ns("router.route_ns_4", 20000, func(int) { _, err := rt.Route(g4); check("router.Route", err) })
	ns("router.route_ns_64", 5000, func(int) { _, err := rt.Route(g64); check("router.Route", err) })
	ns("router.route_ns_1024", 300, func(int) { _, err := rt.Route(g1024); check("router.Route", err) })
	put("router.route_batch_ns_per_task_64", timeOp(2000, func(int) { _, err := rt.RouteBatch(g64, batchSize); check("router.RouteBatch", err) })/batchSize, "ns")

	// events
	bus := events.New(events.Config{})
	ns("events.publish_ns_0sub", 50000, func(int) { bus.Publish("nobody", *event) })
	// The subscriber takes each event on the publishing goroutine, so
	// it never lags and no scheduler hand-off is timed.
	sub := bus.Subscribe("bench")
	ns("events.publish_ns_1sub", 50000, func(int) {
		bus.Publish("bench", *event)
		<-sub.C
	})
	sub.Cancel()

	// trace
	collector := trace.NewCollector(0)
	stages := []trace.Stage{trace.StageReceived, trace.StageRouted, trace.StageQueued, trace.StageDispatched,
		trace.StageRunning, trace.StageResult, trace.StagePublished}
	ns("trace.lifecycle_ns", 20000, func(i int) {
		id := types.TaskID(fields[i%len(fields)])
		collector.Begin(id, "ep", "", now)
		for _, s := range stages {
			collector.Stamp(id, s)
		}
		collector.Finish(id)
	})

	// memo
	cache := memo.NewCache(poolSize)
	for _, p := range big {
		cache.Store("body", p, *result)
	}
	ns("memo.lookup_ns_64k", 1000, func(i int) { cache.Lookup("body", big[i%poolSize]) })

	// transport
	for _, network := range []string{"inproc", "tcp"} {
		conn, stop, err := echoPeer(network)
		if err != nil {
			return err
		}
		roundTrip := func(payload []byte) func(int) {
			return func(int) {
				check("transport.Send", conn.Send(transport.Message{Type: transport.MsgTask, Payload: payload}))
				_, err := conn.Recv(taskDeadline)
				check("transport.Recv", err)
			}
		}
		us("transport.roundtrip_us_"+network+"_0b", 5000, roundTrip(nil))
		us("transport.roundtrip_us_"+network+"_64k", 500, roundTrip(enc64))
		stop()
	}

	// worker
	runtimeFx := fx.NewRuntime()
	runtimeFx.RegisterBuiltins()
	wk := worker.New("w", nil, runtimeFx, nil)
	noopTask := &types.Task{ID: "t", BodyHash: fx.HashBody(fx.BodyNoop)}
	ns("worker.execute_ns_noop", 20000, func(int) { wk.Execute(context.Background(), noopTask) })
	ns("worker.execute_ns_echo_64k", 20000, func(int) { wk.Execute(context.Background(), task64) })

	check("service layers", serviceLayers(put, big, seed, outDir))
	return failed.err
}

// echoPeer starts a listener whose one connection sends back every
// message it receives, and dials it.
func echoPeer(network string) (conn transport.Conn, stop func(), err error) {
	ln, err := transport.Listen(network, "")
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		for {
			msg, err := peer.Recv(0)
			if err != nil || peer.Send(msg) != nil {
				return
			}
		}
	}()
	conn, err = transport.Dial(network, ln.Addr(), "benchmark")
	if err != nil {
		ln.Close()
		<-done
		return nil, nil, err
	}
	return conn, func() {
		conn.Close()
		ln.Close()
		<-done
	}, nil
}

// serviceLayers times the service's submit entry points and the
// HTTP- and SDK-free dispatch spine on a live fabric: submits are timed
// alone and their results gathered off the clock.
func serviceLayers(put func(string, float64, string), big [][]byte, seed int64, outDir string) error {
	in, err := makeInputs(workloads[0], seed)
	if err != nil {
		return err
	}
	f, err := setUp(workloads[0], in, outDir)
	if err != nil {
		return fmt.Errorf("layer pass set-up: %w", err)
	}
	defer f.close()
	svc := f.fab.Service
	ctx := context.Background()
	noop := service.Submission{FunctionID: f.noop, EndpointID: f.ep.ID}
	// Allocations are counted process-wide, so the two allocs/op figures
	// submit to an endpoint no agent ever attaches to: the tasks wait in
	// its queue and nothing but the submit path runs.
	idle, _, _, _, err := svc.RegisterEndpoint("bench", "idle", "", false, nil)
	if err != nil {
		return err
	}
	parked := service.Submission{FunctionID: f.noop, EndpointID: idle.ID}

	var (
		ids    []types.TaskID
		failed firstError
	)
	check := failed.check
	// gather waits, off the clock, for everything submitted so far; the
	// whole wait is bounded, so a wedged fabric fails the pass.
	gather := func() {
		ctx, cancel := context.WithTimeout(ctx, taskDeadline)
		defer cancel()
		for _, id := range ids {
			if _, err := svc.Result(ctx, id, taskDeadline); err != nil {
				check("Service.Result", err)
				break
			}
		}
		ids = ids[:0]
	}
	submit := func(int) {
		id, _, _, err := svc.SubmitTaskAt("bench", noop, time.Now())
		check("SubmitTaskAt", err)
		ids = append(ids, id)
	}
	submitParked := func(int) {
		_, _, _, err := svc.SubmitTaskAt("bench", parked, time.Now())
		check("SubmitTaskAt", err)
	}
	put("service.submit_ns", timeOp(1000, submit), "ns")
	gather()

	batch := make([]service.Submission, batchSize)
	for i := range batch {
		batch[i] = noop
	}
	put("service.submit_batch_ns_per_task", timeOp(4, func(int) {
		got, _, err := svc.SubmitBatchAt("bench", batch, time.Now())
		check("SubmitBatchAt", err)
		ids = append(ids, got...)
	})/batchSize, "ns")
	gather()

	bearer := "Bearer " + svc.MintUserToken("bench", auth.ScopeAll)
	httpSubmit := func(to types.EndpointID) func(int) {
		body, err := json.Marshal(api.SubmitRequest{FunctionID: f.noop, EndpointID: to})
		check("encoding the submit request", err)
		return func(int) {
			req := httptest.NewRequest(http.MethodPost, "/v1/tasks", bytes.NewReader(body))
			req.Header.Set("Authorization", bearer)
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, req)
			var resp api.SubmitResponse
			if rec.Code != http.StatusAccepted {
				check("POST /v1/tasks", fmt.Errorf("status %d: %s", rec.Code, rec.Body))
				return
			}
			check("POST /v1/tasks", json.Unmarshal(rec.Body.Bytes(), &resp))
			if to == f.ep.ID {
				ids = append(ids, resp.TaskID)
			}
		}
	}
	put("service.http_submit_us", timeOp(1000, httpSubmit(f.ep.ID))/1e3, "us")
	gather()

	spine := func(sub service.Submission, want []byte) func(int) {
		return func(int) {
			id, _, _, err := svc.SubmitTaskAt("bench", sub, time.Now())
			check("SubmitTaskAt", err)
			res, err := svc.Result(ctx, id, taskDeadline)
			check("Service.Result", err)
			if err == nil && !bytes.Equal(res.Output, want) {
				check("Service.Result", fmt.Errorf("task %s returned the wrong bytes", id))
			}
		}
	}
	put("core.spine_task_us_0b", timeOp(500, spine(noop, f.want[0]))/1e3, "us")
	echo := service.Submission{FunctionID: f.echo, EndpointID: f.ep.ID, Payload: big[0]}
	put("core.spine_task_us_64k", timeOp(30, spine(echo, big[0]))/1e3, "us")

	put("service.submit_allocs", allocsOp(500, submitParked), "count")
	put("service.http_submit_allocs", allocsOp(500, httpSubmit(idle.ID)), "count")
	return failed.err
}
