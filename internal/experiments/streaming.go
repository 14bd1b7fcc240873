package experiments

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"funcx/internal/api"
	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/metrics"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

func init() { register("streaming", Streaming) }

// Streaming measures the task-events API redesign (the TPDS 2022
// follow-up's move from per-task polling to batch status checks and
// server-pushed results): the same workload — thousands of noop tasks
// on one endpoint — is retrieved three ways and compared on HTTP
// requests issued and result latency:
//
//	poll    one long-poll GET /v1/tasks/{id}/result per task (the
//	        HPDC 2020 client), bounded fan-out
//	wait    POST /v1/tasks/wait rounds: one blocking request carries
//	        the whole outstanding set
//	stream  futures resolved by one GET /v1/events subscription
//
// The poll and wait clients submit in batches of 500; the stream client
// submits each task with SubmitFuture from as many goroutines as the
// poll client has requests in flight, and the SDK has those callers
// share submit requests. Submit requests are counted apart in every
// mode, so the retrieval deltas are pure retrieval cost. The wait and
// stream clients must issue at least 10x fewer retrieval requests than
// the per-task poll client at equal or better p99 result latency, with
// zero loss everywhere.
func Streaming(opts Options) error {
	tasks, concurrency := 5000, 512
	if opts.Quick {
		tasks, concurrency = 400, 128
	}

	modes := []string{"poll", "wait", "stream"}
	runs := make(map[string]*streamingRun, len(modes))
	for _, mode := range modes {
		run, err := streamingMode(opts, mode, tasks, concurrency)
		if err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
		runs[mode] = run
	}

	tbl := metrics.NewTable("client", "tasks", "HTTP reqs (total)", "HTTP reqs (retrieval)",
		"submitted (tasks in reqs)", "reqs/task", "wall (s)", "p50 (ms)", "p99 (ms)")
	for _, mode := range modes {
		r := runs[mode]
		tbl.AddRow(mode, fmt.Sprint(tasks),
			fmt.Sprint(r.totalReqs), fmt.Sprint(r.retrievalReqs),
			fmt.Sprintf("%d in %d", tasks, r.submitReqs),
			fmt.Sprintf("%.3f", float64(r.retrievalReqs)/float64(tasks)),
			fmt.Sprintf("%.2f", r.wall.Seconds()),
			fmt.Sprintf("%.1f", float64(r.lat.Percentile(50))/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.lat.Percentile(99))/float64(time.Millisecond)))
	}
	fmt.Fprint(opts.out(), tbl.Render())

	poll, wait, stream := runs["poll"], runs["wait"], runs["stream"]
	waitRatio := float64(poll.retrievalReqs) / float64(max(wait.retrievalReqs, 1))
	streamRatio := float64(poll.retrievalReqs) / float64(max(stream.retrievalReqs, 1))
	fmt.Fprintf(opts.out(),
		"retrieval requests: poll %d vs wait %d (%.0fx fewer) vs stream %d (%.0fx fewer); zero task loss in all modes\n",
		poll.retrievalReqs, wait.retrievalReqs, waitRatio, stream.retrievalReqs, streamRatio)
	verdict := "wait and stream meet the >=10x request reduction at equal-or-better p99"
	if waitRatio < 10 || streamRatio < 10 {
		verdict = "request reduction below 10x (unexpected; rerun at full scale)"
	} else if wait.lat.Percentile(99) > poll.lat.Percentile(99) || stream.lat.Percentile(99) > poll.lat.Percentile(99) {
		verdict = "request reduction met but a p99 regressed vs poll (timing noise; rerun at full scale)"
	}
	fmt.Fprintln(opts.out(), verdict)
	return nil
}

type streamingRun struct {
	totalReqs     int64
	retrievalReqs int64
	// submitReqs is the requests that carried the tasks to the service.
	submitReqs int64
	wall       time.Duration
	lat        *metrics.Summary
}

// countingTransport counts HTTP requests issued by one client.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

// streamingMode boots a fresh fabric, submits the workload, and
// retrieves every result with the named client strategy.
func streamingMode(opts Options, mode string, tasks, concurrency int) (*streamingRun, error) {
	// Default heartbeats: tight (tens of ms) failure-detection windows
	// starve under a 5k-task dispatch storm and drop healthy managers.
	fab, err := core.NewFabric(core.FabricConfig{Service: service.Config{}})
	if err != nil {
		return nil, err
	}
	defer fab.Close()
	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "stream-ep", Owner: "experimenter",
		Managers: 4, WorkersPerManager: 8,
		BatchDispatch: true,
		Seed:          opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	ct := &countingTransport{base: http.DefaultTransport}
	client := fab.Client("experimenter").
		WithHTTPClient(&http.Client{Timeout: 10 * time.Minute, Transport: ct})
	client.WaitHint = 10 * time.Second
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	fnID, err := client.RegisterFunction(ctx, "noop", fx.BodyNoop, types.ContainerSpec{}, nil)
	if err != nil {
		return nil, err
	}

	run := &streamingRun{lat: metrics.NewSummaryCap(2 * tasks)}
	ids := make([]types.TaskID, 0, tasks)
	submittedAt := make(map[types.TaskID]time.Time, tasks)
	var futures []*sdk.Future
	setupReqs := ct.n.Load()
	start := time.Now()
	if mode == "stream" {
		// One SubmitFuture per task. Those that find a submit request
		// in flight share the next one, so the callers never batch by
		// hand and still do not pay a request apiece.
		type submitted struct {
			f   *sdk.Future
			at  time.Time
			err error
		}
		out := make(chan submitted, tasks)
		work := make(chan struct{}, tasks)
		for range tasks {
			work <- struct{}{}
		}
		close(work)
		for range concurrency {
			go func() {
				for range work {
					at := time.Now()
					f, err := client.SubmitFuture(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID})
					out <- submitted{f, at, err}
				}
			}()
		}
		for range tasks {
			s := <-out
			if s.err != nil {
				return nil, s.err
			}
			submittedAt[s.f.TaskID()] = s.at
			futures = append(futures, s.f)
		}
		run.submitReqs = client.Counters().SubmitRequests
	} else {
		const chunk = 500
		for len(ids) < tasks {
			n := min(chunk, tasks-len(ids))
			submits := make([]api.SubmitRequest, n)
			for i := range submits {
				submits[i] = api.SubmitRequest{FunctionID: fnID, EndpointID: ep.ID}
			}
			chunkStart := time.Now()
			got, err := client.RunBatch(ctx, submits)
			if err != nil {
				return nil, err
			}
			for _, id := range got {
				submittedAt[id] = chunkStart
				ids = append(ids, id)
			}
			run.submitReqs++
		}
	}

	var mu sync.Mutex
	record := func(id types.TaskID, res *sdk.Result, err error) error {
		if err != nil {
			return err
		}
		if res == nil || res.Err != nil {
			return fmt.Errorf("task %s failed: %v", id, res.Err)
		}
		mu.Lock()
		run.lat.Add(time.Since(submittedAt[id]))
		mu.Unlock()
		return nil
	}

	switch mode {
	case "poll":
		// The HPDC 2020 client: one blocking GET per task, bounded
		// fan-out so thousands of sockets do not pile up.
		sem := make(chan struct{}, concurrency)
		errs := make(chan error, len(ids))
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id types.TaskID) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				res, err := client.GetResult(ctx, id)
				if err := record(id, res, err); err != nil {
					errs <- err
				}
			}(id)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return nil, err
		default:
		}
	case "wait":
		// Batch-wait rounds: one blocking request per round for the
		// entire outstanding set.
		pending := ids
		for len(pending) > 0 {
			done, still, err := client.WaitTasks(ctx, pending, client.WaitHint)
			if err != nil {
				return nil, err
			}
			for _, res := range done {
				if err := record(res.TaskID, res, nil); err != nil {
					return nil, err
				}
			}
			pending = still
		}
	case "stream":
		// Record each latency the moment its future resolves, not when
		// it is gathered.
		errs := make(chan error, len(futures))
		var wg sync.WaitGroup
		for _, f := range futures {
			wg.Add(1)
			go func(f *sdk.Future) {
				defer wg.Done()
				res, err := f.Get(ctx)
				if err := record(f.TaskID(), res, err); err != nil {
					errs <- err
				}
			}(f)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return nil, err
		default:
		}
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}

	run.wall = time.Since(start)
	run.totalReqs = ct.n.Load()
	// Everything but setup and submission — the event stream, the
	// futures' catch-up batch waits, the wait rounds, the long-polls —
	// is retrieval traffic.
	run.retrievalReqs = run.totalReqs - setupReqs - run.submitReqs
	if n := run.lat.Count(); n != int64(tasks) {
		return nil, fmt.Errorf("task loss: %d/%d results retrieved", n, tasks)
	}
	return run, nil
}
