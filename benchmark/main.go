// Command benchmark is the repository's benchmark: five workloads
// driven through real sdk.Clients against an in-process fabric, eight bounded
// end-to-end numbers per workload, and a per-layer ledger from a traced
// pass and a layer pass. README.md explains the workloads, the metrics
// and how they are expected to interact; BENCHMARK.json at the
// repository root fixes the names and the regression bounds.
//
//	go run ./benchmark                                   every workload, every metric
//	go run ./benchmark -check                            same, and fail on a trace invariant
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1    one run, one JSON line
//	go run ./benchmark -compare A.json B.json            judge B against A by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"
)

// measured is one metric as the result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and print one JSON result line (default: all five, as a table)")
		seed    = flag.Int64("seed", 1, "seed of the payload pool and the arrival schedule")
		seconds = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics from the traced pass and the layer pass")
		check   = flag.Bool("check", false, "exit nonzero when a trace invariant or a result check fails")
		compare = flag.Bool("compare", false, "compare two -json files: benchmark -compare A.json B.json")
		jsonOut = flag.String("json", "", "with no -workload: also write every workload's metrics to this file")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files and WAL data")
	)
	flag.Parse()
	// The fabric logs every endpoint attach and task loss at INFO;
	// unsilenced, that is most of the output.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	var err error
	if *seconds <= 0 && !*compare {
		var sp *spec
		if sp, err = loadSpec(); err == nil {
			*seconds = sp.RunSeconds
		}
	}
	switch {
	case err != nil:
	case *compare:
		err = runCompare(flag.Args())
	case *name == "":
		err = runSuite(*seed, *seconds, *check, *jsonOut, *outDir)
	default:
		err = runOne(*name, *seed, *seconds, *traced == 1, *check, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload and prints its result line: the
// end-to-end metrics with spans off, or the per-layer metrics.
func runOne(name string, seed int64, seconds int, traced, check bool, outDir string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var (
		res      result
		problems []string
		err      error
	)
	if traced {
		res, problems, err = perLayer(w, seed, seconds, outDir)
	} else {
		res, err = endToEnd(w, seed, seconds, outDir)
	}
	if err != nil {
		return err
	}
	if res.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d tasks failed, timed out or returned wrong bytes", res.Failed, res.Attempted))
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if check && !res.Correct {
		return fmt.Errorf("%s: %d checks failed", name, len(problems))
	}
	return nil
}

// endToEnd is the untraced run: for seconds, boot a fixture, put one
// round of the workload's fixed work through it, and tear it down.
// Every timing and per-task cost is computed per round and the best
// round's is reported; slo_met_ratio is the whole run's.
func endToEnd(w workload, seed int64, seconds int, outDir string) (result, error) {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	in, err := makeInputs(w, seed)
	if err != nil {
		return result{}, err
	}
	var (
		res    = result{Metrics: map[string]measured{}}
		setups []float64
		rounds []window
	)
	for time.Now().Before(deadline) {
		runtime.GC() // every round starts from the same heap
		began := time.Now()
		f, err := setUp(w, in, outDir)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(began).Seconds())
		r := newRun(w, f, seed)
		win := r.round(w.ops)
		f.close()
		attempted, failed := r.outcome()
		res.Attempted += attempted
		res.Failed += failed
		rounds = append(rounds, win)
		fmt.Printf("%s round %d: set-up %.3f s, %d ops, %.1f tasks/s, p50 %.4f ms, %.1f us cpu/task, %d failed\n",
			w.name, len(rounds), setups[len(setups)-1], win.samples, win.tasksPerS, win.p50, win.cpuUs, failed)
	}
	res.Metrics["setup_s"] = measured{best(setups, false), "s"}
	for _, m := range endToEndMetrics {
		vs := make([]float64, len(rounds))
		for i, win := range rounds {
			vs[i] = m.of(win)
		}
		res.Metrics[m.name] = measured{best(vs, m.higherIsBetter), m.unit}
	}
	met := 0
	for _, win := range rounds {
		met += win.met
	}
	res.Metrics["slo_met_ratio"] = measured{float64(met) / float64(res.Attempted), "ratio"}
	res.Metrics["peak_rss_mb"] = measured{peakRSSMiB(), "MiB"}
	fmt.Printf("%s seed=%d clients=%d callers=%d rounds=%d of %d ops attempted=%d succeeded=%d failed=%d\n",
		w.name, seed, clientCount(), clientCount()*w.callers, len(rounds), w.ops, res.Attempted, res.Attempted-res.Failed, res.Failed)
	return res, nil
}

// endToEndMetrics are the per-round end-to-end numbers; setup_s is per
// round too, slo_met_ratio and peak_rss_mb per run.
var endToEndMetrics = []struct {
	name, unit     string
	higherIsBetter bool
	of             func(window) float64
}{
	{"tasks_per_s", "tasks/s", true, func(w window) float64 { return w.tasksPerS }},
	{"task_latency_p50_ms", "ms", false, func(w window) float64 { return w.p50 }},
	{"cpu_us_per_task", "us", false, func(w window) float64 { return w.cpuUs }},
	{"allocs_per_task", "count", false, func(w window) float64 { return w.allocs }},
	{"alloc_kb_per_task", "KiB", false, func(w window) float64 { return w.allocKB }},
}

func sampleCounts(ws []window) []int {
	n := make([]int, len(ws))
	for i, w := range ws {
		n[i] = w.samples
	}
	return n
}
