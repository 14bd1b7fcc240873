package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// failedRatioBound is the absolute rise in failed/attempted that counts
// as a regression; the other ratios sit near 1, where BENCHMARK.json's
// relative bound already is an absolute one.
const failedRatioBound = 0.001

// runCompare judges side B against side A, each a comma-separated list
// of -json files from runs of one commit: per workload and end-to-end
// metric it prints both medians, the change, and a verdict against the
// bound in BENCHMARK.json.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark -compare A.json[,A2.json...] B.json[,B2.json...]")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadReports(args[0])
	if err != nil {
		return err
	}
	b, err := loadReports(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-22s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "A", "B", "change", "spread", "bound", "verdict")
	regressed := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			of := func(wr *workloadReport) float64 { return wr.EndToEnd[m.Name].Value }
			av, bv := column(a, w.Name, of), column(b, w.Name, of)
			v := judge(av, bv, m.Better == "higher", m.Bound, false)
			fmt.Printf("%-16s %-22s %12.6g %12.6g %+8.2f%% %6.2f%% %6.2f%%  %s\n",
				w.Name, m.Name, v.a, v.b, v.change*100, v.spread*100, m.Bound*100, v.verdict)
			if v.verdict == "regressed" {
				regressed++
			}
		}
		of := func(wr *workloadReport) float64 { return float64(wr.Failed) / float64(wr.Attempted) }
		v := judge(column(a, w.Name, of), column(b, w.Name, of), false, failedRatioBound, true)
		fmt.Printf("%-16s %-22s %12.6g %12.6g %+9.4f %7.4f %7.4f  %s\n",
			w.Name, "failed_ratio", v.a, v.b, v.change, v.spread, failedRatioBound, v.verdict)
		if v.verdict == "regressed" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed", regressed)
	}
	return nil
}

func loadReports(list string) ([]*report, error) {
	var reps []*report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, &r)
	}
	return reps, nil
}

// column collects one number per run of a side.
func column(reps []*report, workload string, of func(*workloadReport) float64) []float64 {
	var vs []float64
	for _, r := range reps {
		if wr := r.Workloads[workload]; wr != nil {
			vs = append(vs, of(wr))
		}
	}
	return vs
}

type verdict struct {
	a, b    float64 // medians of the two sides
	change  float64 // B against A: a share of A, or a difference when absolute
	spread  float64 // the range of A's own runs, in the same terms
	verdict string  // ok, regressed, or unresolved: A's runs disagree by more than the bound
}

// judge compares the medians of two sides. B regresses when it is worse
// than A by more than bound; when A's own runs are spread wider than
// the bound the pair cannot be resolved either way.
func judge(a, b []float64, higherIsBetter bool, bound float64, absolute bool) verdict {
	v := verdict{a: median(a), b: median(b), verdict: "ok"}
	scale := v.a
	if absolute || scale == 0 {
		scale = 1
	}
	v.change = (v.b - v.a) / scale
	if len(a) > 1 {
		lo, hi := a[0], a[0]
		for _, x := range a {
			lo, hi = min(lo, x), max(hi, x)
		}
		v.spread = (hi - lo) / scale
	}
	worse := v.change
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case v.spread > bound:
		v.verdict = "unresolved"
	case worse > bound:
		v.verdict = "regressed"
	}
	return v
}
