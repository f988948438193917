package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spread is a sample's interquartile distance as a share of its median
// (NaN with fewer than two values).
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// printSpreads reports, per workload and end-to-end metric, the run-to-run
// spread against the metric's bound: the repeatability the driver checks.
func printSpreads(w io.Writer, rf *resultFile) {
	fmt.Fprintf(w, "\nrun-to-run spread over %d runs (interquartile distance / median; the driver needs it within the bound)\n", rf.Runs)
	fmt.Fprintf(w, "%-18s %-18s %14s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, wr := range rf.Workloads {
		for _, d := range endToEnd {
			xs := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "%-18s %-18s %14.6g %8.2f%% %6.0f%%\n", wr.Name, d.Name, median(xs), 100*spread(xs), 100*d.Bound)
		}
	}
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// worse is how much worse b's median is than a's, as a share of a's
// (negative = better).
func worse(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies the regression rule to one workload x metric: worse when
// b's median is worse than a's by more than the bound; unresolved when
// either side's run-to-run spread is wider than the bound, unless every run
// of b reads better than every run of a.
func verdict(d metricDef, a, b []float64) string {
	if sa, sb := spread(a), spread(b); sa > d.Bound || sb > d.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if worse(d, x, y) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse(d, median(a), median(b)) > d.Bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints b against a and returns the process exit code:
// non-zero when an end-to-end metric is worse, a simulated count differs,
// or an allocation count moved by more than 1 %.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResult(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
	return 2
}

// allocSlack is the absolute difference two allocation counts per unit may
// show on top of 1 %: the allocation-free drivers (sim.handoff: 12 in 100 k
// ops) differ by one allocation between runs.
const allocSlack = 0.001

func compareResults(w io.Writer, a, b *resultFile) int {
	fmt.Fprintf(w, "a: commit %s, %d run(s), seed %d, nproc %d\nb: commit %s, %d run(s), seed %d, nproc %d\n",
		a.Host.GitCommit, a.Runs, a.Seed, a.Host.NProc, b.Host.GitCommit, b.Runs, b.Seed, b.Host.NProc)
	byName := map[string]*workloadResult{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	bad := 0
	fmt.Fprintf(w, "\n%-18s %-18s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n", "workload", "metric",
		"a.median", "a.q1", "a.q3", "b.median", "b.q1", "b.q3", "worse", "bound", "verdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "%-18s missing from b\n", wa.Name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			xa, xb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			v := verdict(d, xa, xb)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-18s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%% %5.0f%%  %s\n",
				wa.Name, d.Name, median(xa), qa1, qa3, median(xb), qb1, qb3,
				100*worse(d, median(xa), median(xb)), 100*d.Bound, v)
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "%-18s correctness check failed (a: %v, b: %v)\n", wa.Name, wa.Correct, wb.Correct)
			bad++
		}
	}
	// Counts: simulated ones must agree exactly, allocation counts within 1 %.
	checked := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		for _, d := range perLayer {
			xa, xb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			switch {
			case d.Kind == "exact" && a.Seed == b.Seed:
				checked++
				if ma != mb {
					fmt.Fprintf(w, "%-18s %-40s differs: a %v, b %v (a simulated count must repeat exactly)\n", wa.Name, d.Name, ma, mb)
					bad++
				}
			case d.Kind == "allocs":
				checked++
				if math.Abs(mb-ma) > 0.01*ma+allocSlack {
					fmt.Fprintf(w, "%-18s %-40s differs: a %v, b %v (allocation counts must agree within 1 %%)\n", wa.Name, d.Name, ma, mb)
					bad++
				}
			}
		}
	}
	if checked > 0 {
		fmt.Fprintf(w, "\n%d per-layer counts compared (simulated counts exactly, allocation counts within 1 %%)\n", checked)
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d finding(s) against b\n", bad)
		return 1
	}
	fmt.Fprintln(w, "\nno metric is worse")
	return 0
}
