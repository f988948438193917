// Command bench is the repository's benchmark: four fixed workloads over
// the simulator, five end-to-end metrics per workload, about a hundred
// per-layer metrics from fixed micro-drivers and a traced pass, and a
// correctness gate on everything it times. README.md in this directory
// defines every name; BENCHMARK.json at the repository root repeats the
// names, units, directions and bounds for the driver.
//
// Usage (from the repository root):
//
//	go run ./bench                          # all four workloads, end-to-end metrics
//	go run ./bench -trace 1                 # plus per-layer metrics and bench/out/trace.json
//	go run ./bench -runs 10 -out a.json     # ten runs per workload, seeds seed..seed+9
//	go run ./bench -compare a.json b.json   # compare two result files
//	go run ./bench -workload observed       # one workload, driver protocol (JSON last line)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is how long a run measures when -seconds is not given;
// BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 20

// runResult is one run of one workload.
type runResult struct {
	Workload  string
	Trace     bool
	Attempted int
	Failed    int
	Problems  []string
	Metrics   metricSet
	Passes    int     // warm passes behind the pass metrics
	Setups    int     // cold starts behind setup_s
	RawWallMS float64 // median wall time of the warm passes as they ran
	WallS     float64 // what the whole run took
	spans     []span
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

func (r *runResult) absorb(rep childReport) {
	r.Attempted += rep.Attempted
	r.Failed += rep.Failed
	r.Problems = append(r.Problems, rep.Problems...)
}

// runWorkload carries out one run: untraced, the workload's cold starts
// around a measuring child, giving the end-to-end metrics; traced, one child
// giving the per-layer metrics and the spans.
func runWorkload(w *workload, seed int64, seconds float64, trace bool) (runResult, error) {
	start := time.Now()
	res := runResult{Workload: w.name, Trace: trace, Metrics: metricSet{}}
	if trace {
		rep, err := spawnChild("trace", w, seed, seconds)
		if err != nil {
			return res, err
		}
		res.absorb(rep)
		res.Metrics = rep.PerLayer
		res.spans = rep.Spans
		res.WallS = time.Since(start).Seconds()
		return res, nil
	}
	// The measuring child's own cold pass is one cold start; the others are
	// fresh processes spread before and after it, so that the cold starts
	// sample the host over the whole run.
	var colds [][]float64
	var rep childReport
	for i := 0; i < w.setups; i++ {
		mode := "setup"
		if i == (w.setups-1)/2 {
			mode = "measure"
		}
		r, err := spawnChild(mode, w, seed, seconds)
		if err != nil {
			return res, err
		}
		colds = append(colds, r.ColdMS)
		if mode == "measure" {
			rep = r
		}
	}
	res.absorb(rep)
	col := func(f func(passCost) float64) float64 {
		xs := make([]float64, len(rep.Passes))
		for i, p := range rep.Passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	// The cold passes sample the warm pass's units too: a cold unit is the
	// same work plus what coldness costs, never faster, so it can only
	// stand in where every warm sample of the unit was disturbed, and the
	// whole run, not just its warm passes, gets to find a quiet spell.
	var units [][]float64
	for _, p := range rep.Passes {
		units = append(units, p.UnitsMS)
	}
	for _, c := range colds {
		units = append(units, c[1:])
	}
	res.Metrics.set("setup_s", quietSum(colds)/1e3)
	res.Metrics.set("pass_wall_ms", quietSum(units))
	res.Metrics.set("allocs_per_pass", col(func(p passCost) float64 { return p.Allocs }))
	res.Metrics.set("alloc_mb_per_pass", col(func(p passCost) float64 { return p.AllocMB }))
	if err := res.Metrics.check(endToEnd); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	res.Passes, res.Setups = len(rep.Passes), len(colds)
	res.RawWallMS = col(func(p passCost) float64 { return p.WallMS })
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// print lists every metric of the run by name with its unit.
func (r *runResult) print(seed int64) {
	kind := "end-to-end"
	counts := fmt.Sprintf("%d warm passes, %d cold starts", r.Passes, r.Setups)
	if r.Trace {
		kind, counts = "per-layer (traced)", "1 untraced + 1 traced pass"
	}
	fmt.Printf("\n%s  seed=%d  %s: %s, %.1f s\n", r.Workload, seed, kind, counts, r.WallS)
	for _, d := range defsFor(r.Trace) {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("  %-44s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	if !r.Trace {
		// How far the host was from quiet while this run measured.
		fmt.Printf("  %-44s %16.6g ms (%.2f x pass_wall_ms)\n", "median warm pass as it ran", r.RawWallMS, r.RawWallMS/r.Metrics["pass_wall_ms"])
	}
	fmt.Printf("  %-44s %16d of %d\n", "ops_failed / ops_attempted", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
}

// driverLine is the result object the driver reads from the last line of
// standard output.
func (r *runResult) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defsFor(r.Trace) {
		if v, ok := r.Metrics[d.Name]; ok {
			metrics[d.Name] = value{v, d.Unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		// Every value passed metricSet.check (finite), so this cannot fail.
		panic(err)
	}
	return string(b)
}

// resultFile is what -out writes and -compare reads: per workload and
// metric, one value per run.
type resultFile struct {
	Schema     string           `json:"schema"`
	Host       hostRecord       `json:"host"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Runs       int              `json:"runs"`
	TotalWallS float64          `json:"total_wall_s"`
	Workloads  []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string               `json:"name"`
	Setups    int                  `json:"cold_starts_per_run"`
	Passes    []int                `json:"warm_passes_per_run"`
	Attempted int                  `json:"ops_attempted"`
	Failed    int                  `json:"ops_failed"`
	Correct   bool                 `json:"correct"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer,omitempty"`
}

func (wr *workloadResult) add(r *runResult) {
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	wr.Correct = wr.Correct && r.correct()
	into := wr.EndToEnd
	if r.Trace {
		into = wr.PerLayer
	} else {
		wr.Passes = append(wr.Passes, r.Passes)
	}
	for k, v := range r.Metrics {
		into[k] = append(into[k], v)
	}
}

func writeJSONFile(path string, write func(f *os.File) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOut is where a traced run leaves the benchmark's spans.
const traceOut = "bench/out/trace.json"

func writeTrace(procs []traceProcess) error {
	return writeJSONFile(traceOut, func(f *os.File) error { return writeChromeTrace(f, procs) })
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's result object as the last line (default: all four)")
		seed         = flag.Int64("seed", 1, "permutes the order of experiments inside a pass and seeds the fault.rc_loss driver; rendered tables do not depend on it")
		seconds      = flag.Float64("seconds", defaultSeconds, "how long a run measures warm passes (three passes at least)")
		trace        = flag.Int("trace", 0, "1: run the layer drivers and a traced pass, report the per-layer metrics, write "+traceOut)
		runs         = flag.Int("runs", 1, "all-workloads mode: runs per workload, seeds seed..seed+runs-1")
		out          = flag.String("out", "bench/out/result.json", "all-workloads mode: result file for -compare")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		child        = flag.String("child", "", "internal: run as a child process in this mode")
		spawned      = flag.Int64("spawned", 0, "internal: parent's clock when it spawned this child")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *child != "":
		os.Exit(childMain(*child, *workloadName, *seed, *seconds, *spawned))
	case *workloadName != "":
		os.Exit(driverMain(*workloadName, *seed, *seconds, *trace == 1))
	default:
		os.Exit(allMain(*seed, *seconds, *trace == 1, *runs, *out))
	}
}

func childMain(mode, name string, seed int64, seconds float64, spawned int64) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	var rep childReport
	switch mode {
	case "setup", "measure":
		rep = childMeasure(w, seed, seconds, time.Unix(0, spawned), mode == "setup")
	case "trace":
		rep = childTrace(w, seed, 1)
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown child mode %q\n", mode)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// driverMain is one run of one workload under the driver's protocol.
func driverMain(name string, seed int64, seconds float64, trace bool) int {
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	printHost(seed, seconds)
	res, err := runWorkload(w, seed, seconds, trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if trace {
		if err := writeTrace([]traceProcess{{Name: w.name, Spans: res.spans}}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	res.print(seed)
	fmt.Println(res.driverLine())
	if !res.correct() {
		return 1
	}
	return 0
}

func printHost(seed int64, seconds float64) {
	h := readHost()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s  seed=%d seconds=%g shard_workers=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.GitCommit, seed, seconds, shardWorkers())
}

// allMain runs every workload, one after another, runs times over.
func allMain(seed int64, seconds float64, trace bool, runs int, out string) int {
	start := time.Now()
	printHost(seed, seconds)
	rf := resultFile{Schema: "ibwan-bench/v3", Host: readHost(), Seed: seed, Seconds: seconds, Runs: runs}
	var procs []traceProcess
	ok := true
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	for _, w := range workloads() {
		wr := workloadResult{Name: w.name, Setups: w.setups, Correct: true,
			EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		for r := 0; r < runs; r++ {
			for _, traced := range modes {
				res, err := runWorkload(w, seed+int64(r), seconds, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				res.print(seed + int64(r))
				wr.add(&res)
				if traced && r == 0 {
					procs = append(procs, traceProcess{Name: w.name, Spans: res.spans})
				}
			}
		}
		ok = ok && wr.Correct
		rf.Workloads = append(rf.Workloads, wr)
	}
	rf.TotalWallS = time.Since(start).Seconds()
	if trace {
		if err := writeTrace(procs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("\nspans: %s\n", traceOut)
	}
	err := writeJSONFile(out, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(rf)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("results: %s\ntotal: %.1f s for %d run(s) of %d workloads\n", out, rf.TotalWallS, runs, len(rf.Workloads))
	if runs > 1 {
		printSpreads(os.Stdout, &rf)
	}
	if !ok {
		fmt.Println("INCORRECT: at least one correctness check failed")
		return 1
	}
	return 0
}
