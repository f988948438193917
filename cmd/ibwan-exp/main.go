// Command ibwan-exp is the repository's one binary: it regenerates the
// tables and figures of "Performance of HPC Middleware over InfiniBand WAN"
// on the simulated testbed, and measures single points of any middleware
// layer with that layer's own tool.
//
// Usage:
//
//	ibwan-exp [flags] <experiment>...
//	ibwan-exp [flags] all
//	ibwan-exp [flags] probe <perftest|ipoib|mpi|nas|nfs> [probe flags]
//
// Experiments: table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13, plus the loss-* family (loss-goodput loss-latency loss-flap
// loss-tcp) extending the paper to lossy WAN circuits (see FAULTS.md), the
// multisite-* family (multisite-bcast multisite-allreduce multisite-nfs
// multisite-loss) running on N-site topologies selected with -topo, the
// congest-* family (congest-streams congest-queue) bounding the WAN egress
// queues so marks and drops emerge from stream contention, and the
// failover-* family arming the self-healing routing layer (see
// EXPERIMENTS.md). -list enumerates them all with descriptions.
//
// A probe is one measurement cell named on the command line, after the tool
// the paper measured that layer with: perftest (verbs), iperf (ipoib, incl.
// -mode sdp), OMB (mpi), the NAS kernels (nas), IOzone (nfs). It runs on the
// same harness as a registry experiment, so every flag before the word
// "probe" applies (-fault, -trace-out, -metrics-out, -json, -csv, ...)
// except the five that shape registry sweeps (-quick, -class, -filemb,
// -tcpms, -topo). At a figure's parameters it prints that figure's cell; a
// bad flag value is exit 2, a point the model cannot complete an ERR row.
// "ibwan-exp probe <layer> -h" lists a layer's flags.
//
// Every experiment expands into independent measurement points (one
// simulated testbed per point) that run on a bounded worker pool; -par
// controls the pool size and output is byte-identical at any parallelism.
// Orthogonally, -shards lets every world of two or more sites — the
// paper's two-cluster testbed as much as the multi-site presets — run its
// sites as parallel event shards under a conservative channel-clock
// scheduler:
// each WAN link's delay bounds its own directed channel, so every
// shard's window follows its own incoming links rather than the world
// minimum — again with byte-identical output at any value (see
// DESIGN.md, "Parallel execution"). The JSON report's shard_windows /
// shard_horizon_s fields expose the scheduler's synchronization cost.
//
// Examples:
//
//	ibwan-exp fig5                 # verbs RC bandwidth vs delay
//	ibwan-exp -csv fig9            # threshold tuning, CSV output
//	ibwan-exp -class A fig12       # NAS sweep at class A (faster)
//	ibwan-exp -par 8 -progress all # everything, 8 workers, live status
//	ibwan-exp -quick -json - all   # metrics + table data as JSON on stdout
//	ibwan-exp -cpuprofile cpu.out -par 1 fig5       # profile the hot path
//	ibwan-exp -memprofile mem.out all               # heap profile at exit
//	ibwan-exp -quick -trace-out trace.json fig8     # Perfetto trace of the run
//	ibwan-exp -quick -metrics-out metrics.txt fig8  # telemetry metrics dump
//	ibwan-exp -quick -fault wan-loss=0.01 fig5      # chaos: 1% WAN packet loss
//	ibwan-exp -quick -fault wan-down fig8           # chaos: WAN dead, ERR rows
//	ibwan-exp -quick -topo ring4 multisite-bcast    # 4-site ring, flat vs hier bcast
//	ibwan-exp -quick -topo mesh4 -shards 4 multisite-allreduce  # sharded 4-site world
//	ibwan-exp -quick congest-streams congest-queue  # emergent congestion, bounded queues
//	ibwan-exp -quick -sample-every 1ms -timeline-out tl.json fig8   # sampled timelines
//	ibwan-exp -quick -sample-every 1ms -timeline-out tl.csv loss-flap  # same, CSV
//	ibwan-exp -list                                 # experiment ids + descriptions
//	ibwan-exp probe mpi -bench bw -size 16384 -delay 1000 -threshold 65536
//	ibwan-exp probe nfs -transport tcp-rc -threads 8 -delay 1000 -filemb 64
//	ibwan-exp -fault wan-loss=0.01 probe ipoib -mode ud -streams 8   # a probe under chaos
//	ibwan-exp -trace-out p.json probe perftest -test bw -size 65536  # its packet log
//
// -sample-every arms the sim-time timeline sampler: every point's metrics
// are snapshotted at that cadence of virtual time into deterministic
// per-interval series (counter rates, hi-res histogram percentiles), written
// by -timeline-out as JSON ("ibwan-timeline/v1") or CSV (.csv suffix).
// Sampling never perturbs the simulation and timelines are byte-identical
// at any -par / -shards combination. With -trace-out, the sampled series
// also appear as Perfetto counter tracks pinned above the span rows.
//
// Every output path (-json, -cpuprofile, -memprofile, -trace-out,
// -metrics-out, -timeline-out) is opened before any simulation runs, so an
// unwritable path fails immediately instead of discarding results after
// minutes of work. Each output needs its own destination: two flags naming
// the same file, or both '-', exit 2, and so does '-' for a profile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/nas"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// flagSet reports whether the named flag was set explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	chart := flag.Bool("chart", false, "render terminal sparkline charts instead of tables")
	class := flag.String("class", "B", "NAS problem class for fig12 (B, A or W)")
	fileMB := flag.Int("filemb", 512, "IOzone file size in MB for fig13")
	tcpMS := flag.Int("tcpms", 60, "TCP measurement window (virtual ms) for fig6/fig7")
	quick := flag.Bool("quick", false, "coarse sweeps for a fast smoke run")
	topoName := flag.String("topo", "star3", "site topology preset for the multisite-* family ("+strings.Join(topo.PresetNames(), "|")+")")
	list := flag.Bool("list", false, "list the experiment registry with one-line descriptions and exit")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "measurement points run concurrently (output is identical at any value)")
	shards := flag.Int("shards", 1, "OS workers per simulation world: a world of two or more sites whose WAN links all have a delay runs one event shard per site on up to this many workers (output is identical at any value)")
	progress := flag.Bool("progress", false, "live per-point status line on stderr")
	jsonOut := flag.String("json", "", "write a JSON report (metrics + table data) to this file ('-' = stdout, suppresses tables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
	traceOut := flag.String("trace-out", "", "write a Perfetto (Chrome trace event) JSON trace of the run to this file ('-' = stdout, suppresses tables); forces -par 1")
	metricsOut := flag.String("metrics-out", "", "write a telemetry metrics dump to this file ('-' = stdout, suppresses tables; a .json suffix selects JSON, otherwise text)")
	spanDepth := flag.Int("span-depth", 0, "suppress trace spans nested deeper than this (0 = unlimited; applies to -trace-out)")
	sampleEvery := flag.Duration("sample-every", 0, "sample telemetry timelines at this interval of virtual time (e.g. 1ms; output is identical at any -par/-shards)")
	timelineOut := flag.String("timeline-out", "", "write sampled timelines to this file ('-' = stdout, suppresses tables; a .csv suffix selects CSV, otherwise JSON); requires -sample-every")
	faultSpec := flag.String("fault", "", "run-wide chaos plan, e.g. 'wan-loss=0.01,seed=7' or 'wan-down' or 'wan-flap=5ms:20ms'; prefix 'link=NAME:' targets one link of a multi-link topology (e.g. 'link=r1-r2:wan-down'); failed points render as ERR")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ibwan-exp [flags] <experiment>...\n       ibwan-exp [flags] probe <layer> [probe flags]\nexperiments: %s all (-list describes them and the probe layers)\nflags:\n",
			strings.Join(core.ExperimentIDs, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, s := range core.Specs() {
			fmt.Printf("%-20s %s\n", s.ID, s.Desc)
		}
		for _, p := range core.Probes() {
			fmt.Printf("%-20s %s\n", "probe "+p.Name, p.Desc)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := topo.Preset(*topoName, 0, 0); err != nil {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -topo: %v\n", err)
		os.Exit(2)
	}
	// A negative measurement window or file size has no meaning and would
	// otherwise run on as a silently wrong number (0 selects the default).
	if *tcpMS < 0 {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -tcpms must not be negative (got %d)\n", *tcpMS)
		os.Exit(2)
	}
	if *fileMB < 0 {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -filemb must not be negative (got %d)\n", *fileMB)
		os.Exit(2)
	}
	if !slices.Contains(nas.Classes(), *class) {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -class must be one of %s (got %q)\n", strings.Join(nas.Classes(), ", "), *class)
		os.Exit(2)
	}
	opt := core.Options{NASClass: *class, NFSFileMB: *fileMB, TCPMillis: *tcpMS, Topo: *topoName, Quick: *quick}
	if *quick {
		// Let Quick pick its own lighter defaults unless overridden.
		if !flagSet("class") {
			opt.NASClass = ""
		}
		if !flagSet("filemb") {
			opt.NFSFileMB = 0
		}
		if !flagSet("tcpms") {
			opt.TCPMillis = 0
		}
	}
	var specs []core.Spec
	if args[0] == "probe" {
		// The sweep-shaping flags mean nothing to a single point (a probe
		// has its own -class and -filemb): refuse them rather than print a
		// number they did not shape.
		for _, name := range []string{"quick", "class", "filemb", "tcpms", "topo"} {
			if flagSet(name) {
				fmt.Fprintf(os.Stderr, "ibwan-exp: -%s shapes registry sweeps and does not apply to a probe (probe flags go after the layer name)\n", name)
				os.Exit(2)
			}
		}
		spec, err := core.ProbeSpec(args[1:])
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibwan-exp: %v\n", err)
			os.Exit(2)
		}
		specs = []core.Spec{spec}
	} else {
		ids := args
		if len(args) == 1 && args[0] == "all" {
			ids = core.ExperimentIDs
		}
		for _, id := range ids {
			spec, ok := core.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "ibwan-exp: unknown experiment %q\n\n", id)
				flag.Usage()
				os.Exit(2)
			}
			specs = append(specs, spec)
		}
	}
	// Validate observability knobs before any simulation: a zero or negative
	// sampling interval, a negative span depth, or a timeline sink with no
	// sampler are configuration errors, reported exactly like an unknown
	// experiment id (usage + exit 2), not silently ignored.
	if flagSet("sample-every") && *sampleEvery <= 0 {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -sample-every must be a positive duration (got %v)\n\n", *sampleEvery)
		flag.Usage()
		os.Exit(2)
	}
	if *spanDepth < 0 {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -span-depth must be non-negative (got %d)\n\n", *spanDepth)
		flag.Usage()
		os.Exit(2)
	}
	if *timelineOut != "" && *sampleEvery <= 0 {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -timeline-out requires -sample-every (there is nothing to write without a sampling interval)\n\n")
		flag.Usage()
		os.Exit(2)
	}
	ropt := core.RunnerOptions{Workers: *par, SampleEvery: sim.Duration(*sampleEvery)}
	if *par < 1 || *shards < 1 {
		fmt.Fprintf(os.Stderr, "ibwan-exp: -par and -shards must be at least 1 (got %d and %d)\n", *par, *shards)
		os.Exit(2)
	}
	if *shards > 1 {
		maxProcs := runtime.GOMAXPROCS(0)
		if flagSet("par") && flagSet("shards") && *par**shards > maxProcs {
			// Points and shards multiply: -par worlds each running -shards
			// workers. Refuse a combination that can only thrash rather than
			// silently timesharing it.
			fmt.Fprintf(os.Stderr, "ibwan-exp: -par %d x -shards %d needs %d OS workers but GOMAXPROCS is %d; lower -par or -shards (they multiply: each of -par concurrent points runs -shards shard workers)\n",
				*par, *shards, *par**shards, maxProcs)
			os.Exit(2)
		}
		if !flagSet("par") {
			// Give the shard workers their share of the machine instead of
			// letting the default point pool claim every core.
			if p := maxProcs / *shards; p > 1 {
				ropt.Workers = p
			} else {
				ropt.Workers = 1
			}
		}
		ropt.ShardWorkers = *shards
	}
	if *progress {
		ropt.Progress = os.Stderr
	}
	if *faultSpec != "" {
		plan, err := parseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibwan-exp: -fault: %v\n", err)
			os.Exit(2)
		}
		ropt.Fault = plan
	}

	outPaths := []struct{ flag, path string }{
		{"cpuprofile", *cpuProfile},
		{"memprofile", *memProfile},
		{"json", *jsonOut},
		{"trace-out", *traceOut},
		{"metrics-out", *metricsOut},
		{"timeline-out", *timelineOut},
	}
	// Two outputs sharing a destination interleave into a file no reader
	// parses, and a binary profile on stdout lands between the tables:
	// refuse both before anything is opened.
	writerOf := map[string]string{} // destination ("" = stdout) -> flag
	for _, o := range outPaths {
		if o.path == "" {
			continue
		}
		dest := filepath.Clean(o.path)
		if o.path == "-" {
			if o.flag == "cpuprofile" || o.flag == "memprofile" {
				fmt.Fprintf(os.Stderr, "ibwan-exp: -%s writes a binary profile and cannot write to stdout ('-')\n", o.flag)
				os.Exit(2)
			}
			dest = ""
		}
		if prev, ok := writerOf[dest]; ok {
			fmt.Fprintf(os.Stderr, "ibwan-exp: -%s and -%s both write to %s; give each output its own destination\n", prev, o.flag, o.path)
			os.Exit(2)
		}
		writerOf[dest] = o.flag
	}

	// Open every output up front: a typo'd or unwritable path must fail the
	// run before any simulation happens, not silently discard its results.
	outs := map[string]*os.File{}
	for _, o := range outPaths {
		if o.path == "" {
			continue
		}
		f, err := outFile(o.path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibwan-exp: -%s: %v\n", o.flag, err)
			os.Exit(1)
		}
		outs[o.flag] = f
	}

	var tel *telemetry.Telemetry
	if outs["trace-out"] != nil || outs["metrics-out"] != nil {
		tel = &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		if outs["trace-out"] != nil {
			tel.Spans = telemetry.NewRecorder(0, *spanDepth)
		}
		ropt.Telemetry = tel
	}

	if f := outs["cpuprofile"]; f != nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ibwan-exp: %v\n", err)
			os.Exit(1)
		}
	}
	// Rendered tables would corrupt any machine-readable stream sharing
	// stdout, so '-' on any report flag suppresses them.
	render := outs["json"] != os.Stdout && outs["trace-out"] != os.Stdout &&
		outs["metrics-out"] != os.Stdout && outs["timeline-out"] != os.Stdout
	results, err := run(specs, opt, ropt, outs["json"], *csv, *chart, render)
	if outs["cpuprofile"] != nil {
		pprof.StopCPUProfile()
	}
	if f := outs["memprofile"]; f != nil {
		if merr := writeMemProfile(f); merr != nil && err == nil {
			err = merr
		}
	}
	timelines := collectTimelines(results)
	if err == nil {
		if f := outs["timeline-out"]; f != nil {
			err = writeTimeline(f, *timelineOut, ropt.SampleEvery, timelines)
		}
	}
	if err == nil {
		err = writeTelemetry(outs["trace-out"], outs["metrics-out"], *metricsOut, tel, timelines)
	}
	for _, f := range outs {
		if f != os.Stdout {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibwan-exp: %v\n", err)
		os.Exit(1)
	}
}

// outFile opens an output path for writing; "-" selects stdout.
func outFile(path string) (*os.File, error) {
	if path == "-" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

// collectTimelines flattens the per-experiment sampled timelines in run
// order (empty unless -sample-every was set).
func collectTimelines(results []core.Result) []telemetry.PointTimeline {
	var out []telemetry.PointTimeline
	for _, res := range results {
		out = append(out, res.Timelines...)
	}
	return out
}

// writeTimeline serializes the sampled timelines; a .csv suffix on the
// output path selects CSV, anything else the ibwan-timeline/v1 JSON schema.
func writeTimeline(f *os.File, path string, every sim.Time, pts []telemetry.PointTimeline) error {
	var err error
	if strings.HasSuffix(path, ".csv") {
		err = telemetry.WriteTimelineCSV(f, every, pts)
	} else {
		err = telemetry.WriteTimelineJSON(f, every, pts)
	}
	if err != nil {
		return fmt.Errorf("timeline-out: %w", err)
	}
	return nil
}

// writeTelemetry emits the trace and metrics dumps after the run. The
// metrics format follows the path: a .json suffix (or JSON-loving tools
// reading files by extension) selects the stable JSON schema, anything else
// the aligned text table. Sampled timelines, when present, become Perfetto
// counter tracks alongside the spans.
func writeTelemetry(trace, metrics *os.File, metricsPath string, tel *telemetry.Telemetry, pts []telemetry.PointTimeline) error {
	if tel == nil {
		return nil
	}
	if trace != nil {
		if err := telemetry.WritePerfettoTimeline(trace, tel.Spans, pts); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if metrics != nil {
		var err error
		if strings.HasSuffix(metricsPath, ".json") {
			err = telemetry.WriteMetricsJSON(metrics, tel.Metrics)
		} else {
			err = telemetry.WriteMetricsText(metrics, tel.Metrics)
		}
		if err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}

// run executes the selected experiments and renders or serializes results,
// returning them so main can emit the timeline and trace outputs.
// Profiling bookkeeping stays in main: every exit path from here returns,
// so the profiles are always flushed. Output files arrive as already-open
// handles (nil = not requested).
func run(specs []core.Spec, opt core.Options, ropt core.RunnerOptions, jsonOut *os.File, csv, chart, render bool) ([]core.Result, error) {
	var results []core.Result
	for _, spec := range specs {
		res := core.RunSpec(spec, opt, ropt)
		results = append(results, res)
		if !render {
			continue
		}
		fmt.Printf("=== %s ===\n", res.ID)
		for _, t := range res.Tables {
			switch {
			case csv:
				t.RenderCSV(os.Stdout)
			case chart:
				t.RenderChart(os.Stdout)
			default:
				t.Render(os.Stdout)
			}
		}
		core.RenderErrors(os.Stdout, res.Errors)
	}
	if jsonOut != nil {
		return results, writeJSONReport(jsonOut, opt, ropt, results)
	}
	return results, nil
}

// writeMemProfile records the live-heap allocation profile at exit.
func writeMemProfile(f *os.File) error {
	runtime.GC() // settle the heap so the profile shows retained allocations
	return pprof.WriteHeapProfile(f)
}

// JSON report types: a stable schema for benchmark-trajectory tracking.

// jsonFloats marshals a measurement vector with NaN (a failed point's
// error row) encoded as null — encoding/json rejects NaN outright, which
// would turn one failed point into a lost report.
type jsonFloats []float64

func (v jsonFloats) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('[')
	for i, y := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		if math.IsNaN(y) {
			b.WriteString("null")
		} else {
			fmt.Fprintf(&b, "%g", y)
		}
	}
	b.WriteByte(']')
	return []byte(b.String()), nil
}

type jsonSeries struct {
	Label string     `json:"label"`
	X     jsonFloats `json:"x"`
	Y     jsonFloats `json:"y"`
}

type jsonPointError struct {
	Label string `json:"label"`
	Err   string `json:"err"`
}

// jsonTimeline summarizes one point's sampled timeline (the full series
// live in the -timeline-out file; the report only carries enough to see
// sampling happened and how much).
type jsonTimeline struct {
	Label   string `json:"label"`
	Series  int    `json:"series"`
	Samples int    `json:"samples"`
}

type jsonTable struct {
	Title  string       `json:"title"`
	XLabel string       `json:"x_label"`
	YLabel string       `json:"y_label"`
	Series []jsonSeries `json:"series"`
}

type jsonExperiment struct {
	ID         string  `json:"id"`
	Points     int     `json:"points"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	SimSeconds float64 `json:"sim_s"`
	Events     int64   `json:"events"`
	// Digest fingerprints the order those events ran in (hex; see
	// sim.Env.Digest): equal counts with unequal digests mean reordered ties.
	Digest string `json:"digest"`
	// Sharded-scheduler cost counters (absent on single-heap runs):
	// barrier windows and cumulative safe-horizon advance in simulated
	// seconds. windows/events is the synchronization overhead per event.
	ShardWindows  int64            `json:"shard_windows,omitempty"`
	ShardHorizonS float64          `json:"shard_horizon_s,omitempty"`
	Tables        []jsonTable      `json:"tables"`
	Errors        []jsonPointError `json:"errors,omitempty"`
	Timelines     []jsonTimeline   `json:"timelines,omitempty"`
}

type jsonReport struct {
	Schema        string           `json:"schema"`
	Quick         bool             `json:"quick"`
	Par           int              `json:"par"`
	Cores         int              `json:"cores"`
	SampleEveryNS int64            `json:"sample_every_ns,omitempty"`
	TotalWallMS   float64          `json:"total_wall_ms"`
	Experiments   []jsonExperiment `json:"experiments"`
}

func toJSONTables(tabs []*stats.Table) []jsonTable {
	out := make([]jsonTable, 0, len(tabs))
	for _, t := range tabs {
		jt := jsonTable{Title: t.Title, XLabel: t.XLabel, YLabel: t.YLabel}
		for _, s := range t.Series {
			jt.Series = append(jt.Series, jsonSeries{Label: s.Label, X: s.X, Y: s.Y})
		}
		out = append(out, jt)
	}
	return out
}

func writeJSONReport(w io.Writer, opt core.Options, ropt core.RunnerOptions, results []core.Result) error {
	rep := jsonReport{
		Schema:        "ibwan-exp/v1",
		Quick:         opt.Quick,
		Par:           ropt.Workers,
		Cores:         runtime.NumCPU(),
		SampleEveryNS: int64(ropt.SampleEvery),
	}
	for _, res := range results {
		rep.TotalWallMS += float64(res.Metrics.Wall.Microseconds()) / 1e3
		var errs []jsonPointError
		for _, e := range res.Errors {
			errs = append(errs, jsonPointError{Label: e.Label, Err: e.Err})
		}
		var tls []jsonTimeline
		for _, pt := range res.Timelines {
			tls = append(tls, jsonTimeline{Label: pt.Point, Series: len(pt.Series), Samples: pt.SampleCount()})
		}
		rep.Experiments = append(rep.Experiments, jsonExperiment{
			ID:            res.ID,
			Points:        res.Metrics.Points,
			Workers:       res.Metrics.Workers,
			WallMS:        float64(res.Metrics.Wall.Microseconds()) / 1e3,
			SimSeconds:    res.Metrics.SimTime.Seconds(),
			Events:        res.Metrics.Events,
			Digest:        fmt.Sprintf("%016x", res.Metrics.Digest),
			ShardWindows:  res.Metrics.ShardWindows,
			ShardHorizonS: res.Metrics.ShardHorizon.Seconds(),
			Tables:        toJSONTables(res.Tables),
			Errors:        errs,
			Timelines:     tls,
		})
	}
	return writeJSON(w, rep)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
