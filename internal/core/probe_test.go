package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// runOne executes one point on a fresh Meter the way the runner does and
// returns its value and Executed() count.
func runOne(t *testing.T, pt *Point) (float64, int64) {
	t.Helper()
	m := &Meter{}
	defer m.close()
	y, err := runPoint(pt, m)
	if err != nil {
		t.Fatalf("%s: %v", pt.Label, err)
	}
	return y, m.Events()
}

// TestProbeMatchesRegistryCell runs each probe at parameters that coincide
// with a -quick registry cell and requires the same world: the identical
// float and the identical number of dispatched events. The rendered values
// are the ones `ibwan-exp -quick all` prints (fig5, fig7 and fig11 are also
// in testdata/golden_quick.txt).
func TestProbeMatchesRegistryCell(t *testing.T) {
	for _, c := range []struct {
		probe string // words after "probe"
		id    string // registry experiment
		label string // its point
		want  string // the cell as the figure's table renders it
	}{
		{"perftest -test bw -transport rc -size 4096 -delay 1000 -count 2048",
			"fig5", "fig5/1000us-delay/4K/uni", "16.22"},
		{"ipoib -mode rc -streams 4 -delay 1000 -ms 10",
			"fig7", "fig7b/4-streams/1000us-delay", "888.82"},
		{"ipoib -mode ud -streams 4 -delay 1000 -ms 10",
			"fig6", "fig6b/4-streams/1000us-delay", "445.63"},
		{"mpi -bench bw -size 65536 -delay 1000 -threshold 65536 -iters 4",
			"fig9", "fig9/thresh-64k (tuned)/64K/uni", "244.39"},
		{"mpi -bench bcast -hier -nodes 4 -ppn 2 -size 131072 -delay 1000 -iters 3",
			"fig11", "fig11/1000us-delay/128K/hier", "4375.12"},
		{"nas -kernel IS -class W -procs 16 -delay 1000",
			"fig12", "fig12/IS/1000us-delay", "0.34"},
		{"nfs -transport rdma -threads 8 -delay 1000 -filemb 16",
			"fig13", "fig13a/1000us-delay/8streams", "60.94"},
		{"nfs -transport tcp-rc -threads 8 -delay 1000 -filemb 16",
			"fig13", "fig13/1000us-delay/8streams/ipoib-rc", ""},
	} {
		t.Run(strings.Fields(c.probe)[0]+"="+c.label, func(t *testing.T) {
			spec, err := ProbeSpec(strings.Fields(c.probe))
			if err != nil {
				t.Fatal(err)
			}
			ppl := spec.Build(Options{})
			if len(ppl.Points) != 1 {
				t.Fatalf("probe expands to %d points, want 1", len(ppl.Points))
			}
			var cell *Point
			rpl := mustLookup(c.id).Build(Options{Quick: true})
			for i := range rpl.Points {
				if rpl.Points[i].Label == c.label {
					cell = &rpl.Points[i]
				}
			}
			if cell == nil {
				t.Fatalf("%s has no point %q", c.id, c.label)
			}
			py, pe := runOne(t, &ppl.Points[0])
			ry, re := runOne(t, cell)
			if py != ry {
				t.Errorf("probe measured %v, the registry cell %v", py, ry)
			}
			if pe != re {
				t.Errorf("probe dispatched %d events, the registry cell %d", pe, re)
			}
			if got := fmt.Sprintf("%.2f", py); c.want != "" && got != c.want {
				t.Errorf("probe renders %s, the figure prints %s", got, c.want)
			}
		})
	}
}

// TestProbeRejectsBadFlags pins the validation contract: every value the
// model has no meaning for, and every pair of flags that contradict each
// other, is a one-line usage error naming the flag — before any world is
// built.
func TestProbeRejectsBadFlags(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"", `unknown layer ""`},
		{"iscsi", `unknown layer "iscsi"`},
		{"perftest -size -1", "-size must be at least 1"},
		{"perftest -size 0", "-size must be at least 1"},
		{"perftest -test bw -count 0", "-count must be at least 1"},
		{"perftest -iters 0", "-iters must be at least 1"},
		{"perftest -transport xx", "-transport must be one of rc, ud"},
		{"perftest -test nope", "-test must be one of"},
		{"perftest -test bw -window -1", "-window must be at least 0"},
		{"perftest -transport ud -size 4096", "-size must be at most 2048 for -transport ud"},
		{"perftest -test wlat -transport ud", "needs -transport rc"},
		{"perftest -transport ud -test bw -window 4", "does not apply to -transport ud"},
		{"perftest -delay -5", "-delay must be between 0 and"},
		{"perftest -delay NaN", "-delay must be between 0 and"},
		{"perftest -delay 1e9", "-delay must be between 0 and"},
		{"perftest -size x", "invalid value"},
		{"perftest -nope", "flag provided but not defined"},
		{"perftest fig5", `unexpected argument "fig5"`},
		{"ipoib -mode tcp", "-mode must be one of ud, rc, sdp"},
		{"ipoib -streams 0", "-streams must be at least 1"},
		{"ipoib -ms 0", "-ms must be at least 1"},
		{"ipoib -mode ud -mtu 4096", "-mtu must be 0 or between 576 and 2044"},
		{"ipoib -mode rc -mtu 40", "-mtu must be 0 or between 576 and 65532"},
		{"ipoib -window 1", "-window must be 0 or at least"},
		{"ipoib -mode sdp -window 65536", "do not apply to -mode sdp"},
		{"mpi -size -5", "-size must be at least 1"},
		{"mpi -bench alltoall", "-bench must be one of"},
		{"mpi -iters 0", "-iters must be at least 1"},
		{"mpi -threshold -1", "-threshold must be at least 0"},
		{"mpi -bench mr -pairs 0", "-pairs must be at least 1"},
		{"mpi -bench bcast -nodes 0", "-nodes must be at least 1"},
		{"mpi -bench bw -hier", "does not apply to -bench bw"},
		{"mpi -bench mr -autotune", "does not apply to -bench mr"},
		{"mpi -bench bw -autotune -threshold 65536", "drop -threshold"},
		{"nas -class Z", "-class must be one of B, A, W"},
		{"nas -kernel EP", "-kernel must be one of"},
		{"nas -procs 7", "-procs must be even and at least 2"},
		{"nas -procs 0", "-procs must be even and at least 2"},
		{"nfs -threads 0", "-threads must be at least 1"},
		{"nfs -filemb 0", "-filemb must be at least 1"},
		{"nfs -record 0", "-record must be at least 1"},
		{"nfs -transport udp", "-transport must be one of rdma, tcp-rc, tcp-ud"},
		{"nfs -lan -delay 100", "-delay does not apply"},
	} {
		_, err := ProbeSpec(strings.Fields(c.args))
		if err == nil {
			t.Errorf("probe %s: accepted", c.args)
			continue
		}
		first, _, _ := strings.Cut(err.Error(), "\n")
		if !strings.Contains(first, c.want) {
			t.Errorf("probe %s: first line %q does not mention %q", c.args, first, c.want)
		}
	}
}

// TestProbeSideCells checks the two probes that report more than their
// measurement: the autotuned threshold and the NAS message census land in
// their own tables, and read ERR — not a stale zero — when the point fails.
func TestProbeSideCells(t *testing.T) {
	run := func(args string, ropt RunnerOptions) Result {
		t.Helper()
		spec, err := ProbeSpec(strings.Fields(args))
		if err != nil {
			t.Fatal(err)
		}
		ropt.Workers = 1
		return RunSpec(spec, Options{}, ropt)
	}
	res := run("mpi -bench bw -size 16384 -delay 1000 -autotune", RunnerOptions{})
	if out := renderTables(res); !strings.Contains(out, "1048576.000") || len(res.Errors) != 0 {
		t.Errorf("autotune probe does not report the 1 MB threshold it chose:\n%s", out)
	}
	res = run("nas -kernel CG -class W -procs 4 -profile", RunnerOptions{})
	if len(res.Tables) != 2 || len(res.Tables[1].Series) != 5 || res.Tables[1].Series[0].Y[0] <= 0 {
		t.Errorf("nas -profile does not report a census:\n%s", renderTables(res))
	}
	res = run("nas -kernel CG -class W -procs 4 -delay 100 -profile",
		RunnerOptions{Fault: &fault.Plan{Seed: 1, WANDown: true}})
	if len(res.Errors) != 1 {
		t.Fatalf("dead WAN: %d error rows, want 1", len(res.Errors))
	}
	if out := renderTables(res); strings.Count(out, "ERR") != 6 {
		t.Errorf("dead WAN: want the measurement and all five census cells ERR:\n%s", out)
	}
}
