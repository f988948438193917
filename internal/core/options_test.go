package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestOptionsFillDefaults(t *testing.T) {
	o := Options{}.filled()
	if o.NASClass != "B" || o.NFSFileMB != 512 || o.TCPMillis != 60 || o.Topo != "star3" {
		t.Errorf("paper-fidelity defaults wrong: %+v", o)
	}

	q := Options{Quick: true}.filled()
	if q.NASClass != "W" || q.NFSFileMB != 16 || q.TCPMillis != 10 {
		t.Errorf("quick defaults wrong: %+v", q)
	}
}

func TestOptionsFillPreservesOverrides(t *testing.T) {
	o := Options{Quick: true, NASClass: "A", NFSFileMB: 64, TCPMillis: 25, Topo: "ring4"}.filled()
	if o.NASClass != "A" || o.NFSFileMB != 64 || o.TCPMillis != 25 || o.Topo != "ring4" {
		t.Errorf("explicit settings clobbered by filled: %+v", o)
	}
	// filling must be idempotent.
	if again := o.filled(); again != o {
		t.Errorf("filled not idempotent: %+v -> %+v", o, again)
	}
}

func TestOptionsDelays(t *testing.T) {
	full := Options{}.delays()
	if !reflect.DeepEqual(full, cluster.PaperDelays()) {
		t.Errorf("full delays = %v, want paper sweep", full)
	}
	quick := Options{Quick: true}.delays()
	want := []sim.Time{0, sim.Micros(1000)}
	if !reflect.DeepEqual(quick, want) {
		t.Errorf("quick delays = %v, want %v", quick, want)
	}
}

func TestOptionsSizes(t *testing.T) {
	// Full mode: every power of two, inclusive bounds.
	full := Options{}.sizes(2, 16)
	if !reflect.DeepEqual(full, []int{2, 4, 8, 16}) {
		t.Errorf("sizes(2,16) = %v", full)
	}
	// Quick mode truncates to first/middle/last.
	all := stats.Sizes(2, 4<<20)
	quick := Options{Quick: true}.sizes(2, 4<<20)
	want := []int{all[0], all[len(all)/2], all[len(all)-1]}
	if !reflect.DeepEqual(quick, want) {
		t.Errorf("quick sizes = %v, want %v", quick, want)
	}
	if quick[0] != 2 || quick[2] != 4<<20 {
		t.Errorf("quick sizes must keep the boundary sizes: %v", quick)
	}
	// Quick mode leaves short sweeps (<= 3 sizes) untouched.
	short := Options{Quick: true}.sizes(8, 32)
	if !reflect.DeepEqual(short, []int{8, 16, 32}) {
		t.Errorf("quick sizes(8,32) = %v, want all three", short)
	}
	// Degenerate single-size sweep.
	one := Options{Quick: true}.sizes(64, 64)
	if !reflect.DeepEqual(one, []int{64}) {
		t.Errorf("sizes(64,64) = %v", one)
	}
}

// TestOptionsValidate: every field a run can get wrong is refused with the
// message the CLI prints, naming the flag that sets it; zero values and
// every preset pass. A registry or probe Build given such Options panics
// with the same message before it builds a point.
func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{
		{},
		{Quick: true, NASClass: "A", NFSFileMB: 1, TCPMillis: 1, Fault: &fault.Plan{WANLoss: 1}},
		{Topo: "mesh4"}, {Topo: "paper"}, {Topo: "star3-hetero"},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	for _, c := range []struct {
		opt  Options
		want string
	}{
		{Options{Topo: "bogus"}, `-topo: topo: unknown preset "bogus"`},
		{Options{TCPMillis: -5}, "-tcpms must not be negative (got -5)"},
		{Options{NFSFileMB: -1}, "-filemb must not be negative (got -1)"},
		{Options{NASClass: "Z"}, `-class must be one of B, A, W (got "Z")`},
		{Options{Fault: &fault.Plan{TCPLoss: math.NaN()}}, "-fault: fault: TCPLoss probability NaN outside [0, 1]"},
		{Options{Fault: &fault.Plan{WANFlaps: []fault.FlapStep{{At: -1}}}}, "-fault: fault: flap step 0 at negative time"},
	} {
		err := c.opt.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%+v: Validate() = %v, want %q", c.opt, err, c.want)
			continue
		}
		for _, build := range []func(Options) *Plan{mustLookup("multisite-bcast").Build, probeSpec(t, "nas").Build} {
			func() {
				defer func() {
					if r := recover(); r != "core: "+err.Error() {
						t.Errorf("%+v: Build panicked with %v, want Validate's message", c.opt, r)
					}
				}()
				build(c.opt)
			}()
		}
	}
}

func probeSpec(t *testing.T, args string) Spec {
	t.Helper()
	spec, err := ProbeSpec(strings.Fields(args))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
