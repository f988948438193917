package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/topo"
)

// TestMultisiteQuickClean runs every multisite experiment on the 3-site
// star in Quick mode and requires a fully populated, error-free result —
// except multisite-loss, whose killed-link points must fail with explicit
// ERR rows while every other cell stays finite.
func TestMultisiteQuickClean(t *testing.T) {
	if testing.Short() {
		t.Skip("multisite sweep skipped in -short mode")
	}
	opt := Options{Quick: true, Topo: "star3"}
	for _, id := range []string{"multisite-bcast", "multisite-allreduce", "multisite-nfs"} {
		id := id
		t.Run(id, func(t *testing.T) {
			res := RunWith(id, opt, RunnerOptions{Workers: 4})
			if len(res.Errors) != 0 {
				t.Fatalf("%s errors: %v", id, res.Errors)
			}
			for _, tab := range res.Tables {
				for _, s := range tab.Series {
					for i, y := range s.Y {
						if math.IsNaN(y) || y < 0 {
							t.Errorf("%s %q[%d] = %v", tab.Title, s.Label, i, y)
						}
					}
				}
			}
		})
	}
}

// TestMultisiteLossIsolation pins per-link fault isolation end to end
// through the experiment harness: on the star, killing one of the two hub
// links must fail exactly the destination behind it (one ERR per killed
// link) and leave every other goodput cell intact.
func TestMultisiteLossIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("multisite loss sweep skipped in -short mode")
	}
	res := RunWith("multisite-loss", Options{Quick: true, Topo: "star3"}, RunnerOptions{Workers: 4})
	if got := len(res.Errors); got != 2 {
		t.Fatalf("errors = %d (%v), want exactly 2 (one per killed link)", got, res.Errors)
	}
	for _, e := range res.Errors {
		if !strings.Contains(e.Label, "kill ") {
			t.Errorf("unexpected failing point %q", e.Label)
		}
	}
	nan := 0
	for _, tab := range res.Tables {
		for _, s := range tab.Series {
			if strings.HasPrefix(s.Label, "no-fault") {
				for i, y := range s.Y {
					if math.IsNaN(y) || y <= 0 {
						t.Errorf("baseline %q[%d] = %v", s.Label, i, y)
					}
				}
			}
			for _, y := range s.Y {
				if math.IsNaN(y) {
					nan++
				}
			}
		}
	}
	if nan != 2 {
		t.Errorf("NaN cells = %d, want 2", nan)
	}
	if !strings.Contains(render(res), "ERR") {
		t.Error("rendered output lacks ERR cells")
	}
}

// TestLeafRadixCrossWANExperiment covers fat-tree clusters under a full
// cross-WAN core experiment: the star3 preset builds every site as a
// two-level LeafRadix-2 tree, so multisite-bcast above already crosses
// leaf -> spine -> WAN; this test pins that the preset really is a fat
// tree (so that coverage cannot silently evaporate) and that the
// hierarchical broadcast result stays sane under it.
func TestLeafRadixCrossWANExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("leaf-radix sweep skipped in -short mode")
	}
	spec, err := topo.Preset("star3", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spec.Sites {
		if s.LeafRadix != 2 {
			t.Fatalf("star3 site %q LeafRadix = %d, want 2 (fat-tree coverage)", s.Name, s.LeafRadix)
		}
	}
	res := RunWith("multisite-bcast", Options{Quick: true, Topo: "star3"}, RunnerOptions{Workers: 2})
	if len(res.Errors) != 0 {
		t.Fatalf("errors under fat-tree sites: %v", res.Errors)
	}
	// The latency table must show the hierarchical broadcast no slower
	// than flat at the largest size (where flat pays many WAN crossings).
	lat := res.Tables[0]
	flat, hier := lat.Series[0], lat.Series[1]
	last := len(flat.Y) - 1
	if hier.Y[last] > flat.Y[last] {
		t.Errorf("hier bcast (%v us) slower than flat (%v us) at %v bytes through fat-tree sites",
			hier.Y[last], flat.Y[last], flat.X[last])
	}
}
