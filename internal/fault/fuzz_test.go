package fault

import (
	"encoding/binary"
	"testing"

	"repro/internal/ib"
	"repro/internal/sim"
)

// decodeFlaps turns fuzz bytes into a candidate flap schedule: 9 bytes per
// step (8 of time, 1 whose bit 2 is the edge). Times are folded into ±10
// virtual seconds so negative, zero, unsorted and duplicate times all occur.
func decodeFlaps(data []byte) (flaps []FlapStep) {
	for i := 0; i+9 <= len(data); i += 9 {
		at := sim.Time(int64(binary.LittleEndian.Uint64(data[i:])) % int64(10*sim.Second))
		flaps = append(flaps, FlapStep{At: at, Down: data[i+8]&4 != 0})
	}
	return flaps
}

// FuzzSchedule feeds arbitrary flap schedules and probabilities through
// plan validation and, when accepted, arms them and pushes packets through
// while the schedule plays out. The invariants: Validate and AttachPlan
// agree; an accepted plan arms without panicking and schedules nothing of
// its own; every packet sent while the schedule says the link is down is
// dropped; and the environment always drains.
func FuzzSchedule(f *testing.F) {
	f.Add(uint64(1), 0.01, 0.001, []byte{})
	// A valid two-edge flap.
	valid := make([]byte, 18)
	binary.LittleEndian.PutUint64(valid[0:], uint64(sim.Millisecond))
	valid[8] = 4 // down
	binary.LittleEndian.PutUint64(valid[9:], uint64(2*sim.Millisecond))
	valid[17] = 0 // up
	f.Add(uint64(7), 0.0, 0.0, valid)
	// An out-of-order pair (must be rejected).
	bad := make([]byte, 18)
	binary.LittleEndian.PutUint64(bad[0:], uint64(2*sim.Millisecond))
	bad[8] = 0
	binary.LittleEndian.PutUint64(bad[9:], uint64(sim.Millisecond))
	bad[17] = 0
	f.Add(uint64(7), 0.5, 1.5, bad)

	f.Fuzz(func(t *testing.T, seed uint64, wanLoss, tcpLoss float64, data []byte) {
		flaps := decodeFlaps(data)
		p := &Plan{Seed: seed, WANLoss: wanLoss, TCPLoss: tcpLoss, WANFlaps: flaps}
		verr := p.Validate()
		env := sim.NewEnv()
		defer env.Shutdown()
		aerr := AttachPlan(env, p)
		if (verr == nil) != (aerr == nil) {
			t.Fatalf("Validate err=%v but AttachPlan err=%v", verr, aerr)
		}
		if verr != nil {
			if PlanFromEnv(env) != nil {
				t.Fatal("rejected plan left attached to env")
			}
			return
		}
		link := wanLink(env)
		in := p.ArmWAN(link)
		if in == nil && p.wanEnabled() {
			t.Fatal("valid WAN plan armed no injector")
		}
		if p.ArmTCP() == nil && p.TCPLoss > 0 {
			t.Fatal("valid TCP plan armed no injector")
		}
		if n := env.Pending(); n != 0 {
			t.Fatalf("arming scheduled %d events", n)
		}
		for i := 0; i < 50; i++ {
			d := sim.Time(i) * 200 * sim.Millisecond
			env.At(d, func() {
				if link.DropFn == nil {
					return
				}
				now := env.Now()
				down := false // the last step at or before now decides
				for _, s := range flaps {
					if s.At <= now {
						down = s.Down
					}
				}
				if !link.DropFn(now, ib.Crossing{Wire: 1500}) && down {
					t.Fatalf("packet at %v survived a link the schedule has down", now)
				}
			})
		}
		env.Run()
		if env.Now() < 0 {
			t.Fatalf("simulation ended at negative time %v", env.Now())
		}
	})
}
