package ipoib

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/sim"
)

type fakePkt struct{ id int }

func twoDevs(t *testing.T, mode Mode, mtu int, delay sim.Time) (*sim.Env, *NetDev, *NetDev) {
	t.Helper()
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	n := NewNetwork()
	da := n.Attach(tb.A[0].HCA, mode, mtu)
	db := n.Attach(tb.B[0].HCA, mode, mtu)
	return env, da, db
}

func TestDatagramDelivery(t *testing.T) {
	env, da, db := twoDevs(t, Datagram, 0, 0)
	var got []int
	var lens []int
	db.SetHandler(func(src ib.LID, payload any, length int, ecn bool) {
		got = append(got, payload.(*fakePkt).id)
		lens = append(lens, length)
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			da.Send(db.LID(), &fakePkt{id: i}, 1500)
		}
	})
	env.Run()
	env.Shutdown()
	if len(got) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v", got)
		}
		if lens[i] != 1500 {
			t.Fatalf("length = %d, want 1500", lens[i])
		}
	}
}

func TestConnectedDelivery(t *testing.T) {
	env, da, db := twoDevs(t, Connected, 0, sim.Micros(100))
	count := 0
	db.SetHandler(func(src ib.LID, payload any, length int, ecn bool) {
		count++
		if length != 60000 {
			t.Errorf("length = %d, want 60000", length)
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			da.Send(db.LID(), nil, 60000)
		}
	})
	env.Run()
	env.Shutdown()
	if count != 3 {
		t.Fatalf("delivered %d, want 3", count)
	}
	if da.TxPackets() != 3 || db.RxPackets() != 3 {
		t.Errorf("counters tx=%d rx=%d", da.TxPackets(), db.RxPackets())
	}
}

func TestDatagramMTULimit(t *testing.T) {
	env, da, db := twoDevs(t, Datagram, 0, 0)
	_ = env
	defer func() {
		if recover() == nil {
			t.Fatal("oversize datagram send did not panic")
		}
	}()
	da.Send(db.LID(), nil, DatagramMTU+1)
}

func TestConnectedCustomMTU(t *testing.T) {
	env, da, db := twoDevs(t, Connected, 16384, 0)
	_ = env
	if da.MTU() != 16384 {
		t.Fatalf("MTU = %d", da.MTU())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("send above configured MTU did not panic")
		}
	}()
	da.Send(db.LID(), nil, 16385)
}

func TestBidirectionalTraffic(t *testing.T) {
	env, da, db := twoDevs(t, Datagram, 0, sim.Micros(10))
	gotA, gotB := 0, 0
	da.SetHandler(func(src ib.LID, payload any, length int, ecn bool) { gotA++ })
	db.SetHandler(func(src ib.LID, payload any, length int, ecn bool) { gotB++ })
	env.Go("a", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			da.Send(db.LID(), nil, 1000)
			p.Sleep(sim.Microsecond)
		}
	})
	env.Go("b", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			db.Send(da.LID(), nil, 1000)
			p.Sleep(sim.Microsecond)
		}
	})
	env.Run()
	env.Shutdown()
	if gotA != 7 || gotB != 10 {
		t.Errorf("gotA=%d gotB=%d, want 7/10", gotA, gotB)
	}
}

// TestMixedModeSendPanics: the two modes do not interoperate, so a send
// from one mode to an interface of the other is a panic naming both, in
// either direction.
func TestMixedModeSendPanics(t *testing.T) {
	for _, c := range []struct {
		from, to Mode
		want     string
	}{
		{Datagram, Connected, "ipoib: UD-mode send to RC-mode interface"},
		{Connected, Datagram, "ipoib: RC-mode send to UD-mode interface"},
	} {
		t.Run(c.from.String()+"-to-"+c.to.String(), func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Shutdown()
			tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1})
			n := NewNetwork()
			src := n.Attach(tb.A[0].HCA, c.from, 0)
			dst := n.Attach(tb.B[0].HCA, c.to, 0)
			defer func() {
				if got, _ := recover().(string); !strings.HasPrefix(got, c.want) {
					t.Fatalf("send panicked with %q, want %q", got, c.want)
				}
			}()
			src.Send(dst.LID(), nil, 1000)
		})
	}
}

// TestAttachConnectsEarlierCMInterfaces: a connected-mode interface opens
// exactly one RC pair to every earlier connected-mode interface of its
// network, in attach order, and a datagram interface opens none; Attach
// schedules nothing but the first activation of the interface's CQ handler.
func TestAttachConnectsEarlierCMInterfaces(t *testing.T) {
	env := sim.NewEnv()
	defer env.Shutdown()
	tb := cluster.New(env, cluster.Config{NodesA: 2, NodesB: 2})
	n := NewNetwork()
	var cm []*NetDev
	var ud *NetDev
	for i, node := range tb.Nodes() {
		before := env.Pending()
		if i == 1 {
			ud = n.Attach(node.HCA, Datagram, 0)
		} else {
			cm = append(cm, n.Attach(node.HCA, Connected, 0))
		}
		if got := env.Pending() - before; got != 1 {
			t.Errorf("attach %d scheduled %d entries, want 1 (the CQ handler's)", i, got)
		}
	}
	if len(ud.conns) != 0 || len(ud.qps) != 1 {
		t.Errorf("datagram interface holds %d connections and %d QPs, want 0 and 1", len(ud.conns), len(ud.qps))
	}
	// Pairs are made as each later interface attaches, earlier end first, so
	// walking them in that order must visit consecutive QPNs.
	var qpns []int
	for j, later := range cm {
		for _, earlier := range cm[:j] {
			qpns = append(qpns, earlier.conns[later.LID()].QPN(), later.conns[earlier.LID()].QPN())
		}
	}
	for i := 1; i < len(qpns); i++ {
		if qpns[i] != qpns[0]+i {
			t.Fatalf("QPNs in pair order = %v, want consecutive", qpns)
		}
	}
	for _, d := range cm {
		if len(d.conns) != len(cm)-1 || len(d.qps) != len(cm)-1 {
			t.Errorf("%s holds %d connections and %d QPs, want %d of each", d.HCA().Name(), len(d.conns), len(d.qps), len(cm)-1)
		}
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1})
	n := NewNetwork()
	n.Attach(tb.A[0].HCA, Datagram, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	n.Attach(tb.A[0].HCA, Connected, 0)
}
