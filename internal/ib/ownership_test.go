package ib

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// shardLine builds a partitioned world of n sites in a line — one switch per
// shard, neighbours joined by links of the given delay — with an HCA at each
// end, and returns the two HCAs. The world draws on arena (nil: none).
func shardLine(arena *sim.Arena, workers, n int, delay sim.Time) (*sim.Env, *HCA, *HCA) {
	env := arena.NewEnv()
	env.SetShardWorkers(workers)
	views := env.Partition(n)
	f := NewFabric(env)
	sws := make([]*Switch, n)
	for i, v := range views {
		f.UseEnv(v)
		sws[i] = f.AddSwitch(fmt.Sprintf("sw%d", i), SwitchDelay)
		if i > 0 {
			f.Connect(sws[i-1], sws[i], SDR, delay)
			views[i-1].RegisterLookaheadBetween(v, delay)
			v.RegisterLookaheadBetween(views[i-1], delay)
		}
	}
	f.UseEnv(views[0])
	a := f.AddHCA("a")
	f.Connect(a, sws[0], SDR, DefaultCableDelay)
	f.UseEnv(views[n-1])
	b := f.AddHCA("b")
	f.Connect(b, sws[n-1], SDR, DefaultCableDelay)
	f.Finalize()
	return env, a, b
}

// pooled returns the records on f, the last put first, and leaves f holding
// them again. Putting them back resets them, so check, if not nil, sees each
// one first, as the list held it.
func pooled[T any](f *sim.Free[T], check func(*T)) []*T {
	var all []*T
	for f.Len() > 0 {
		v := f.Get()
		if check != nil {
			check(v)
		}
		all = append(all, v)
	}
	for i := len(all) - 1; i >= 0; i-- {
		f.Put(all[i])
	}
	return all
}

// TestOwnershipOneWayStream streams RC messages one way across a
// partitioned world. Every data packet and every transfer is taken from the
// sender's pool and last touched on the receiver's shard; every ack packet
// the other way round. With the return lane working, both go home at each
// barrier: after thousands of packets neither pool has allocated more than
// what is in flight between two barriers, and — the failure of releasing to
// the consumer instead — neither has hoarded the other's objects.
func TestOwnershipOneWayStream(t *testing.T) {
	for _, shards := range []int{2, 4} {
		// The counts hold whatever the pools are made of: the world's own
		// memory, an arena's, or an arena's that an earlier world already
		// filled (the same traffic leaves the same lists).
		arena := sim.NewArena()
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, on := range []struct {
				name  string
				arena *sim.Arena
			}{{"plain", nil}, {"arena", arena}, {"arena-again", arena}} {
				t.Run(on.name, func(t *testing.T) {
					env, a, b := shardLine(on.arena, shards, shards, 100*sim.Microsecond)
					const size, count = 16 << 10, 2000
					qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{MaxInflight: 16})
					b.Env().Go("recv", func(p *sim.Proc) {
						for i := 0; i < count; i++ {
							qb.PostRecv(RecvWR{})
						}
						for i := 0; i < count; i++ {
							qb.CQ().Poll(p)
						}
					})
					a.Env().Go("send", func(p *sim.Proc) {
						// Keep the QP's window full and no more: a transfer exists
						// from post to completion.
						for posted, done := 0, 0; done < count; {
							for ; posted < count && posted-done < 16; posted++ {
								qa.PostSend(SendWR{Op: OpSend, Len: size})
							}
							if c := qa.CQ().Poll(p); c.Status != StatusOK {
								panic(c.Status)
							}
							done++
						}
					})
					env.Run()
					env.Shutdown()
					defer on.arena.Reclaim(env)
					if got := qb.Stats().MsgsRecv; got != count {
						t.Fatalf("received %d of %d messages", got, count)
					}
					dataPkts := count * (size / MTU)
					// In flight at once: 16 messages of 8 packets; a window batches a
					// few of those rounds.
					const bound = 16 * (size / MTU) * 4
					for _, h := range []*HCA{a, b} {
						// What came home is zeroed: a packet keeps no home, a
						// transfer no origin and no receiving QP. A packet that
						// carried a train keeps the record, zeroed.
						pkts := pooled(h.pool.pkts, func(pkt *packet) {
							tr := pkt.train
							if *pkt != (packet{train: tr}) || tr != nil && *tr != (train{}) {
								t.Fatalf("%s pooled a packet that is not zeroed: %+v", h.name, *pkt)
							}
						})
						xfers := pooled(h.pool.xfers, func(x *transfer) {
							if x.origin != nil || x.resp != nil || x.state.Load() != 0 {
								t.Fatalf("%s pooled a transfer that is not reset: origin %v resp %v state %d",
									h.name, x.origin != nil, x.resp != nil, x.state.Load())
							}
						})
						t.Logf("%s: %d packets and %d transfers pooled for %d data packets, %d messages",
							h.name, len(pkts), len(xfers), dataPkts, count)
						if n := len(pkts); n == 0 || n > bound {
							t.Errorf("%s holds %d pooled packets after %d crossed, want 1..%d", h.name, n, dataPkts, bound)
						}
					}
					if n := a.pool.xfers.Len(); n == 0 || n > bound {
						t.Errorf("the sender holds %d pooled transfers after %d messages, want 1..%d", n, count, bound)
					}
					if n := b.pool.xfers.Len(); n != 0 {
						t.Errorf("the receiver pooled %d of the sender's transfers", n)
					}
				})
			}
		})
	}
}

// TestPooledPacketsZeroedAtHome: on a world of one environment every packet
// is freed where it was made, so it goes straight back on its list instead of
// taking the return lane TestOwnershipOneWayStream covers; it too comes back
// zeroed, keeping only its train record, zeroed.
func TestPooledPacketsZeroedAtHome(t *testing.T) {
	env, _, a, b, _ := backToBack(t)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{})
	measureBW(env, qa, qb, 4*MTU, 64)
	trains := 0
	pooled(a.pool.pkts, func(pkt *packet) {
		tr := pkt.train
		if *pkt != (packet{train: tr}) || tr != nil && *tr != (train{}) {
			t.Fatalf("pooled a packet that is not zeroed: %+v", *pkt)
		}
		if tr != nil {
			trains++
		}
	})
	if trains == 0 {
		t.Errorf("%d packets pooled, none with a train record", a.pool.pkts.Len())
	}
}

// TestTransferReleasedOnce: the two endpoints of a transfer finish with it
// in the same window, on different shards and so on different workers — the
// initiator completing it while the responder drops the last reference.
// Exactly one of them may see the state word reach xferDone; a second
// observer frees the transfer twice (the pool ends up long), none leaves it
// to the collector (short). Each comes home reset, as it left the responder.
func TestTransferReleasedOnce(t *testing.T) {
	for name, arena := range map[string]*sim.Arena{"plain": nil, "arena": sim.NewArena()} {
		t.Run(name, func(t *testing.T) {
			env, a, b := shardLine(arena, 2, 2, 10*sim.Millisecond)
			qa, _ := CreateRCPair(a, b, nil, nil, QPConfig{})
			const n = 5000
			for i := 0; i < n; i++ {
				tr := &transfer{origin: qa}
				tr.state.Store(1) // the responder's reference
				at := sim.Time(i) * sim.Nanosecond
				a.Env().At(at, func() { a.pool.endpointDone(tr, xferSenderDone) })
				b.Env().At(at, func() {
					b.pool.endpointDone(tr, xferRecvDone)
					b.pool.unref(tr)
				})
			}
			env.Run()
			unreset := 0
			home := pooled(a.pool.xfers, func(x *transfer) {
				if x.origin != nil || x.state.Load() != 0 {
					unreset++
				}
			})
			if got := len(home); got != n {
				t.Fatalf("%d transfers came home for %d released", got, n)
			}
			if got := b.pool.xfers.Len(); got != 0 {
				t.Fatalf("%d transfers landed in the responder's pool", got)
			}
			if unreset != 0 {
				t.Fatalf("%d of %d transfers came home without their reset", unreset, n)
			}
		})
	}
}

// blank returns where v — a record as its reset left it — holds more than
// memory: a field set, a reference, a map with entries, a slot of a kept
// array that is not zero, up to its capacity (a ring's or a stamp table's
// length is its size, so a slice's is not looked at); or "" where it holds
// none. keep lists the paths a reset may leave set.
func blank(v reflect.Value, path string, keep ...string) string {
	if slices.Contains(keep, path) {
		return ""
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if s := blank(v.Field(i), path+"."+v.Type().Field(i).Name, keep...); s != "" {
				return s
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if s := blank(v.Index(i), fmt.Sprintf("%s[%d]", path, i), keep...); s != "" {
				return s
			}
		}
	case reflect.Slice:
		for i, all := 0, v.Slice(0, v.Cap()); i < all.Len(); i++ {
			if s := blank(all.Index(i), fmt.Sprintf("%s[%d]", path, i), keep...); s != "" {
				return s
			}
		}
	case reflect.Map:
		if v.Len() != 0 {
			return path + " has entries"
		}
	default:
		if !v.IsZero() {
			return path + " is set"
		}
	}
	return ""
}

// TestOwnershipFabricRecordsComeBackBlank: a partitioned world with RC and UD
// queue pairs, a completion handler and unpolled completions, stopped with
// messages in flight and receives posted, gives its arena every fabric record
// it made — the fabric, a pool per shard, the switches, links, HCAs, QPs and
// CQs — on the shard index of the environment that made it, each holding
// memory and nothing else: no state, no reference into the world.
func TestOwnershipFabricRecordsComeBackBlank(t *testing.T) {
	const shards = 3
	arena := sim.NewArena()
	env, a, b := shardLine(arena, 2, shards, 100*sim.Microsecond)
	qa, qb := CreateRCPair(a, b, nil, nil, QPConfig{MaxInflight: 4})
	ua := a.CreateQP(NewCQ(a.Env()), QPConfig{Transport: UD})
	ub := b.CreateQP(NewCQ(b.Env()), QPConfig{Transport: UD})
	handled := 0
	qb.CQ().SetHandler(func(Completion) { handled++ })
	for i := 0; i < 64; i++ {
		qb.PostRecv(RecvWR{Ctx: i})
		ub.PostRecv(RecvWR{Buf: make([]byte, 16)})
		qa.PostSend(SendWR{Op: OpSend, Len: 16 << 10, Ctx: i})
		ua.PostSend(SendWR{Op: OpSend, Len: 512, DestLID: b.LID(), DestQPN: ub.QPN(), Ctx: i})
	}
	env.RunUntil(500 * sim.Microsecond)
	if handled == 0 || qa.window.Len() == 0 || qb.recvQ.Len() == 0 || qa.CQ().Len() == 0 {
		t.Fatalf("the world is not mid-stream at the stop: %d handled, window %d, receives %d, unpolled %d",
			handled, qa.window.Len(), qb.recvQ.Len(), qa.CQ().Len())
	}
	env.Shutdown()
	arena.Reclaim(env)

	next := arena.NewEnv()
	views := next.Partition(shards)
	got := make([]map[string]int, shards)
	for i, v := range views {
		got[i] = map[string]int{}
		check := func(kind string, r any, keep ...string) {
			got[i][kind]++
			if s := blank(reflect.ValueOf(r).Elem(), kind, keep...); s != "" {
				t.Errorf("a reclaimed %s is not blank: %s", kind, s)
			}
		}
		pooled(sim.FreeOf(v, (*Fabric).reset), func(r *Fabric) { check("fabric", r) })
		pooled(sim.FreeOf(v, (*pool).reset), func(r *pool) { check("pool", r) })
		pooled(sim.FreeOf(v, (*Switch).reset), func(r *Switch) { check("switch", r, "switch.deliver") })
		pooled(sim.FreeOf(v, (*Link).reset), func(r *Link) { check("link", r) })
		pooled(sim.FreeOf(v, (*HCA).reset), func(r *HCA) { check("hca", r) })
		pooled(sim.FreeOf(v, (*QP).reset), func(r *QP) { check("qp", r) })
		pooled(sim.FreeOf(v, (*CQ).reset), func(r *CQ) { check("cq", r, "cq.drain") })
	}
	// Shard 0 holds the fabric, switch 0, HCA a with its QPs and CQs and the
	// links from them; the middle shard its switch and the link onward; the
	// last shard switch 2 and HCA b's.
	want := []map[string]int{
		{"fabric": 1, "pool": 1, "switch": 1, "link": 2, "hca": 1, "qp": 2, "cq": 2},
		{"pool": 1, "switch": 1, "link": 1},
		{"pool": 1, "switch": 1, "link": 1, "hca": 1, "qp": 2, "cq": 2},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("records by shard index %v, want %v", got, want)
	}
	next.Shutdown()
	arena.Reclaim(next)
}
