package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The multisite-* family runs the paper's workloads on N-site topologies —
// the "cluster-of-clusters" deployments its conclusion motivates — built
// through internal/topo. Options.Topo picks the site graph (any topo
// preset); every experiment is a pure function of (preset, options), so
// star-vs-ring comparisons are two invocations of the same id. The family
// exercises what the two-site testbed cannot: multi-hop routing through
// intermediate sites, per-link WAN-byte accounting for the hierarchical
// collectives, and faults that kill one link of many.

// multisite builds the preset topology at the given all-links delay. A
// malformed spec fails the point (ERR row), never the run.
func (m *Meter) multisite(opt Options, delay sim.Time) *topo.Network {
	nw, err := topo.Build(m.NewEnv(), opt.preset(delay))
	m.Check(err)
	return nw
}

// multisiteTitle stamps a table title with the topology it ran on.
func multisiteTitle(opt Options, what string) string {
	return fmt.Sprintf("Multisite [%s]: %s", opt.Topo, what)
}

// bcastOnce runs a single broadcast of size bytes from rank 0 across every
// node of the network and returns the number of bytes the chosen WAN link
// carried for it.
func bcastOnce(nw *topo.Network, size int, hier bool, link *topo.WANLink) int64 {
	w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
	defer w.Shutdown()
	before := link.Pair.Link().TxTotal()
	w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if hier {
			r.HierBcast(p, 0, nil, size)
		} else {
			r.Bcast(p, 0, nil, size)
		}
	})
	return link.Pair.Link().TxTotal() - before
}

// multisiteBcast compares the stock and WAN-aware broadcasts on the
// configured topology: latency vs message size at 1 ms link delay, plus
// the per-link WAN byte count for a fixed 64 KB broadcast — the
// generalization of Fig. 11 that shows the hierarchical algorithm paying
// each link once while the flat algorithms re-cross them.
func multisiteBcast(opt Options) *Plan {
	const delay = sim.Millisecond
	lat := stats.NewTable(multisiteTitle(opt, "broadcast latency, 1ms links"),
		"Message Size (Bytes)", "Latency (us)")
	bytesT := stats.NewTable(multisiteTitle(opt, "broadcast WAN bytes per link, 64KB payload"),
		"Link Index", "WAN Bytes")
	pl := &Plan{Tables: []*stats.Table{lat, bytesT}}
	sizes := opt.sizes(64, 128<<10)
	iters := 3
	if opt.Quick {
		iters = 2
	}
	for _, hier := range []bool{false, true} {
		variant := "Flat"
		if hier {
			variant = "Hier"
		}
		s := lat.AddSeries(variant)
		for _, size := range sizes {
			label := fmt.Sprintf("multisite-bcast/%s/%s/%s", opt.Topo, variant, stats.FormatSize(float64(size)))
			pl.point(s, float64(size), label, func(m *Meter) float64 {
				nw := m.multisite(opt, delay)
				w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
				defer w.Shutdown()
				return mpi.BcastLatency(w, size, iters, hier).Microseconds()
			})
		}
		sb := bytesT.AddSeries(variant)
		// One point per WAN link: the link count is a pure function of the
		// preset, so the table shape is known at build time.
		t := opt.preset(delay)
		for li := range t.Links {
			li, lk := li, t.Links[li]
			label := fmt.Sprintf("multisite-bcast/%s/%s/link%d[%s:%s]", opt.Topo, variant, li, lk.A, lk.B)
			pl.point(sb, float64(li), label, func(m *Meter) float64 {
				nw := m.multisite(opt, delay)
				return float64(bcastOnce(nw, 64<<10, hier, nw.Links()[li]))
			})
		}
	}
	return pl
}

// allreduceLatency measures the mean latency of iters allreduces of a
// vals-element float64 vector across the whole world.
func allreduceLatency(w *mpi.World, vals, iters int, hier bool) sim.Time {
	fin := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		vec := make([]float64, vals)
		for i := 0; i < iters; i++ {
			if hier {
				r.HierAllreduce(p, vec)
			} else {
				r.Allreduce(p, vec)
			}
		}
	})
	return fin / sim.Time(iters)
}

// multisiteAllreduce compares flat and hierarchical allreduce across the
// configured topology as link delay grows: the flat algorithm's
// reduce+broadcast re-crosses WAN links with log(n) rounds, while the
// site-tree variant pays each link one vector in each direction.
func multisiteAllreduce(opt Options) *Plan {
	t := stats.NewTable(multisiteTitle(opt, "allreduce latency (1024 doubles)"),
		"Delay (usecs)", "Latency (us)")
	pl := &Plan{Tables: []*stats.Table{t}}
	const vals = 1024
	iters := 3
	if opt.Quick {
		iters = 2
	}
	for _, hier := range []bool{false, true} {
		variant := "Flat"
		if hier {
			variant = "Hier"
		}
		s := t.AddSeries(variant)
		for _, d := range opt.delays() {
			label := fmt.Sprintf("multisite-allreduce/%s/%s/%s", opt.Topo, variant, delayLabel(d))
			pl.point(s, d.Microseconds(), label, func(m *Meter) float64 {
				nw := m.multisite(opt, d)
				w := mpi.NewWorld(nw.Env, nw.Nodes(), mpi.Config{})
				defer w.Shutdown()
				return allreduceLatency(w, vals, iters, hier).Microseconds()
			})
		}
	}
	return pl
}

// multisiteNFS mounts one NFS/RDMA client per satellite site against a
// server at the first site and measures per-client IOzone read throughput
// — the paper's cluster-of-clusters NFS scenario (Fig. 13) with clients
// more than one WAN hop away on ring topologies.
func multisiteNFS(opt Options) *Plan {
	t := stats.NewTable(multisiteTitle(opt, "NFS/RDMA read throughput, server at first site"),
		"Client Site Index", "Throughput (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{t}}
	fileMB := int64(opt.NFSFileMB)
	if fileMB > 64 {
		fileMB = 64 // steady-state read: a modest file bounds per-point cost
	}
	spec := opt.preset(0)
	for _, d := range []sim.Time{0, sim.Millisecond} {
		s := t.AddSeries(delayLabel(d))
		for si := 1; si < len(spec.Sites); si++ {
			si, site := si, spec.Sites[si].Name
			label := fmt.Sprintf("multisite-nfs/%s/%s/site-%s", opt.Topo, delayLabel(d), site)
			pl.point(s, float64(si), label, func(m *Meter) float64 {
				nw := m.multisite(opt, d)
				srvNode := nw.Sites()[0].Nodes[0]
				clNode := nw.Sites()[si].Nodes[0]
				srv, cl := nfs.MountRDMA(srvNode, clNode)
				srv.AddSyntheticFile("f", fileMB<<20)
				return nfs.IOzone(nw.Env, cl, "f", nfs.IOzoneConfig{
					FileSize: fileMB << 20, RecordSize: 256 << 10, Threads: 2,
				})
			})
		}
	}
	return pl
}

// multisiteLoss streams RC traffic from the first site to every other site
// while killing one WAN link per series: destinations whose route crosses
// the dead link fail with explicit ERR rows (retry exhaustion), while the
// rest keep their full goodput — per-link fault isolation that a
// single-link testbed cannot express. The no-fault series is the baseline.
func multisiteLoss(opt Options) *Plan {
	t := stats.NewTable(multisiteTitle(opt, "RC goodput with one WAN link down"),
		"Destination Site Index", "Goodput (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{t}}
	size := 64 << 10
	count := 256
	if opt.Quick {
		count = 64
	}
	spec := opt.preset(0)
	kills := make([]int, 0, len(spec.Links)+1)
	kills = append(kills, -1) // baseline: no link killed
	for li := range spec.Links {
		kills = append(kills, li)
	}
	for _, kill := range kills {
		name := "no-fault"
		if kill >= 0 {
			name = fmt.Sprintf("kill %s:%s", spec.Links[kill].A, spec.Links[kill].B)
		}
		s := t.AddSeries(name)
		for si := 1; si < len(spec.Sites); si++ {
			si, site := si, spec.Sites[si].Name
			label := fmt.Sprintf("multisite-loss/%s/%s/site-%s", opt.Topo, name, site)
			pl.point(s, float64(si), label, func(m *Meter) float64 {
				spec := opt.preset(0)
				if kill >= 0 {
					spec.Links[kill].Fault = &fault.Plan{Seed: seedFor(label), WANDown: true}
				}
				nw, err := topo.Build(m.NewEnv(), spec)
				m.Check(err)
				src := nw.Sites()[0].Nodes[0].HCA
				dst := nw.Sites()[si].Nodes[0].HCA
				return perftest.StreamRC(nw.Env, src, dst, size, count, lossQPCfg())
			})
		}
	}
	return pl
}
