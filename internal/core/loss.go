package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The loss-* family extends the paper's study to lossy WAN circuits: the
// paper's testbed link is clean, but a production IB-WAN circuit (§6,
// "dedicated connections ... may not always be the case") sees packet
// loss, bit errors and outages. Each point arms a per-point seeded fault
// plan via Meter.WithFault, so results are reproducible bit-for-bit at
// any runner parallelism: the seed depends only on the point's label.

// seedFor derives a point's fault seed from its label (FNV-1a), so the
// fault pattern is a pure function of the point identity — independent of
// execution order, parallelism, and the presence of other experiments.
func seedFor(label string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	return h
}

// lossQPCfg is the RC tuning the loss experiments use: a deep retry
// budget with a short timeout, so per-packet loss costs retransmission
// time instead of killing the connection (the verbs default of 7 retries
// at 500 ms is tuned for a clean fabric, not a lossy WAN).
func lossQPCfg() ib.QPConfig {
	return ib.QPConfig{RetryLimit: 30, RetryTimeout: 5 * sim.Millisecond}
}

// lossRates is the per-packet WAN loss sweep, in percent.
func lossRates(quick bool) []float64 {
	if quick {
		return []float64{0, 1}
	}
	return []float64{0, 0.1, 1, 2}
}

// lossGoodput measures RC streaming goodput against per-packet WAN loss,
// one series per WAN delay. Loss hurts quadratically with delay: every
// retransmission costs a timeout plus another WAN round trip.
func lossGoodput(opt Options) *Plan {
	t := stats.NewTable("Loss: RC Streaming Goodput vs WAN Packet Loss",
		"Loss (%)", "Goodput (MillionBytes/s)")
	pl := &Plan{Tables: []*stats.Table{t}}
	size := 64 << 10
	count := 512
	if opt.Quick {
		count = 96
	}
	for _, d := range []sim.Time{0, sim.Millisecond} {
		s := t.AddSeries(fmt.Sprintf("delay-%v", d))
		for _, pct := range lossRates(opt.Quick) {
			label := fmt.Sprintf("loss-goodput/%v/%g%%", d, pct)
			pl.point(s, pct, label, func(m *Meter) float64 {
				m.WithFault(&fault.Plan{Seed: seedFor(label), WANLoss: pct / 100})
				env, tb := m.pair(d)
				return perftest.StreamRC(env, tb.A[0].HCA, tb.B[0].HCA, size, count, lossQPCfg())
			})
		}
	}
	return pl
}

// lossLatency measures small-message RC send/recv latency against
// per-packet WAN loss: each lost packet stalls its round trip for a full
// retransmission timeout, so the mean degrades sharply even at sub-percent
// loss.
func lossLatency(opt Options) *Plan {
	t := stats.NewTable("Loss: RC Send/Recv Latency (8-byte) vs WAN Packet Loss",
		"Loss (%)", "Latency (us)")
	s := t.AddSeries("rc-8B")
	pl := &Plan{Tables: []*stats.Table{t}}
	iters := 200
	if opt.Quick {
		iters = 50
	}
	for _, pct := range lossRates(opt.Quick) {
		label := fmt.Sprintf("loss-latency/%g%%", pct)
		pl.point(s, pct, label, func(m *Meter) float64 {
			m.WithFault(&fault.Plan{Seed: seedFor(label), WANLoss: pct / 100})
			env, tb := m.pair(0)
			return perftest.PingRC(env, tb.A[0].HCA, tb.B[0].HCA, 8, iters, lossQPCfg()).Microseconds()
		})
	}
	return pl
}

// lossFlap measures RC streaming goodput across a scheduled WAN outage
// (link down at one quarter of the nominal transfer, back up after the
// outage duration). The RC retry machinery bridges the gap; goodput
// decreases with outage length because the elapsed time absorbs the
// outage plus the retransmission backoff.
func lossFlap(opt Options) *Plan {
	t := stats.NewTable("Loss: RC Streaming Goodput vs WAN Outage (link flap)",
		"Outage (ms)", "Goodput (MillionBytes/s)")
	s := t.AddSeries("rc-64KB")
	pl := &Plan{Tables: []*stats.Table{t}}
	size := 64 << 10
	count := 512
	if opt.Quick {
		count = 96
	}
	outages := []sim.Time{0, 10 * sim.Millisecond, 50 * sim.Millisecond}
	if opt.Quick {
		outages = []sim.Time{0, 10 * sim.Millisecond}
	}
	for _, outage := range outages {
		label := fmt.Sprintf("loss-flap/%v", outage)
		pl.point(s, outage.Seconds()*1e3, label, func(m *Meter) float64 {
			plan := &fault.Plan{Seed: seedFor(label)}
			if outage > 0 {
				down := 2 * sim.Millisecond // inside the transfer
				plan.WANFlaps = []fault.FlapStep{
					{At: down, Down: true},
					{At: down + outage, Down: false},
				}
			}
			m.WithFault(plan)
			env, tb := m.pair(0)
			return perftest.StreamRC(env, tb.A[0].HCA, tb.B[0].HCA, size, count, lossQPCfg())
		})
	}
	return pl
}

// lossTCP measures IPoIB-CM single-stream TCP goodput against per-segment
// loss inside the TCP stack — the classic TCP-under-loss curve, recovered
// by the stack's RTO retransmission with exponential backoff.
func lossTCP(opt Options) *Plan {
	// TCP pays a full RTO (50 ms) per loss, so the window must span many
	// RTO stalls for the goodput estimate to mean anything, and the loss
	// sweep sits an order of magnitude below the verbs one.
	if opt.TCPMillis < 400 {
		opt.TCPMillis = 400
	}
	rates := []float64{0, 0.02, 0.1, 0.2}
	if opt.Quick {
		rates = []float64{0, 0.1}
	}
	t := stats.NewTable("Loss: IPoIB-CM TCP Goodput vs Segment Loss",
		"Loss (%)", "Goodput (MillionBytes/s)")
	s := t.AddSeries("1-stream")
	pl := &Plan{Tables: []*stats.Table{t}}
	for _, pct := range rates {
		label := fmt.Sprintf("loss-tcp/%g%%", pct)
		pl.point(s, pct, label, func(m *Meter) float64 {
			m.WithFault(&fault.Plan{Seed: seedFor(label), TCPLoss: pct / 100})
			return tcpPoint(m, ipoib.Connected, 0, 0, 1, 0, opt)
		})
	}
	return pl
}
