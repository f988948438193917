package repro

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// pair builds the standard one-node-per-cluster WAN testbed.
func pair(delay sim.Time) (*sim.Env, *cluster.Testbed) {
	env := sim.NewEnv()
	tb := cluster.New(env, cluster.Config{NodesA: 1, NodesB: 1, Delay: delay})
	return env, tb
}
