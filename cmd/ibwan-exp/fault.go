package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
)

// parseFaultSpec turns the -fault flag into a run-wide chaos plan, whose
// values core.Options.Validate checks. The grammar is an optional link
// restriction followed by a comma-separated list of levers:
//
//	link=NAME:               restrict the WAN levers to the named link on
//	                         multi-link topologies, NAME in siteA-siteB
//	                         form (e.g. link=r1-r2:wan-down); the default
//	                         arms every WAN link
//	wan-down                 take the WAN link down permanently
//	wan-loss=P               per-packet WAN loss probability (0..1)
//	wan-corrupt=P            per-packet WAN corruption probability (0..1)
//	wan-flap=AT:DUR          WAN outage: down at AT, back up after DUR
//	                         (Go durations, e.g. wan-flap=5ms:20ms)
//	tcp-loss=P               per-segment loss inside the TCP stack (0..1)
//	seed=N                   fault-decision seed (default 1)
//
// Example: -fault wan-loss=0.01,seed=7
func parseFaultSpec(spec string) (*fault.Plan, error) {
	p := &fault.Plan{Seed: 1}
	if rest, ok := strings.CutPrefix(spec, "link="); ok {
		name, body, ok := strings.Cut(rest, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("link= wants link=NAME:levers (e.g. link=r1-r2:wan-down)")
		}
		p.Link = name
		spec = body
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, hasVal := strings.Cut(item, "=")
		switch key {
		case "wan-down":
			if hasVal {
				return nil, fmt.Errorf("wan-down takes no value")
			}
			p.WANDown = true
		case "wan-loss", "wan-corrupt", "tcp-loss":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", key, err)
			}
			switch key {
			case "wan-loss":
				p.WANLoss = f
			case "wan-corrupt":
				p.WANCorrupt = f
			case "tcp-loss":
				p.TCPLoss = f
			}
		case "wan-flap":
			at, dur, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("wan-flap wants AT:DUR (e.g. 5ms:20ms)")
			}
			atD, err := time.ParseDuration(at)
			if err != nil {
				return nil, fmt.Errorf("wan-flap at: %v", err)
			}
			durD, err := time.ParseDuration(dur)
			if err != nil {
				return nil, fmt.Errorf("wan-flap duration: %v", err)
			}
			down := sim.Time(atD.Nanoseconds())
			p.WANFlaps = append(p.WANFlaps,
				fault.FlapStep{At: down, Down: true},
				fault.FlapStep{At: down + sim.Time(durD.Nanoseconds()), Down: false})
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed: %v", err)
			}
			p.Seed = n
		default:
			return nil, fmt.Errorf("unknown fault lever %q", key)
		}
	}
	return p, nil
}
