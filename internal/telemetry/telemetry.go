// Package telemetry is the simulator's cross-layer observability subsystem:
// a metrics registry (counters, log-linear histograms — allocation
// free on the record path), a hierarchical stage-span recorder keyed on
// sim.Time, and exporters (Chrome trace-event JSON for Perfetto, plain-text
// and JSON metrics dumps).
//
// A Telemetry handle is attached to a sim.Env through the environment's
// opaque telemetry slot; every layer (verbs fabric, WAN extenders, TCP
// stack, MPI library, NFS client) looks it up at setup time with FromEnv
// and caches the metric and track handles it needs. When nothing is
// attached the layers keep nil handles, whose record methods are no-ops —
// the disabled path costs one nil check and zero allocations.
package telemetry

import "repro/internal/sim"

// Telemetry bundles the observability sinks for one recording session.
// Either field may be nil: Metrics enables the registry, Spans enables
// stage-span and wire-instant recording (which also forces the experiment
// runner to a single worker, as the recorder is single-writer).
type Telemetry struct {
	Metrics *Registry
	Spans   *Recorder
}

// Attach installs t on the environment. Layers created on env afterwards
// will find it via FromEnv.
func Attach(env *sim.Env, t *Telemetry) {
	if t == nil {
		return
	}
	env.SetTelemetry(t)
}

// FromEnv returns the Telemetry attached to env, or nil.
func FromEnv(env *sim.Env) *Telemetry {
	if env == nil {
		return nil
	}
	t, _ := env.Telemetry().(*Telemetry)
	return t
}
