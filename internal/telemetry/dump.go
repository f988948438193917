package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Metrics dump exporters: a human-readable text table and a stable JSON
// schema. Both render the same Snapshot, sorted by metric name, so output
// is deterministic for a deterministic run.

// metricsReport is the JSON dump schema.
type metricsReport struct {
	Schema  string           `json:"schema"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// WriteMetricsJSON dumps the registry as JSON ("ibwan-metrics/v1").
func WriteMetricsJSON(w io.Writer, r *Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(metricsReport{Schema: "ibwan-metrics/v1", Metrics: r.Snapshot()})
}

// WriteMetricsText dumps the registry as aligned plain text: one row per
// metric, a histogram's quantiles in place of its buckets.
func WriteMetricsText(w io.Writer, r *Registry) error {
	snaps := r.Snapshot()
	width := 0
	for _, s := range snaps {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range snaps {
		switch s.Kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%-9s %-*s %d\n", s.Kind, width, s.Name, s.Value); err != nil {
				return err
			}
		case "hires":
			// A histogram is a percentile instrument: the quantile row is
			// the payload, the (many) buckets stay in the JSON dump only.
			if _, err := fmt.Fprintf(w, "%-9s %-*s count=%d sum=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f p999=%.0f\n",
				s.Kind, width, s.Name, s.Count, s.Sum, s.Mean, s.P50, s.P90, s.P99, s.P999); err != nil {
				return err
			}
		}
	}
	return nil
}
