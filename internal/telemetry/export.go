package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// WritePrometheus renders every series in the Prometheus text
// exposition format (text/plain; version=0.0.4), families sorted by
// name with HELP/TYPE emitted once per family. A nil registry renders
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, m := range r.sortedSeries() {
		d := descOf(m)
		if d.name != lastFamily {
			fmt.Fprintf(bw, "# HELP %s %s\n", d.name, d.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", d.name, d.kind)
			lastFamily = d.name
		}
		switch v := m.(type) {
		case *Counter:
			fmt.Fprintf(bw, "%s%s %d\n", d.name, d.labelString(), v.Value())
		case *Gauge:
			fmt.Fprintf(bw, "%s%s %d\n", d.name, d.labelString(), v.Value())
		case *Histogram:
			writePromHistogram(bw, v)
		}
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram's cumulative buckets plus
// the _sum/_count pair, merging the le label into existing labels.
func writePromHistogram(w io.Writer, h *Histogram) {
	d := &h.d
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", d.name, labelStringWith(d, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", d.name, d.labelString(), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", d.name, d.labelString(), h.Count())
}

// labelStringWith renders the desc's labels plus one extra pair.
func labelStringWith(d *desc, k, v string) string {
	ext := desc{labels: append(append([]string(nil), d.labels...), k, v)}
	return ext.labelString()
}

// formatFloat renders a float the way Prometheus clients expect.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Snapshot is the machine-readable registry dump: one entry per
// series, the shape the admin endpoint's /metrics.json emits.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one series' point-in-time state.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter/gauge readings.
	Value *float64 `json:"value,omitempty"`
	// Histogram fields.
	Count     *uint64            `json:"count,omitempty"`
	Sum       *float64           `json:"sum,omitempty"`
	Buckets   []BucketSnapshot   `json:"buckets,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// BucketSnapshot is one histogram bucket (non-cumulative count). The
// bound is a string because the last bucket's bound is +Inf, which
// JSON numbers cannot carry. Exemplar, when present, names the most
// recent traced observation that landed in the bucket — follow the
// trace id to /traces/{id} on the admin endpoint.
type BucketSnapshot struct {
	UpperBound string            `json:"le"`
	Count      uint64            `json:"count"`
	Exemplar   *ExemplarSnapshot `json:"exemplar,omitempty"`
}

// ExemplarSnapshot is the exported form of a bucket exemplar.
type ExemplarSnapshot struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"ts"`
}

// Snapshot captures every series. A nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	for _, m := range r.sortedSeries() {
		d := descOf(m)
		ms := MetricSnapshot{Name: d.name, Type: d.kind.String()}
		if len(d.labels) > 0 {
			ms.Labels = make(map[string]string, len(d.labels)/2)
			for i := 0; i+1 < len(d.labels); i += 2 {
				ms.Labels[d.labels[i]] = d.labels[i+1]
			}
		}
		switch v := m.(type) {
		case *Counter:
			f := float64(v.Value())
			ms.Value = &f
		case *Gauge:
			f := float64(v.Value())
			ms.Value = &f
		case *Histogram:
			count, sum := v.Count(), v.Sum()
			ms.Count, ms.Sum = &count, &sum
			ms.Buckets = make([]BucketSnapshot, 0, len(v.buckets))
			for i := range v.buckets {
				ub := "+Inf"
				if i < len(v.bounds) {
					ub = formatFloat(v.bounds[i])
				}
				bs := BucketSnapshot{UpperBound: ub, Count: v.buckets[i].Load()}
				if ex := v.BucketExemplar(i); ex != nil {
					bs.Exemplar = &ExemplarSnapshot{
						TraceID: ex.Trace.String(), Value: ex.Value, Time: ex.When,
					}
				}
				ms.Buckets = append(ms.Buckets, bs)
			}
			if count > 0 {
				ms.Quantiles = map[string]float64{
					"p50": v.Quantile(0.50),
					"p90": v.Quantile(0.90),
					"p99": v.Quantile(0.99),
				}
			}
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

// WriteJSON emits the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
