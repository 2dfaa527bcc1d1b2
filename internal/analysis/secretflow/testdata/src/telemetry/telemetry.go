// Package telemetry is a secretflow fixture stand-in for the real
// registry: the "telemetry" path element plus the Registry type name
// is what the sink matcher keys on.
package telemetry

// Registry mimics the real registration API shape.
type Registry struct{}

// Counter registers a counter series.
func (r *Registry) Counter(name, help string, labels ...string) int { return 0 }

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) int { return 0 }

// StartSpan opens a named span; the name argument is a secretflow
// sink. ctx stands in for context.Context.
func (r *Registry) StartSpan(ctx any, name string) (*Span, any) { return &Span{}, ctx }

// Span mimics a live span.
type Span struct{}

// AddInt attaches an integer attribute (not a byte-like sink).
func (s *Span) AddInt(key string, val int64) {}
