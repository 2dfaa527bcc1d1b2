// Package telemetry is the fixture stand-in for the real registry:
// registrations inside it are the implementation, never a finding.
package telemetry

// Counter is a monotonic series.
type Counter struct{}

// Gauge is a point-in-time series.
type Gauge struct{}

// Histogram is a bucketed distribution.
type Histogram struct{}

// Registry hands out instruments.
type Registry struct{}

func (r *Registry) Counter(name, help string, labels ...string) *Counter { return &Counter{} }

func (r *Registry) Gauge(name, help string, labels ...string) *Gauge { return &Gauge{} }

func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return &Histogram{}
}

// Span is a live span.
type Span struct{}

// AddInt attaches an integer attribute; the name must be a
// compile-time constant, same rule as span names.
func (s *Span) AddInt(name string, val int64) {}

// StartSpan opens a span; the name must be a compile-time constant,
// same rule as metric names. ctx stands in for context.Context.
func (r *Registry) StartSpan(ctx any, name string) (Span, any) { return Span{}, ctx }

// internalUse shows in-package dynamic names are exempt.
func internalUse(r *Registry, n string) {
	r.Counter(n, "internal")
	r.StartSpan(nil, n)
}
