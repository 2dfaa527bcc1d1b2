// Package svc consumes the registry from outside the telemetry trust
// boundary: every exported name and label must be a compile-time
// constant or carry a reviewed waiver.
package svc

import "telemetry"

const stage = "decode"

func register(reg *telemetry.Registry, user string, addr string) {
	// Constants — including named constants and concatenations — pass.
	reg.Counter("svc_requests_total", "requests")
	reg.Counter("svc_stage_total", "stages", "stage", stage)
	reg.Gauge("svc_"+stage+"_depth", "depth")
	reg.Histogram("svc_wait_seconds", "wait", nil, "stage", stage)

	// Dynamic metric names leak whatever they interpolate.
	reg.Counter("svc_user_"+user, "per-user") // want `dynamic metric name in telemetry registration \(Registry.Counter\)`
	reg.Gauge(addr, "per-address")            // want `dynamic metric name in telemetry registration \(Registry.Gauge\)`

	// Dynamic label values are the same leak through the side door.
	reg.Counter("svc_calls_total", "calls", "caller", addr)    // want `dynamic label argument in telemetry registration \(Registry.Counter\)`
	reg.Histogram("svc_lat_seconds", "lat", nil, "user", user) // want `dynamic label argument in telemetry registration \(Registry.Histogram\)`

	//hardtape:telemetry-ok backend label is the operator-assigned deployment name
	reg.Counter("svc_backend_total", "per-backend", "backend", user)
}

// registerFleet shows the function-doc waiver: the whole helper exists
// to register operator-named series.
//
//hardtape:telemetry-ok fixture: backend names come from deployment config
func registerFleet(reg *telemetry.Registry, name string) {
	reg.Counter("svc_fleet_total", "fleet", "backend", name)
	reg.Gauge("svc_fleet_depth", "fleet", "backend", name)
}

// A waiver without a reason must NOT suppress.
func silent(reg *telemetry.Registry, name string) {
	//hardtape:telemetry-ok
	reg.Counter("svc_silent_total", "silent", "backend", name) // want `dynamic label argument in telemetry registration \(Registry.Counter\)`
}

const stageSpan = "svc." + stage

// spans applies the same constant-name rule to trace spans and their
// attributes: the names index the exported trace records, so a dynamic
// one leaks whatever it interpolates (attribute values are integers).
func spans(reg *telemetry.Registry, user string, txHash string, n int64) {
	// Constants, including named-constant concatenations, pass.
	sp, ctx := reg.StartSpan(nil, "svc.handle")
	sp.AddInt("backend", n)
	reg.StartSpan(ctx, stageSpan)

	sp.AddInt(user, n) // want `dynamic span attribute name in telemetry registration \(Span.AddInt\)`

	reg.StartSpan(ctx, "svc."+user) // want `dynamic span name in telemetry registration \(Registry.StartSpan\)`
	reg.StartSpan(ctx, txHash)      // want `dynamic span name in telemetry registration \(Registry.StartSpan\)`

	// The context argument is not a name: a dynamic one is fine.
	reg.StartSpan(user, "svc.ctx")

	//hardtape:telemetry-ok fixture: operator-chosen stage name
	reg.StartSpan(ctx, user)
}
