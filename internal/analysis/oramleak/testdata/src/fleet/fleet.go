// Package fleet is outside the ORAM trust boundary: raw server access
// from here bypasses the oblivious client.
package fleet

import "oram"

func probe(s *oram.MemServer) {
	s.ReadPath(3)       // want `direct ORAM server access \(MemServer.ReadPath\) outside internal/oram`
	s.TamperBucket(0)   // want `direct ORAM server access \(MemServer.TamperBucket\) outside internal/oram`
	s.WritePath(3, nil) // want `direct ORAM server access \(MemServer.WritePath\) outside internal/oram`
	//hardtape:oram-direct fixture: adversary observation point for the experiment
	s.SetObserver(func(oram.AccessEvent) {})
}

// The TCP transport is the same trust boundary: raw access through it
// is a finding too.
func probeRemote(r *oram.RemoteServer) {
	r.ReadPath(0) // want `direct ORAM server access \(RemoteServer.ReadPath\) outside internal/oram`
	_ = r.Close() // lifecycle methods don't touch buckets
}

// tap embeds a store: the methods it promotes are still the raw store,
// one hop further out.
type tap struct {
	*oram.MemServer
	hits int
}

func probeWrapped(w *tap, iface struct{ oram.Server }) {
	w.ReadPath(1)          // want `direct ORAM server access \(MemServer.ReadPath\) outside internal/oram`
	w.WritePaths(nil, nil) // want `direct ORAM server access \(MemServer.WritePaths\) outside internal/oram`
	iface.ReadPath(1)      // want `direct ORAM server access \(Server.ReadPath\) outside internal/oram`
	//hardtape:oram-direct fixture: the wrapper forwards the oblivious client's own request
	w.TamperBucket(0)
	w.hits = w.Leaves() // promoted metadata stays fine
}

// Reading server metadata (not a raw-store method) is fine.
func capacity(s *oram.MemServer) int {
	return s.Leaves()
}
