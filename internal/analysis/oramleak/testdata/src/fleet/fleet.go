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

// The disk-backed and TCP stores are the same trust boundary: batched
// raw access and bucket tampering are findings there too.
func probeDurable(f *oram.FileServer, r *oram.RemoteServer) {
	f.ReadPaths(nil)       // want `direct ORAM server access \(FileServer.ReadPaths\) outside internal/oram`
	f.WritePaths(nil, nil) // want `direct ORAM server access \(FileServer.WritePaths\) outside internal/oram`
	r.ReadPath(0)          // want `direct ORAM server access \(RemoteServer.ReadPath\) outside internal/oram`
	//hardtape:oram-direct fixture: corruption injection for the recovery experiment
	f.TamperBucket(0)
}

// tap embeds a store the way the stores embed their path store: the
// methods it promotes are still the raw store, one hop further out.
type tap struct {
	*oram.MemServer
	hits int
}

func probeWrapped(w *tap, iface struct{ oram.Server }) {
	w.ReadPath(1)          // want `direct ORAM server access \(pathStore.ReadPath\) outside internal/oram`
	w.WritePaths(nil, nil) // want `direct ORAM server access \(pathStore.WritePaths\) outside internal/oram`
	iface.ReadPath(1)      // want `direct ORAM server access \(Server.ReadPath\) outside internal/oram`
	//hardtape:oram-direct fixture: the wrapper forwards the oblivious client's own request
	w.TamperBucket(0)
	w.hits = w.Leaves() // promoted metadata stays fine
}

// Reading server metadata (not a raw-store method) is fine.
func capacity(s *oram.MemServer) int {
	return s.Leaves()
}

// Lifecycle methods on the durable store don't touch buckets.
func flush(f *oram.FileServer) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
