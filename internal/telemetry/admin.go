package telemetry

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// NewAdminMux builds the admin endpoint's routes on a private mux
// (never the DefaultServeMux, so importing this package leaks nothing
// into other servers):
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot (Registry.WriteJSON)
//	/traces        flight-recorder index (when tracing is enabled)
//	/traces/{id}   one trace; ?format=chrome for chrome://tracing
//	/healthz       liveness probe
//	/debug/pprof/  net/http/pprof profiles
//
// The endpoint is operator-facing and opt-in; it serves only
// aggregates the untrusted SP already observes (see the package
// comment on the threat model) but should still bind loopback or a
// management network, not the user-facing address.
func NewAdminMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//hardtape:faulterr-ok a failed scrape write only ends that response; the server must keep serving
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		//hardtape:faulterr-ok a failed scrape write only ends that response; the server must keep serving
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		rec := reg.FlightRecorder()
		if rec == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		//hardtape:faulterr-ok a failed scrape write only ends that response; the server must keep serving
		_ = writeTraceIndex(w, rec)
	})
	mux.HandleFunc("/traces/", func(w http.ResponseWriter, r *http.Request) {
		rec := reg.FlightRecorder()
		if rec == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		id, ok := ParseTraceID(strings.TrimPrefix(r.URL.Path, "/traces/"))
		if !ok {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		t := rec.Lookup(id)
		if t == nil {
			http.Error(w, "trace not found (evicted or sampled out)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("format") == "chrome" {
			//hardtape:faulterr-ok a failed scrape write only ends that response; the server must keep serving
			_ = WriteChromeTrace(w, t)
			return
		}
		//hardtape:faulterr-ok a failed scrape write only ends that response; the server must keep serving
		_ = WriteTraceJSON(w, t)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is the opt-in observability endpoint. It owns its
// listener and serve goroutine; Close shuts it down gracefully
// (in-flight scrapes finish) and waits for the goroutine to drain, so
// tests can assert no leaks the same way core's ServeListener tests
// do.
type AdminServer struct {
	srv      *http.Server
	listener net.Listener

	done chan struct{} // closed when the serve goroutine exits

	mu     sync.Mutex
	closed bool
}

// ShutdownGrace bounds how long Close waits for in-flight requests
// (long-running pprof profiles are cut off, not waited out).
const ShutdownGrace = 2 * time.Second

// StartAdmin listens on addr and serves the admin endpoint for reg in
// a background goroutine.
func StartAdmin(addr string, reg *Registry) (*AdminServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen: %w", err)
	}
	a := &AdminServer{
		srv: &http.Server{
			Handler:           NewAdminMux(reg),
			ReadHeaderTimeout: 5 * time.Second,
		},
		listener: l,
		done:     make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		//hardtape:faulterr-ok ErrServerClosed is the normal shutdown signal; Close surfaces real errors
		_ = a.srv.Serve(l)
	}()
	return a, nil
}

// Addr reports the bound address (use with ":0" listeners).
func (a *AdminServer) Addr() string { return a.listener.Addr().String() }

// Close gracefully shuts the server down: the listener closes
// immediately, in-flight requests get ShutdownGrace to finish, then
// remaining connections are forced closed. It waits for the serve
// goroutine to exit and is idempotent.
func (a *AdminServer) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return nil
	}
	a.closed = true
	a.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		// Laggard connections (an abandoned pprof stream) are cut off.
		err = a.srv.Close()
	}
	<-a.done
	return err
}
