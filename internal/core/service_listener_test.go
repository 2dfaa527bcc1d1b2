package core

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestServeListenerConcurrentSessions drives many parallel sessions —
// some well-behaved, some torn down abruptly mid-session — and checks
// that every connection goroutine winds down once the listener closes
// (no goroutine leak from half-open sessions).
func TestServeListenerConcurrentSessions(t *testing.T) {
	sr := newRig(t, serviceWorld, config(ConfigES, 2, 0))

	baseline := runtime.NumGoroutine()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = sr.svc.ServeListener(l)
	}()

	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer conn.Close()
			c, err := Dial(conn, sr.verifier(), true)
			if err != nil {
				t.Errorf("attest %d: %v", i, err)
				return
			}
			if i%2 == 0 {
				// Abrupt teardown: hang up right after the handshake
				// (and, for some, mid-request) without a clean close.
				if i%4 == 0 {
					// Announce a frame, deliver half of it, slam the door.
					_, _ = conn.Write([]byte{0, 0, 0, 64, 'p', 'a', 'r', 't'})
				}
				conn.Close()
				_ = c
				return
			}
			res, err := c.PreExecute(sr.transferBundleFrom(t, i, uint64(i+1)))
			if err != nil {
				t.Errorf("pre-execute %d: %v", i, err)
				return
			}
			if len(res.Trace.Txs) != 1 {
				t.Errorf("session %d: bad trace", i)
			}
		}(i)
	}
	wg.Wait()

	// Shut down: the accept loop must exit and every per-connection
	// goroutine must drain.
	l.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeListener did not return after listener close")
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		// Allow a small slack over the pre-listener baseline: the
		// runtime's own pollers fluctuate.
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}
