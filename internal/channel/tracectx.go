package channel

import (
	"errors"
	"fmt"
)

// Trace-context propagation: the wire encoding that lets one trace
// follow a bundle across the secure channel into another process. The
// context rides INSIDE the sealed payload (see session's mux framing),
// never in the cleartext header — trace ids are correlation handles,
// not secrets, but the fixed 32-byte header is part of the attested
// handshake transcript and stays untouched; keeping the context under
// the AEAD also means an on-path attacker cannot splice requests
// across traces.

// ErrShortTraceContext is returned for fewer than TraceContextSize bytes.
var ErrShortTraceContext = errors.New("channel: short trace context")

// TraceContextSize is the wire length of a propagated trace context:
// a 128-bit trace id followed by the 64-bit id of the sending span.
const TraceContextSize = 24

// TraceContext is the propagated identity of the caller's span. Raw
// byte arrays, not telemetry types: the channel layer defines the wire
// format and stays dependency-free; internal/core converts.
type TraceContext struct {
	Trace [16]byte
	Span  [8]byte
}

// Valid reports whether the context names a real span.
func (tc TraceContext) Valid() bool {
	return tc.Trace != [16]byte{} && tc.Span != [8]byte{}
}

// AppendTraceContext appends the 24-byte encoding to dst.
func AppendTraceContext(dst []byte, tc TraceContext) []byte {
	dst = append(dst, tc.Trace[:]...)
	return append(dst, tc.Span[:]...)
}

// ParseTraceContext splits a trace context off the front of b,
// returning the remainder.
func ParseTraceContext(b []byte) (tc TraceContext, rest []byte, err error) {
	if len(b) < TraceContextSize {
		return TraceContext{}, nil, fmt.Errorf("%w (%d bytes)", ErrShortTraceContext, len(b))
	}
	copy(tc.Trace[:], b[:16])
	copy(tc.Span[:], b[16:24])
	return tc, b[TraceContextSize:], nil
}
