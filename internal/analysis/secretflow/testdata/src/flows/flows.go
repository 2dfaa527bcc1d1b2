// Package flows exercises the secretflow analyzer: seeded leaks the
// dataflow layer must catch (positives) and sanctioned or innocent
// flows it must stay silent on (negatives).
package flows

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"

	"session"
	"telemetry"
)

// --- positives ----------------------------------------------------------

// Positive 1: secret-named identifier straight into an error string.
func direct(sessionKey []byte) error {
	return fmt.Errorf("bad key %x", sessionKey) // want `secret material flows into format args \(fmt\.Errorf\)`
}

// Positive 2: a key threaded through two helpers before the log call
// — only the transfer summaries can see this.
func hexify(b []byte) string { return string(b) }
func wraps(b []byte) string  { return hexify(b) }
func twoHops(psk []byte) {
	log.Printf("handshake psk=%s", wraps(psk)) // want `log output \(log\.Printf\)`
}

// Positive 3: result of a session key-derivation API is a source even
// though no identifier is secret-named.
func derived(id uint64) error {
	var material [32]byte
	k := session.TrafficKey(material, id)
	return errors.New(string(k[:])) // want `error value \(errors\.New\)`
}

// Positive 4: field sensitivity — the stek field carries taint.
type ticket struct {
	stek [32]byte
	name string
}

func field(t ticket) {
	fmt.Printf("ticket stek %x\n", t.stek) // want `format args \(fmt\.Printf\)`
}

// Positive 5: propagation through a method value.
type deriver struct{}

func (deriver) mix(k []byte) []byte { return k }

func methodValue(secret []byte) {
	d := deriver{}
	f := d.mix
	out := f(secret)
	log.Println(out) // want `log output \(log\.Println\)`
}

// Positive 6: interface dispatch propagates conservatively.
type kdf interface{ Derive(in []byte) []byte }

func dispatch(k kdf, seed []byte) {
	out := k.Derive(seed)
	fmt.Println(out) // want `format args \(fmt\.Println\)`
}

// Positive 7: raw key material written to the wire without Seal.
func wire(conn net.Conn, stek []byte) {
	conn.Write(stek) // want `unsealed wire write`
}

// Positive 8: telemetry label value built from a secret.
func labels(r *telemetry.Registry, psk string) {
	r.Counter("hardtape_resumes_total", "resumes", psk) // want `telemetry name/label \(Registry\.Counter\)`
}

// Positive 9: secret as a flag default crosses into cmd/ surface.
func flags(seedHex string) {
	flag.String("seed", seedHex, "initial seed") // want `flag registration \(flag\.String\)`
}

// Positive 10a: a derived key smuggled into a span NAME — span records
// ship to the untrusted side with the trace reply (dynamic names are
// also telemetrysafe violations, but the taint must be caught even
// where the name is built from a secret).
func spanName(reg *telemetry.Registry, id uint64) {
	var material [32]byte
	k := session.TrafficKey(material, id)
	reg.StartSpan(nil, string(k[:])) // want `trace span name \(Registry\.StartSpan\)`
}

// Positive 10b: copy moves the secret bytes themselves.
func copied(psk []byte) {
	out := make([]byte, len(psk))
	copy(out, psk)
	fmt.Printf("copied %x\n", out) // want `format args \(fmt\.Printf\)`
}

// --- negatives ----------------------------------------------------------

// Negative 1: non-secret field of the same struct stays clean.
func fieldNeg(t ticket) {
	fmt.Printf("ticket name %s\n", t.name)
}

// Negative 2: sealed bytes are sanctioned to leave the trusted path.
func seal(b []byte) []byte { return append([]byte{1}, b...) }

func wireNeg(conn net.Conn, stek []byte) {
	ct := seal(stek)
	conn.Write(ct)
}

// Negative 3: lengths and counts of secrets are aggregates, not
// secrets.
func lenNeg(sessionKey []byte) error {
	return fmt.Errorf("key length %d", len(sessionKey))
}

// Negative 4: public keys are named like keys but are public.
func pubNeg(pubKey []byte) {
	fmt.Printf("device pub %x\n", pubKey)
}

// Negative 5: an explicit waiver with a reason suppresses, and stays
// reviewable.
func waived(psk []byte) {
	fmt.Printf("debug psk %x\n", psk) //hardtape:secret-ok fixture: documented debug-only build
}

// Negative 6: wiping a key is not exfiltration.
func zeroNeg(sessionKey []byte) {
	session.Zero(sessionKey)
}

// Negative 7: span attributes carry counts and public structure;
// AddInt cannot carry byte taint at all.
func spanNeg(reg *telemetry.Registry, sessionKey []byte) {
	sp, _ := reg.StartSpan(nil, "device.bundle")
	sp.AddInt("key_bytes", int64(len(sessionKey)))
}
