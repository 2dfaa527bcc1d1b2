package session

import (
	"crypto/subtle"
	"sync"

	"hardtape/internal/attest"
)

// DefaultVerdictTTLEpochs is how long a cached attestation verdict
// stays fresh (4 hours of one-minute epochs): a reconnecting user
// re-verifies the full certificate chain at most that often.
const DefaultVerdictTTLEpochs = 240

// verdictKey identifies a cached verdict: the device identity AND the
// image measurement it was verified under. A device that reboots into
// a different image misses the cache and pays the full chain verify.
type verdictKey struct {
	serial      string
	measurement [32]byte
}

// VerdictCache remembers which device public key the user verified for
// a given identity + image measurement. Entries expire by epoch; an
// explicit revocation list overrides the cache (and blocks resumes)
// immediately. Safe for concurrent use.
type VerdictCache struct {
	clock Clock
	ttl   uint64 // epochs

	mu      sync.Mutex
	entries map[verdictKey]verdictEntry
	revoked map[string]struct{}
	hits    uint64
	misses  uint64
}

type verdictEntry struct {
	devPub []byte // uncompressed point, verified against the mfr chain
	expiry uint64 // epoch
}

// NewVerdictCache creates a cache with the given clock (nil for the
// system clock) and TTL in epochs (<= 0 for the default).
func NewVerdictCache(clock Clock, ttlEpochs int) *VerdictCache {
	if clock == nil {
		clock = SystemClock()
	}
	if ttlEpochs <= 0 {
		ttlEpochs = DefaultVerdictTTLEpochs
	}
	return &VerdictCache{
		clock:   clock,
		ttl:     uint64(ttlEpochs),
		entries: make(map[verdictKey]verdictEntry),
		revoked: make(map[string]struct{}),
	}
}

// Lookup returns the cached, chain-verified device public key for the
// identity + measurement, or nil on miss/expiry/revocation.
func (vc *VerdictCache) Lookup(serial string, measurement [32]byte) []byte {
	now := EpochAt(vc.clock.Now())
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if _, bad := vc.revoked[serial]; bad {
		vc.misses++
		return nil
	}
	ent, ok := vc.entries[verdictKey{serial, measurement}]
	if !ok || now > ent.expiry {
		if ok {
			delete(vc.entries, verdictKey{serial, measurement})
		}
		vc.misses++
		return nil
	}
	vc.hits++
	pub := make([]byte, len(ent.devPub))
	copy(pub, ent.devPub)
	return pub
}

// Store records a freshly chain-verified device public key.
func (vc *VerdictCache) Store(serial string, measurement [32]byte, devPub []byte) {
	now := EpochAt(vc.clock.Now())
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if _, bad := vc.revoked[serial]; bad {
		return
	}
	pub := make([]byte, len(devPub))
	copy(pub, devPub)
	vc.entries[verdictKey{serial, measurement}] = verdictEntry{devPub: pub, expiry: now + vc.ttl}
}

// Revoke blacklists a device: its cached verdicts are dropped, future
// Store calls are ignored, and Check fails with ErrDeviceRevoked. Used
// when the manufacturer or fleet operator distrusts a serial.
func (vc *VerdictCache) Revoke(serial string) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.revoked[serial] = struct{}{}
	for k := range vc.entries {
		if k.serial == serial {
			delete(vc.entries, k)
		}
	}
}

// Check returns ErrDeviceRevoked if the serial is on the revocation
// list. Resume paths consult this before presenting a ticket.
func (vc *VerdictCache) Check(serial string) error {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if _, bad := vc.revoked[serial]; bad {
		return ErrDeviceRevoked
	}
	return nil
}

// Stats reports cache hits and misses (telemetry, tests).
func (vc *VerdictCache) Stats() (hits, misses uint64) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.hits, vc.misses
}

// Len reports the number of live cached verdicts.
func (vc *VerdictCache) Len() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return len(vc.entries)
}

// CachingVerifier wraps an attest.Verifier with a VerdictCache: a hit
// on (serial, measurement) skips the manufacturer-chain ECDSA verify —
// the report signature is still checked against the cached device key,
// so a man-in-the-middle cannot splice a stale verdict onto a forged
// report. It satisfies the same Verify contract as attest.Verifier.
type CachingVerifier struct {
	Verifier *attest.Verifier
	Cache    *VerdictCache
}

// NewNonce samples a fresh challenge (delegates to the inner verifier).
func (cv *CachingVerifier) NewNonce() ([32]byte, error) {
	return cv.Verifier.NewNonce()
}

// Verify checks the report — via the cached verdict when possible —
// and completes the DHKE. Revoked devices fail closed before any
// cryptography runs.
func (cv *CachingVerifier) Verify(report *attest.Report, nonce [32]byte) (*attest.Session, []byte, error) {
	if cv.Cache == nil {
		return cv.Verifier.Verify(report, nonce)
	}
	if err := cv.Cache.Check(report.Cert.Serial); err != nil {
		return nil, nil, err
	}
	if cached := cv.Cache.Lookup(report.Cert.Serial, report.Measurement); cached != nil {
		// Bind the cached verdict to this exact report: the pinned key
		// must equal the one the report's certificate carries.
		//hardtape:consttime-ok public keys are public; this guards binding, not secrecy
		if subtle.ConstantTimeCompare(cached, report.Cert.DevicePub) == 1 {
			return cv.Verifier.VerifyCached(report, nonce, cached)
		}
		// Key changed under the same serial+measurement: fall through to
		// the full chain verify, which decides whether to trust it.
	}
	sess, userPub, err := cv.Verifier.Verify(report, nonce)
	if err != nil {
		return nil, nil, err
	}
	cv.Cache.Store(report.Cert.Serial, report.Measurement, report.Cert.DevicePub)
	return sess, userPub, nil
}
