package secp256k1

// MulAdd exposes mulAdd to the differential tests against the oracle.
var MulAdd = mulAdd
