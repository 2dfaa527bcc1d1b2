// Package oram is a cryptorand fixture standing in for the ORAM client
// options.
package oram

// ClientOption configures a client.
type ClientOption func()

// WithSeed keys the leaf remaps by a model seed.
func WithSeed(seed int64) ClientOption { return func() {} }

// NewClient builds a client.
func NewClient(opts ...ClientOption) {}
