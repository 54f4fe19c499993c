//go:build !go1.23

package des

// Processes run as iter.Pull coroutines, which need Go 1.23 or newer.
// There is no fallback for older toolchains: this reference stops the
// build with a message that names the requirement.
var _ = des_requires_go1_23
