//go:build noasm || !amd64

package cpu

// No hand-written kernels for this build: the flag keeps its false zero
// value and Arch() reports "generic".
