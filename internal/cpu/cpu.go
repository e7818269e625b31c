// Package cpu probes the runtime CPU features the SIMD microkernels dispatch
// on. The packed FKW backend's inner loops (internal/simd) have hand-written
// vector implementations for AVX2+FMA on amd64, and this package decides,
// once at process start, whether the running core can execute them.
// Everything here is read-only after init; the exported flag is a plain bool
// so the dispatch check in a kernel prologue costs one predictable branch.
//
// Building with the noasm tag (or on any architecture but amd64) leaves the
// flag false, which makes the pure-Go microkernels the selected
// implementation everywhere — the fallback contract DESIGN.md documents.
package cpu

// HasAVX2FMA reports an amd64 core with AVX2, FMA3, and OS support for
// saving the YMM state (OSXSAVE + XCR0 bits 1-2). All three are required:
// the microkernels broadcast weights into YMM registers and accumulate with
// VFMADD231PS. Fixed at init.
var HasAVX2FMA bool

// Arch names the vector implementation the probe selected: "avx2", or
// "generic" when no hand-written kernel can run. Surfaced through /stats and
// the tuning-DB key so per-arch tuning decisions never transfer to a core
// that executes different code.
func Arch() string {
	if HasAVX2FMA {
		return "avx2"
	}
	return "generic"
}
