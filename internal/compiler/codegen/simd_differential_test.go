package codegen

// Differential suite for the SIMD microkernel dispatch: the same layer
// compiled twice — once capturing the arch's best kernel set, once under
// simd.ForceGeneric — must agree to float32 accumulation-order tolerance
// (1e-6 for the FP32 packed level, 1e-2 for PackedQ8's scaled levels). On a
// machine without vector kernels (or under -tags noasm) both plans capture
// the generic set and the comparison is exact; on AVX2 hardware this is
// the test that pins the assembly to the pure-Go reference across pattern
// classes, strides, depthwise, odd output widths, every tail-remainder
// geometry the register blocking produces, and both sides of the geometry
// rule: planes of at most simd.MaxRunPlane pixels and every strided layer run
// plane-resident through the run kernels, wider stride-1 planes through the
// tiles.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/simd"
	"patdnn/internal/tensor"
)

// compileForcedGeneric compiles the layer with the generic microkernel set
// captured into the plan, restoring the dispatch before returning.
func compileForcedGeneric(t *testing.T, c *pruned.Conv, level Level, tune lr.Tuning) *Plan {
	t.Helper()
	simd.ForceGeneric(true)
	defer simd.ForceGeneric(false)
	p, err := Compile(c, level, tune)
	if err != nil {
		t.Fatalf("generic compile: %v", err)
	}
	if p.KernelArch() != "generic" {
		t.Fatalf("ForceGeneric compile captured %q kernels", p.KernelArch())
	}
	return p
}

// stridedConv builds a randomly pruned 3×3 layer (pad 1) at the given stride
// — depthwise when dw, with inC then ignored — and a matching input.
func stridedConv(rng *rand.Rand, outC, inC, inH, inW, stride int, dw bool) (*pruned.Conv, *tensor.Tensor) {
	keep := 1 + rng.Intn(outC*inC)
	if dw {
		inC, keep = 1, outC
	}
	w := tensor.New(outC, inC, 3, 3)
	w.Randn(rng, 0.25)
	geo := pruned.ConvGeom{
		Stride: stride, Pad: 1, InH: inH, InW: inW,
		OutH: tensor.ConvOutDim(inH, 3, stride, 1),
		OutW: tensor.ConvOutDim(inW, 3, stride, 1),
	}
	c := pruned.FromWeights(fmt.Sprintf("simd-s%d-dw%v", stride, dw), w, pattern.Canonical(8), keep, geo)
	c.Depthwise = dw
	input := tensor.New(c.InChannels(), inH, inW)
	input.Randn(rng, 0.5)
	return c, input
}

// c3Tune leaves ragged remainders in every blocking loop: 3-row tiles,
// groups of 3 filters, 5-column chunks.
func c3Tune() lr.Tuning {
	tn := lr.DefaultTuning()
	tn.Tile[1], tn.Unroll[0], tn.Unroll[2] = 3, 3, 5
	return tn
}

// denseOracle is the reference a packed plan is held to: tensor.Conv2D, or
// for depthwise layers (which Conv2D does not express) the NoOpt level's
// plain index-arithmetic walk.
func denseOracle(t testing.TB, c *pruned.Conv, input *tensor.Tensor, bias []float32) *tensor.Tensor {
	t.Helper()
	if !c.Depthwise {
		return refConv(c, input, bias)
	}
	p, err := Compile(c, NoOpt, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	return p.Execute(input, bias)
}

func simdTol(level Level) float64 {
	if level == PackedQ8 {
		return 1e-2
	}
	return 1e-6
}

// TestPackedAsmMatchesGeneric sweeps geometries chosen to exercise every
// ragged edge of the register blocking: output widths around the 8- and
// 4-lane vector boundaries, strides 1 to 3 (odd and even padded extents, so
// row phases of unequal height), all three pattern-class sizes, and
// tile/group/pixel-block knobs that leave odd remainders in every loop — and
// every block/tail shape of the run kernels: 1×1 to 8×8 output planes at
// strides 1 and 2, the 9×8 plane just past the threshold, and layers pruned
// down to a single kernel (most filters all-pruned, every run one kernel
// long). Each layer runs plain, fused over a dirty buffer with and without
// bias, and as a residual tail over split ranges.
func TestPackedAsmMatchesGeneric(t *testing.T) {
	type geom struct {
		inH, inW, stride, pad, patterns int
		keep                            int // kept kernels; 0 = random
	}
	geoms := []geom{
		{9, 9, 1, 1, 6, 0},    // OutW 9: one vector + 1-col tail
		{8, 8, 1, 0, 8, 0},    // 6×6 plane: resident, 16|16|4
		{12, 23, 1, 1, 8, 0},  // OutW 23: odd width, 7-col tail
		{16, 16, 1, 1, 12, 0}, // OutW 16: exact vector multiple
		{14, 33, 1, 1, 8, 0},  // OutW 33: 8|8|8|8|1
		{13, 13, 2, 1, 6, 0},  // stride 2, padded 15×15: row phases 8 and 7 high
		{18, 10, 2, 0, 8, 0},  // stride 2, pad 0, even extents
		{32, 32, 2, 1, 8, 0},  // stride 2, 16×16 plane: sixteen full blocks
		{8, 9, 2, 1, 12, 0},   // stride 2, 4×5 plane: 16|4
		{14, 17, 3, 1, 8, 0},  // stride 3: three row phases × three column taps
		{1, 1, 1, 1, 8, 0},    // 1×1 plane: masked tail only
		{2, 2, 1, 1, 8, 0},    // 2×2: one 4-block
		{3, 3, 1, 1, 6, 0},    // 3×3: 8|1
		{4, 4, 1, 1, 8, 0},    // 4×4: one 16-block
		{5, 7, 1, 1, 8, 0},    // 5×7 = 35: 16|16|3
		{8, 8, 1, 1, 12, 0},   // 8×8 = MaxRunPlane: four blocks
		{9, 8, 1, 1, 8, 0},    // 9×8 = 72: first plane past the threshold, tiled
		{2, 2, 2, 1, 8, 0},    // stride 2 to 1×1
		{4, 4, 2, 1, 8, 0},    // stride 2 to 2×2
		{7, 7, 2, 1, 8, 0},    // stride 2 to 4×4
		{16, 16, 2, 1, 8, 0},  // stride 2 to 8×8
		{4, 4, 1, 1, 8, 1},    // one kernel in the layer: all other filters empty
		{8, 8, 2, 1, 8, 2},    // two kernels, strided
		{16, 16, 1, 1, 8, 1},  // one kernel, tiled path
	}
	tunings := []lr.Tuning{
		lr.DefaultTuning(), // tileOH 32, fg 4, pbw 8
		c3Tune(),
		func() lr.Tuning { // whole-map sweep, single-filter groups
			tn := lr.DefaultTuning()
			tn.Tile[1], tn.Unroll[0], tn.Unroll[2] = 0, 1, 0
			return tn
		}(),
	}
	for gi, g := range geoms {
		for ti, tune := range tunings {
			t.Run(fmt.Sprintf("g%d_t%d_s%d_%dx%d", gi, ti, g.stride, g.inH, g.inW), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*gi + ti)))
				outC, inC := 2+rng.Intn(9), 1+rng.Intn(9)
				w := tensor.New(outC, inC, 3, 3)
				w.Randn(rng, 0.25)
				geo := pruned.ConvGeom{
					Stride: g.stride, Pad: g.pad, InH: g.inH, InW: g.inW,
					OutH: tensor.ConvOutDim(g.inH, 3, g.stride, g.pad),
					OutW: tensor.ConvOutDim(g.inW, 3, g.stride, g.pad),
				}
				keep := 1 + rng.Intn(outC*inC)
				if g.keep > 0 {
					keep = g.keep
				}
				c := pruned.FromWeights(fmt.Sprintf("simd-%d-%d", gi, ti), w,
					pattern.Canonical(g.patterns), keep, geo)
				input := tensor.New(inC, g.inH, g.inW)
				input.Randn(rng, 0.5)
				bias := make([]float32, outC)
				for i := range bias {
					bias[i] = float32(rng.NormFloat64()) * 0.25
				}
				shortcut := tensor.New(c.OutC, c.OutH, c.OutW)
				shortcut.Randn(rng, 0.5)
				dense := refConv(c, input, bias)
				for _, level := range []Level{Packed, PackedQ8} {
					pAsm, err := Compile(c, level, tune)
					if err != nil {
						t.Fatalf("level %v: %v", level, err)
					}
					if want := g.stride > 1 || c.OutH*c.OutW <= simd.MaxRunPlane; pAsm.lay.resident != want {
						t.Fatalf("level %v: resident = %v for a stride-%d %dx%d plane", level, pAsm.lay.resident, g.stride, c.OutH, c.OutW)
					}
					pGen := compileForcedGeneric(t, c, level, tune)
					want := pGen.Execute(input, bias)
					got := pAsm.Execute(input, bias)
					if !got.AllClose(want, simdTol(level)) {
						t.Errorf("level %v (%s vs generic): max diff %g",
							level, pAsm.KernelArch(), got.MaxAbsDiff(want))
					}
					if level == Packed && !got.AllClose(dense, 1e-4) {
						t.Errorf("level %v (%s vs dense reference): max diff %g",
							level, pAsm.KernelArch(), got.MaxAbsDiff(dense))
					}
					// Fused path over a dirty pooled buffer, with ReLU, with and
					// without bias.
					padded := padFor(pAsm, input)
					for _, b := range [][]float32{bias, nil} {
						outAsm, outGen := dirty(c.OutC, c.OutH, c.OutW), dirty(c.OutC, c.OutH, c.OutW)
						outGen.Fill(-7)
						pAsm.ExecuteRangeFused(padded, outAsm, 0, c.OutC, b, true)
						pGen.ExecuteRangeFused(padded, outGen, 0, c.OutC, b, true)
						if !outAsm.AllClose(outGen, simdTol(level)) {
							t.Errorf("level %v fused, bias %v (%s vs generic): max diff %g",
								level, b != nil, pAsm.KernelArch(), outAsm.MaxAbsDiff(outGen))
						}
					}
					// Residual tail (shortcut + bias, no ReLU so it compares with
					// the dense sum) as three split ranges over a dirty buffer.
					res, resGen := dirty(c.OutC, c.OutH, c.OutW), dirty(c.OutC, c.OutH, c.OutW)
					a, b := c.OutC/3, c.OutC-c.OutC/4
					pAsm.ExecuteRangeResidual(padded, res, b, c.OutC, bias, shortcut, false)
					pAsm.ExecuteRangeResidual(padded, res, 0, a, bias, shortcut, false)
					pAsm.ExecuteRangeResidual(padded, res, a, b, bias, shortcut, false)
					pGen.ExecuteRangeResidual(padded, resGen, 0, c.OutC, bias, shortcut, false)
					if !res.AllClose(resGen, simdTol(level)) {
						t.Errorf("level %v residual split ranges (%s vs generic): max diff %g",
							level, pAsm.KernelArch(), res.MaxAbsDiff(resGen))
					}
					for i := range res.Data {
						res.Data[i] -= shortcut.Data[i]
					}
					if level == Packed && !res.AllClose(dense, 1e-4) {
						t.Errorf("level %v residual minus shortcut vs dense reference: max diff %g", level, res.MaxAbsDiff(dense))
					}
				}
			})
		}
	}
}

// TestPackedAsmMatchesGenericDepthwise covers the depthwise branch (input
// plane = filter index) through both kernel sets at strides 1 and 2. A
// strided depthwise call splits only the planes of its own filter
// range, so the layer also runs as two split ranges over a dirty buffer.
func TestPackedAsmMatchesGenericDepthwise(t *testing.T) {
	// Seeds 501–506 draw 6…17-pixel inputs; 507–512 the 1×1…8×8 planes, which
	// a strided depthwise layer runs plane-resident one kernel per call.
	small := [][2]int{{1, 1}, {2, 2}, {4, 4}, {3, 5}, {8, 8}, {7, 2}}
	for seed := int64(501); seed <= 512; seed++ {
		for _, stride := range []int{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			ch := 2 + rng.Intn(8)
			inH, inW := 6+rng.Intn(12), 6+rng.Intn(12)
			if seed > 506 {
				inH, inW = small[seed-507][0]*stride, small[seed-507][1]*stride
			}
			c, input := stridedConv(rng, ch, 1, inH, inW, stride, true)
			oracle := denseOracle(t, c, input, nil)
			for _, level := range []Level{Packed, PackedQ8} {
				pAsm, err := Compile(c, level, c3Tune())
				if err != nil {
					t.Fatalf("seed %d level %v: %v", seed, level, err)
				}
				pGen := compileForcedGeneric(t, c, level, c3Tune())
				want := pGen.Execute(input, nil)
				got := pAsm.Execute(input, nil)
				if !got.AllClose(want, simdTol(level)) {
					t.Errorf("seed %d stride %d level %v depthwise: max diff %g", seed, stride, level, got.MaxAbsDiff(want))
				}
				if level == Packed && !got.AllClose(oracle, 1e-4) {
					t.Errorf("seed %d stride %d depthwise vs NoOpt oracle: max diff %g", seed, stride, got.MaxAbsDiff(oracle))
				}
				padded := padFor(pAsm, input)
				split := tensor.New(c.OutC, c.OutH, c.OutW)
				for i := range split.Data {
					split.Data[i] = -7
				}
				pAsm.ExecuteRangeFused(padded, split, ch/2, ch, nil, false)
				pAsm.ExecuteRangeFused(padded, split, 0, ch/2, nil, false)
				if !split.AllClose(got, 1e-6) {
					t.Errorf("seed %d stride %d level %v depthwise split ranges: max diff %g", seed, stride, level, split.MaxAbsDiff(got))
				}
			}
		}
	}
}

// FuzzPackedKernelDifferential feeds the FuzzFKWRoundTrip layer recipe
// through the packed execution path: for any layer the fuzzer derives, the
// arch microkernels, the forced-generic microkernels, and the dense
// reference must agree. Run with:
//
//	go test -fuzz=FuzzPackedKernelDifferential -fuzztime=20s ./internal/compiler/codegen
func FuzzPackedKernelDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(50), uint8(8), uint8(1), uint8(0))
	f.Add(int64(42), uint8(1), uint8(10), uint8(3), uint8(2), uint8(0))
	f.Add(int64(7), uint8(2), uint8(90), uint8(0), uint8(1), uint8(1))
	f.Add(int64(-3), uint8(0), uint8(1), uint8(255), uint8(2), uint8(1))
	f.Add(int64(11), uint8(1), uint8(0), uint8(77), uint8(2), uint8(2))
	f.Add(int64(12), uint8(2), uint8(0), uint8(130), uint8(2), uint8(3))
	// Small planes (rng draws 1…18-pixel inputs): seed 9 is 2×1 → 1×1 at
	// stride 2, 31 a 4×3 plane, 64 a 1×2 depthwise, 70 a 3×3 at PackedQ8.
	f.Add(int64(9), uint8(1), uint8(100), uint8(9), uint8(1), uint8(0))
	f.Add(int64(31), uint8(0), uint8(3), uint8(40), uint8(0), uint8(0))
	f.Add(int64(64), uint8(2), uint8(0), uint8(200), uint8(0), uint8(2))
	f.Add(int64(70), uint8(1), uint8(255), uint8(17), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, patSize, connPct, knob, strideSel, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		outC := 1 + rng.Intn(10)
		inC := 1 + rng.Intn(8)
		sizes := []int{6, 8, 12}
		set := pattern.Canonical(sizes[int(patSize)%len(sizes)])
		// mode bit 0 selects the int8 stream, bit 1 a depthwise layer.
		level, tol, depthwise := Packed, 1e-4, mode&2 != 0
		if mode&1 != 0 {
			level, tol = PackedQ8, 5e-2 // vs the unquantized reference
		}
		keep := 1 + int(connPct)%(outC*inC)
		if depthwise {
			inC, keep = 1, outC
		}
		w := tensor.New(outC, inC, 3, 3)
		w.Randn(rng, 0.25)
		stride := 1 + int(strideSel)%2
		inH, inW := 1+rng.Intn(18), 1+rng.Intn(18)
		geo := pruned.ConvGeom{
			Stride: stride, Pad: 1, InH: inH, InW: inW,
			OutH: tensor.ConvOutDim(inH, 3, stride, 1),
			OutW: tensor.ConvOutDim(inW, 3, stride, 1),
		}
		c := pruned.FromWeights("fuzz-kern", w, set, keep, geo)
		c.Depthwise = depthwise
		// The fuzzed knob perturbs all three blocking genes so the driver's
		// tail loops see arbitrary tile/group/chunk remainders.
		tune := lr.DefaultTuning()
		tune.Tile[1] = 1 + int(knob)%9
		tune.Unroll[0] = 1 + int(knob>>2)%5
		tune.Unroll[2] = 1 + int(knob>>4)%17
		input := tensor.New(c.InChannels(), inH, inW)
		input.Randn(rng, 0.5)
		pAsm, err := Compile(c, level, tune)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		pGen := compileForcedGeneric(t, c, level, tune)
		want := denseOracle(t, c, input, nil)
		genOut := pGen.Execute(input, nil)
		asmOut := pAsm.Execute(input, nil)
		if !genOut.AllClose(want, tol) {
			t.Fatalf("generic vs dense reference: max diff %g", genOut.MaxAbsDiff(want))
		}
		if !asmOut.AllClose(genOut, simdTol(level)) {
			t.Fatalf("%s vs generic kernels: max diff %g", pAsm.KernelArch(), asmOut.MaxAbsDiff(genOut))
		}
	})
}

// TestFusedReLUSemanticsThroughDrivers pins the epilogue's edge semantics
// where the serving path meets them, on both kernel sets and on every driver
// path — tiled, plane-resident (stride 1 and 2) and the 1×1 Run1 and Tile8
// forms: a NaN pre-activation (a NaN bias) leaves the fused ReLU as NaN, so
// /infer's non-finite check still answers 500 instead of serving zeros, and
// a −0 pre-activation (an all-pruned filter over a −0 bias) comes out +0.
func TestFusedReLUSemanticsThroughDrivers(t *testing.T) {
	negZero, nan := math.Float32frombits(1<<31), float32(math.NaN())
	check := func(t *testing.T, who string, out *tensor.Tensor) {
		t.Helper()
		n := out.Dim(1) * out.Dim(2)
		for i, v := range out.Data[:n] {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s: −0 pre-activation came out %#08x at %d, want +0", who, math.Float32bits(v), i)
			}
		}
		for i, v := range out.Data[n : 2*n] {
			if v == v {
				t.Fatalf("%s: NaN pre-activation came out %g at %d", who, v, i)
			}
		}
	}
	// Filter 0 has no weights and bias −0; filter 1's bias is NaN.
	bias := []float32{negZero, nan, 0.25, -0.5}
	for _, g := range []struct{ hw, stride int }{{12, 1}, {6, 1}, {11, 2}} {
		rng := rand.New(rand.NewSource(int64(g.hw)))
		w := tensor.New(4, 3, 3, 3)
		w.Randn(rng, 0.25)
		clear(w.Data[:27])
		geo := pruned.ConvGeom{
			Stride: g.stride, Pad: 1, InH: g.hw, InW: g.hw,
			OutH: tensor.ConvOutDim(g.hw, 3, g.stride, 1), OutW: tensor.ConvOutDim(g.hw, 3, g.stride, 1),
		}
		c := pruned.FromWeights("relu-edge", w, pattern.Canonical(8), 9, geo)
		input := tensor.New(3, g.hw, g.hw)
		input.Randn(rng, 0.5)
		for _, level := range []Level{Packed, PackedQ8} {
			pAsm, err := Compile(c, level, lr.DefaultTuning())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*Plan{pAsm, compileForcedGeneric(t, c, level, lr.DefaultTuning())} {
				out := dirty(c.OutC, c.OutH, c.OutW)
				p.ExecuteRangeFused(padFor(p, input), out, 0, c.OutC, bias, true)
				check(t, fmt.Sprintf("3x3 %dx%d s%d %v resident=%v %s", g.hw, g.hw, g.stride, level, p.lay.resident, p.KernelArch()), out)
			}
		}
	}
	for _, hw := range []int{4, 12} {
		rng := rand.New(rand.NewSource(int64(hw)))
		w := sparse1x1Weights(rng, 10, []int{0, 10, 3, 9})
		asm, gen := compile1x1Both(t, w, geomFor(1, hw, hw))
		in := tensor.New(10, hw, hw)
		in.Randn(rng, 0.5)
		for _, p := range []*Plan1x1{asm, gen} {
			out := dirty(4, hw, hw)
			p.ExecuteRangeFused(in, out, 0, 4, bias, nil, true)
			check(t, fmt.Sprintf("1x1 %dx%d %s", hw, hw, p.KernelArch()), out)
		}
	}
}

// TestPackedConvIsLinear is a metamorphic check that needs no reference
// implementation: without bias and ReLU a conv is linear in its input, so on
// either kernel set Execute(αx+βy) must equal α·Execute(x)+β·Execute(y) up to
// float32 rounding (1e-4 of the terms' magnitude) — for the 3×3 tiled and
// plane-resident paths and the 1×1 Run1 and Tile8 forms.
func TestPackedConvIsLinear(t *testing.T) {
	const alpha, beta = 0.75, -1.5
	check := func(t *testing.T, who string, exec func(*tensor.Tensor) *tensor.Tensor, x, y *tensor.Tensor) {
		t.Helper()
		mix := tensor.New(x.Shape()...)
		for i := range mix.Data {
			mix.Data[i] = alpha*x.Data[i] + beta*y.Data[i]
		}
		lhs, ex, ey := exec(mix), exec(x), exec(y)
		var scale, diff float64
		for i := range lhs.Data {
			terms := math.Abs(alpha*float64(ex.Data[i])) + math.Abs(beta*float64(ey.Data[i]))
			scale = max(scale, terms)
			diff = max(diff, math.Abs(float64(lhs.Data[i])-(alpha*float64(ex.Data[i])+beta*float64(ey.Data[i]))))
		}
		if scale == 0 || diff > 1e-4*scale {
			t.Errorf("%s: Execute(αx+βy) is off α·Execute(x)+β·Execute(y) by %g (terms up to %g)", who, diff, scale)
		}
	}
	for _, g := range []struct{ hw, stride int }{{12, 1}, {6, 1}, {11, 2}} {
		rng := rand.New(rand.NewSource(int64(10 * g.hw)))
		c, x := stridedConv(rng, 6, 5, g.hw, g.hw, g.stride, false)
		y := tensor.New(x.Shape()...)
		y.Randn(rng, 0.5)
		pAsm, err := Compile(c, Packed, c3Tune())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Plan{pAsm, compileForcedGeneric(t, c, Packed, c3Tune())} {
			exec := func(in *tensor.Tensor) *tensor.Tensor { return p.Execute(in, nil) }
			check(t, fmt.Sprintf("3x3 %dx%d s%d resident=%v %s", g.hw, g.hw, g.stride, p.lay.resident, p.KernelArch()), exec, x, y)
		}
	}
	for _, g := range []geom1x1{geomFor(1, 4, 4), geomFor(1, 12, 12), geomFor(2, 9, 9)} {
		rng := rand.New(rand.NewSource(int64(g.InH)))
		w := sparse1x1Weights(rng, 13, []int{13, 5, 8, 1, 11})
		x, y := tensor.New(13, g.InH, g.InW), tensor.New(13, g.InH, g.InW)
		x.Randn(rng, 0.5)
		y.Randn(rng, 0.5)
		asm, gen := compile1x1Both(t, w, g)
		for _, p := range []*Plan1x1{asm, gen} {
			exec := func(in *tensor.Tensor) *tensor.Tensor { return p.Execute(in, nil) }
			check(t, fmt.Sprintf("1x1 %dx%d s%d %s", g.InH, g.InW, g.Stride, p.KernelArch()), exec, x, y)
		}
	}
}

// permutedConv returns c with filter f taken from c's filter filters[f] and,
// in every filter, kernel k from c's kernel channels[k]: the same layer fed
// channels[k] as its input channel k, writing c's output plane filters[f] as
// plane f.
func permutedConv(c *pruned.Conv, filters, channels []int) *pruned.Conv {
	p := *c
	p.IDs = make([]int, len(c.IDs))
	p.Weights = tensor.New(c.OutC, c.InC, 3, 3)
	for f, from := range filters {
		for k, fromK := range channels {
			p.IDs[f*c.InC+k] = c.IDs[from*c.InC+fromK]
			copy(p.Weights.Data[(f*c.InC+k)*9:][:9], c.Weights.Data[(from*c.InC+fromK)*9:][:9])
		}
	}
	return &p
}

// TestPackedConvIsChannelPermutationEquivariant is a metamorphic check on
// Filter Kernel Reorder that needs no reference: permuting a layer's input
// channels together with its input leaves the output as it was, and
// permuting its filters (and their bias) permutes the output planes the
// same way. Either permutation changes the filter groups and kernel order
// the compiler builds. Checked to 1e-5 of the output's magnitude on both
// kernel sets, tiled and plane-resident.
func TestPackedConvIsChannelPermutationEquivariant(t *testing.T) {
	const outC, inC = 9, 7
	for _, g := range []struct{ hw, stride int }{{12, 1}, {6, 1}, {11, 2}} {
		rng := rand.New(rand.NewSource(int64(7 * g.hw)))
		c, x := stridedConv(rng, outC, inC, g.hw, g.hw, g.stride, false)
		bias := make([]float32, outC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		identity := func(n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = i
			}
			return p
		}
		filters, channels := rng.Perm(outC), rng.Perm(inC)
		xp := tensor.New(x.Shape()...)
		plane := g.hw * g.hw
		for k, from := range channels {
			copy(xp.Data[k*plane:(k+1)*plane], x.Data[from*plane:(from+1)*plane])
		}
		biasp := make([]float32, outC)
		for f, from := range filters {
			biasp[f] = bias[from]
		}
		byChannel := permutedConv(c, identity(outC), channels)
		byFilter := permutedConv(c, filters, identity(inC))
		for _, generic := range []bool{false, true} {
			compile := func(c *pruned.Conv) *Plan {
				if generic {
					return compileForcedGeneric(t, c, Packed, c3Tune())
				}
				p, err := Compile(c, Packed, c3Tune())
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			base := compile(c)
			want := base.Execute(x, bias)
			who := fmt.Sprintf("3x3 %dx%d s%d resident=%v %s", g.hw, g.hw, g.stride, base.lay.resident, base.KernelArch())
			var scale float64
			for _, v := range want.Data {
				scale = max(scale, math.Abs(float64(v)))
			}
			outPlane := c.OutH * c.OutW
			check := func(what string, got *tensor.Tensor, wantPlane func(f int) []float32) {
				t.Helper()
				for f := 0; f < outC; f++ {
					w := wantPlane(f)
					for i, v := range got.Data[f*outPlane : (f+1)*outPlane] {
						if d := math.Abs(float64(v) - float64(w[i])); d > 1e-5*scale {
							t.Fatalf("%s, %s: plane %d pixel %d = %g, want %g", who, what, f, i, v, w[i])
						}
					}
				}
			}
			check("input channels permuted", compile(byChannel).Execute(xp, bias),
				func(f int) []float32 { return want.Data[f*outPlane : (f+1)*outPlane] })
			check("filters permuted", compile(byFilter).Execute(x, biasp),
				func(f int) []float32 { return want.Data[filters[f]*outPlane : (filters[f]+1)*outPlane] })
		}
	}
}
