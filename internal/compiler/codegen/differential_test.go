package codegen

// Differential golden harness: every optimization level — the four paper
// ablation levels plus the packed FKW-direct backend — must produce the same
// convolution as the dense reference tensor.Conv2D, over a randomized sweep
// of layer geometries, pattern sets, and connectivity sparsities. All sparse
// execution paths share this one ground truth, so a wrong stride handling, a
// misplaced FKW run, or a reorder bug in any level fails here with the seed
// that reproduces it.

import (
	"fmt"
	"math/rand"
	"testing"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/tensor"
)

// diffCase is one randomized layer configuration, fully determined by seed.
type diffCase struct {
	seed         int64
	outC, inC    int
	inH, inW     int
	stride, pad  int
	patterns     int
	connKeepFrac float64 // fraction of kernels surviving connectivity pruning
}

// randomCase derives a layer configuration from a seed, varying every axis
// the executors branch on: channel counts, spatial dims, stride, padding,
// pattern-set size, and sparsity.
func randomCase(seed int64) diffCase {
	rng := rand.New(rand.NewSource(seed))
	strides := []int{1, 2}
	pads := []int{0, 1}
	patSizes := []int{6, 8, 12}
	return diffCase{
		seed:         seed,
		outC:         2 + rng.Intn(15), // 2..16
		inC:          1 + rng.Intn(12), // 1..12
		inH:          5 + rng.Intn(14), // 5..18
		inW:          5 + rng.Intn(14), // 5..18
		stride:       strides[rng.Intn(len(strides))],
		pad:          pads[rng.Intn(len(pads))],
		patterns:     patSizes[rng.Intn(len(patSizes))],
		connKeepFrac: 0.2 + 0.7*rng.Float64(), // 20%..90% kernels survive
	}
}

// buildCase materializes the pruned layer, input, and bias for a case.
func buildCase(dc diffCase) (*pruned.Conv, *tensor.Tensor, []float32) {
	rng := rand.New(rand.NewSource(dc.seed ^ 0x9e3779b9))
	w := tensor.New(dc.outC, dc.inC, 3, 3)
	// Scale weights down so float32 accumulation-order differences across
	// levels stay far inside the 1e-4 gate even for the widest layers.
	w.Randn(rng, 0.25)
	geom := pruned.ConvGeom{
		Stride: dc.stride, Pad: dc.pad, InH: dc.inH, InW: dc.inW,
		OutH: tensor.ConvOutDim(dc.inH, 3, dc.stride, dc.pad),
		OutW: tensor.ConvOutDim(dc.inW, 3, dc.stride, dc.pad),
	}
	keep := int(float64(dc.outC*dc.inC) * dc.connKeepFrac)
	if keep < 1 {
		keep = 1
	}
	c := pruned.FromWeights(fmt.Sprintf("diff-%d", dc.seed), w,
		pattern.Canonical(dc.patterns), keep, geom)
	input := tensor.New(dc.inC, dc.inH, dc.inW)
	input.Randn(rng, 0.5)
	bias := make([]float32, dc.outC)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64()) * 0.25
	}
	return c, input, bias
}

// levelTol is the per-level gate against the dense FP32 reference: the FP32
// levels must agree to 1e-4; PackedQ8 runs the same structure over an 8-bit
// weight grid, so it gets the quantization-error budget (per-filter half-step
// errors accumulate over the receptive field) — still tight enough that a
// wrong tap, stride, or reorder fails by orders of magnitude.
func levelTol(level Level) float64 {
	if level == PackedQ8 {
		return 5e-2
	}
	return 1e-4
}

// TestDifferentialAllLevels pins all six execution paths to tensor.Conv2D
// over ≥50 seeded random layers. Table-driven: each case is an independent
// subtest named by its seed, so a failure names the exact reproducer.
func TestDifferentialAllLevels(t *testing.T) {
	const cases = 60
	for seed := int64(1); seed <= cases; seed++ {
		dc := randomCase(seed)
		t.Run(fmt.Sprintf("seed=%d/oc=%d/ic=%d/s=%d/p=%d/pat=%d",
			dc.seed, dc.outC, dc.inC, dc.stride, dc.pad, dc.patterns), func(t *testing.T) {
			c, input, bias := buildCase(dc)
			want := refConv(c, input, bias)
			for _, level := range AllLevels() {
				p, err := Compile(c, level, lr.DefaultTuning())
				if err != nil {
					t.Fatalf("level %v: %v", level, err)
				}
				got := p.Execute(input, bias)
				if !got.AllClose(want, levelTol(level)) {
					t.Errorf("level %v: max diff %g vs dense reference",
						level, got.MaxAbsDiff(want))
				}
			}
		})
	}
}

// TestDifferentialDepthwiseAllLevels covers the depthwise branch of every
// level (input channel = filter index) against the channel-by-channel dense
// reference — randomized channel counts, spatial dims, and strides.
func TestDifferentialDepthwiseAllLevels(t *testing.T) {
	for seed := int64(301); seed <= 312; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ch := 2 + rng.Intn(10)
		inH, inW := 6+rng.Intn(10), 6+rng.Intn(10)
		stride := 1 + rng.Intn(2)
		w := tensor.New(ch, 1, 3, 3)
		w.Randn(rng, 0.25)
		geom := pruned.ConvGeom{
			Stride: stride, Pad: 1, InH: inH, InW: inW,
			OutH: tensor.ConvOutDim(inH, 3, stride, 1),
			OutW: tensor.ConvOutDim(inW, 3, stride, 1),
		}
		// Depthwise: pattern pruning only — every kernel survives.
		c := pruned.FromWeights(fmt.Sprintf("dw-%d", seed), w, pattern.Canonical(8), ch, geom)
		c.Depthwise = true
		input := tensor.New(c.InChannels(), inH, inW)
		input.Randn(rng, 0.5)
		bias := make([]float32, ch)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64()) * 0.25
		}
		want := refDepthwise(c, input, bias)
		for _, level := range AllLevels() {
			p, err := Compile(c, level, lr.DefaultTuning())
			if err != nil {
				t.Fatalf("seed %d level %v: %v", seed, level, err)
			}
			got := p.Execute(input, bias)
			if !got.AllClose(want, levelTol(level)) {
				t.Errorf("seed %d level %v depthwise: max diff %g", seed, level, got.MaxAbsDiff(want))
			}
		}
	}
}

// TestDifferentialFusedMatchesUnfused checks the fused bias+ReLU epilogue
// path of every level against the unfused compose-it-yourself sequence, over
// dirty (non-zero) output buffers — the pooled-buffer contract.
func TestDifferentialFusedMatchesUnfused(t *testing.T) {
	for seed := int64(101); seed <= 112; seed++ {
		dc := randomCase(seed)
		c, input, bias := buildCase(dc)
		want := refConv(c, input, bias)
		tensor.ReLU(want)
		for _, level := range AllLevels() {
			p, err := Compile(c, level, lr.DefaultTuning())
			if err != nil {
				t.Fatalf("seed %d level %v: %v", seed, level, err)
			}
			padded := padFor(p, input)
			out := tensor.New(c.OutC, c.OutH, c.OutW)
			for i := range out.Data {
				out.Data[i] = float32(i%7) - 3 // garbage the kernel must overwrite
			}
			p.ExecuteRangeFused(padded, out, 0, c.OutC, bias, true)
			if !out.AllClose(want, levelTol(level)) {
				t.Errorf("seed %d level %v fused: max diff %g", seed, level, out.MaxAbsDiff(want))
			}
		}
	}
}

// TestDifferentialPackedRangeComposes splits the packed sweeps (FP32 and
// quantized) across range boundaries (the runtime's ParallelFor contract) and
// checks the parts sum to the whole.
func TestDifferentialPackedRangeComposes(t *testing.T) {
	for _, level := range []Level{Packed, PackedQ8} {
		for seed := int64(201); seed <= 208; seed++ {
			dc := randomCase(seed)
			c, input, _ := buildCase(dc)
			p, err := Compile(c, level, lr.DefaultTuning())
			if err != nil {
				t.Fatal(err)
			}
			full := p.Execute(input, nil)
			padded := padFor(p, input)
			split := tensor.New(c.OutC, c.OutH, c.OutW)
			for cut := 1; cut < c.OutC; cut += 3 {
				for i := range split.Data {
					split.Data[i] = 0
				}
				p.ExecuteRange(padded, split, 0, cut)
				p.ExecuteRange(padded, split, cut, c.OutC)
				if !split.AllClose(full, 1e-5) {
					t.Fatalf("seed %d level %v cut %d: split differs by %g",
						seed, level, cut, split.MaxAbsDiff(full))
				}
			}
		}
	}
}

// TestPackedQ8FreesFloatWeights pins the memory contract: a PackedQ8 plan
// drops both float32 weight streams (its int8 view is the only weight
// storage), reports the quantized byte count, and — critically — never
// mutates the caller's shared Conv/FKW, which other plans may still be using.
func TestPackedQ8FreesFloatWeights(t *testing.T) {
	dc := randomCase(77)
	c, input, bias := buildCase(dc)
	p8, err := Compile(c, PackedQ8, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	if p8.Conv.Weights != nil || p8.FKW.Weights != nil {
		t.Fatal("PackedQ8 plan retained float32 weight streams")
	}
	if c.Weights == nil {
		t.Fatal("Compile mutated the caller's Conv")
	}
	qb, ok := p8.QuantizedWeightBytes()
	if !ok || qb <= 0 {
		t.Fatalf("QuantizedWeightBytes = (%d, %v)", qb, ok)
	}
	pFP, err := Compile(c, Packed, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	// The float32 packed plan keeps its FKW stream and nothing else: the dense
	// tensor the packed walk never reads is dropped the same way.
	if pFP.Conv.Weights != nil || pFP.FKW.Weights == nil {
		t.Fatal("Packed plan retained the dense weights or lost its FKW stream")
	}
	if c.Weights == nil {
		t.Fatal("the Packed compile mutated the caller's Conv")
	}
	// 1 byte/weight + one float32 scale per filter vs 4 bytes/weight: even on
	// tiny layers the quantized payload is well under half the FP32 stream.
	if fp32 := int64(4 * pFP.FKW.NNZ()); 2*qb >= fp32 {
		t.Fatalf("quantized payload %d B not well under fp32 %d B", qb, fp32)
	}
	// The weight-free plan still executes, and a plan compiled from the same
	// (unmutated) conv at a float level still matches the dense reference.
	want := refConv(c, input, bias)
	if got := p8.Execute(input, bias); !got.AllClose(want, levelTol(PackedQ8)) {
		t.Errorf("PackedQ8 after weight drop: max diff %g", got.MaxAbsDiff(want))
	}
	if got := pFP.Execute(input, bias); !got.AllClose(want, levelTol(Packed)) {
		t.Errorf("Packed sharing the conv: max diff %g", got.MaxAbsDiff(want))
	}
	// Stats on a weight-free plan must not panic and must report the smaller
	// weight stream.
	st8, stFP := p8.Stats(), pFP.Stats()
	if st8.WeightBytes >= stFP.WeightBytes {
		t.Errorf("PackedQ8 WeightBytes %d not below Packed %d", st8.WeightBytes, stFP.WeightBytes)
	}
}

// TestDifferentialPadIntoDirtyScratch checks the scratch-buffer padding path
// the graph executor uses, over a dirty oversized buffer, element by element:
// the interior is the input shifted by the pad, the border is zero.
func TestDifferentialPadIntoDirtyScratch(t *testing.T) {
	dc := randomCase(42)
	dc.pad = 1
	c, input, _ := buildCase(dc)
	p, err := Compile(c, Packed, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, p.PaddedLen()+13)
	for i := range buf {
		buf[i] = -99
	}
	ch, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	ph, pw := h+2*dc.pad, w+2*dc.pad
	got := tensor.FromSlice(buf[:p.PaddedLen()], ch, ph, pw)
	PadInto(input, got, dc.pad)
	for ic := 0; ic < ch; ic++ {
		for y := 0; y < ph; y++ {
			for x := 0; x < pw; x++ {
				var want float32
				if iy, ix := y-dc.pad, x-dc.pad; iy >= 0 && iy < h && ix >= 0 && ix < w {
					want = input.Data[(ic*h+iy)*w+ix]
				}
				if v := got.Data[(ic*ph+y)*pw+x]; v != want {
					t.Fatalf("channel %d (%d, %d): got %g, want %g", ic, y, x, v, want)
				}
			}
		}
	}
	if buf[p.PaddedLen()] != -99 {
		t.Fatal("PadInto wrote past the padded view")
	}
}

// TestPrepareSourceMatchesPadded pins the graph executor's form of a packed
// conv — the source prepared once from the unpadded (or dilated) input, in
// channel ranges, into dirty scratch; filter ranges on their own Scratch —
// to the self-contained entry point over the padded input, bit for bit: the
// same kernels see the same source. It covers both sides of the geometry
// rule (resident planes up to simd.MaxRunPlane pixels and every strided
// layer, tiled wider ones), pad 0 (where the tiled source is the input
// itself), depthwise, a transposed conv's dilated input, and every epilogue.
func TestPrepareSourceMatchesPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type geo struct{ hw, stride, pad, dil int }
	var geos []geo
	for _, hw := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12} {
		for _, stride := range []int{1, 2} {
			geos = append(geos, geo{hw, stride, 1, 1})
		}
	}
	geos = append(geos, geo{6, 1, 0, 1}, geo{10, 1, 0, 1}, geo{9, 2, 0, 1}, geo{3, 1, 1, 2}, geo{6, 1, 1, 2}, geo{4, 1, 0, 3})
	for _, g := range geos {
		for _, dw := range []bool{false, true} {
			// A dilated input of h×w lands on (h−1)·dil+1 rows (+1 of output
			// padding when dil > 1) of the equivalent conv.
			inHW := (g.hw-1)*g.dil + 1
			if g.dil > 1 {
				inHW++
			}
			if inHW+2*g.pad < 3 {
				continue
			}
			outC, inC := 6, 5
			if dw {
				inC = 1
			}
			w := tensor.New(outC, inC, 3, 3)
			w.Randn(rng, 0.25)
			geom := pruned.ConvGeom{Stride: g.stride, Pad: g.pad, InH: inHW, InW: inHW,
				OutH: tensor.ConvOutDim(inHW, 3, g.stride, g.pad), OutW: tensor.ConvOutDim(inHW, 3, g.stride, g.pad)}
			c := pruned.FromWeights("prep", w, pattern.Canonical(8), 1+rng.Intn(outC*inC), geom)
			c.Depthwise = dw
			input := tensor.New(c.InChannels(), g.hw, g.hw)
			input.Randn(rng, 0.5)
			bias := make([]float32, outC)
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}
			shortcut := tensor.New(outC, c.OutH, c.OutW)
			shortcut.Randn(rng, 0.5)
			padded := tensor.New(c.InChannels(), inHW+2*g.pad, inHW+2*g.pad)
			DilatePadInto(input, padded, g.dil, g.pad)
			for _, level := range []Level{Packed, PackedQ8} {
				p, err := Compile(c, level, c3Tune())
				if err != nil {
					t.Fatal(err)
				}
				src := input.Data
				if n := p.SourceLen(g.dil); n > 0 {
					src = dirty(1, 1, n).Data
					mid := c.InChannels() / 2
					p.PrepareSource(input, g.dil, src, mid, c.InChannels())
					p.PrepareSource(input, g.dil, src, 0, mid)
				} else if g.pad != 0 || g.dil != 1 {
					t.Fatalf("%+v: SourceLen 0 for a padded or dilated input", g)
				}
				for _, sc := range []*tensor.Tensor{nil, shortcut} {
					for _, relu := range []bool{false, true} {
						want := dirty(outC, c.OutH, c.OutW)
						p.ExecuteRangeResidual(padded, want, 0, outC, bias, sc, relu)
						got := dirty(outC, c.OutH, c.OutW)
						var scratch [3]Scratch
						a, b := outC/3, outC-outC/4
						p.ExecuteRangeSource(src, &scratch[0], got, b, outC, bias, sc, relu)
						p.ExecuteRangeSource(src, &scratch[1], got, 0, a, bias, sc, relu)
						p.ExecuteRangeSource(src, &scratch[2], got, a, b, bias, sc, relu)
						if d := got.MaxAbsDiff(want); d != 0 {
							t.Fatalf("%+v dw %v %v residual %v relu %v: source path differs by %g",
								g, dw, level, sc != nil, relu, d)
						}
					}
				}
			}
		}
	}
}
