package codegen

// Differential suite for the 1×1 tile driver: the same pruned layer compiled
// against the arch's microkernels and against the forced-generic set must
// agree with each other and with the dense tensor.Conv2D reference, across
// the geometries that leave ragged edges in every loop of the driver —
// vector tails, pixel-block tails, every kept-channel remainder the
// Tile8/Tile4 tail dispatch sees, and on planes of at most simd.MaxRunPlane
// pixels every block/tail shape and quad remainder of the Run1 kernel.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/pruned"
	"patdnn/internal/simd"
	"patdnn/internal/tensor"
)

type geom1x1 = struct{ Stride, InH, InW, OutH, OutW int }

func geomFor(stride, inH, inW int) geom1x1 {
	return geom1x1{stride, inH, inW, (inH-1)/stride + 1, (inW-1)/stride + 1}
}

// sparse1x1Weights returns [len(kept), inC, 1, 1] weights in which filter f
// keeps exactly kept[f] randomly placed nonzero channels.
func sparse1x1Weights(rng *rand.Rand, inC int, kept []int) *tensor.Tensor {
	w := tensor.New(len(kept), inC, 1, 1)
	for f, k := range kept {
		for _, ch := range rng.Perm(inC)[:k] {
			v := float32(rng.NormFloat64()) * 0.25
			if v == 0 {
				v = 0.25
			}
			w.Data[f*inC+ch] = v
		}
	}
	return w
}

// compile1x1Both compiles w against the arch's kernel set and against the
// generic set.
func compile1x1Both(t testing.TB, w *tensor.Tensor, g geom1x1) (asm, gen *Plan1x1) {
	t.Helper()
	asm, err := Compile1x1Pruned("diff", w, g)
	if err != nil {
		t.Fatal(err)
	}
	simd.ForceGeneric(true)
	defer simd.ForceGeneric(false)
	gen, err = Compile1x1Pruned("diff", w, g)
	if err != nil {
		t.Fatal(err)
	}
	if gen.KernelArch() != "generic" {
		t.Fatalf("ForceGeneric compile captured %q kernels", gen.KernelArch())
	}
	return asm, gen
}

// reference1x1 is the dense unfused computation: conv + bias, + shortcut,
// then ReLU.
func reference1x1(in, w *tensor.Tensor, stride int, bias []float32, shortcut *tensor.Tensor, relu bool) *tensor.Tensor {
	var b *tensor.Tensor
	if bias != nil {
		b = tensor.FromSlice(bias, len(bias))
	}
	want := tensor.Conv2D(in, w, b, tensor.ConvSpec{Stride: stride})
	for i := range want.Data {
		if shortcut != nil {
			want.Data[i] += shortcut.Data[i]
		}
		if relu && want.Data[i] < 0 {
			want.Data[i] = 0
		}
	}
	return want
}

func dirty(c, h, w int) *tensor.Tensor {
	out := tensor.New(c, h, w)
	for i := range out.Data {
		out.Data[i] = float32(i%7) - 3
	}
	return out
}

// check1x1 runs one layer through both kernel sets with the given epilogue
// and compares them with the reference, with each other, and with the same
// plan executed as three split ranges.
func check1x1(t *testing.T, rng *rand.Rand, w *tensor.Tensor, g geom1x1, useBias, useShortcut, relu bool) {
	t.Helper()
	outC, inC := w.Dim(0), w.Dim(1)
	asm, gen := compile1x1Both(t, w, g)
	in := tensor.New(inC, g.InH, g.InW)
	in.Randn(rng, 0.5)
	var bias []float32
	if useBias {
		bias = make([]float32, outC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64()) * 0.25
		}
	}
	var shortcut *tensor.Tensor
	if useShortcut {
		shortcut = tensor.New(outC, g.OutH, g.OutW)
		shortcut.Randn(rng, 0.5)
	}
	want := reference1x1(in, w, g.Stride, bias, shortcut, relu)
	outAsm, outGen := dirty(outC, g.OutH, g.OutW), dirty(outC, g.OutH, g.OutW)
	asm.ExecuteRangeFused(in, outAsm, 0, outC, bias, shortcut, relu)
	gen.ExecuteRangeFused(in, outGen, 0, outC, bias, shortcut, relu)
	if !outGen.AllClose(want, 1e-4) {
		t.Errorf("generic vs dense reference: max diff %g", outGen.MaxAbsDiff(want))
	}
	if !outAsm.AllClose(want, 1e-4) {
		t.Errorf("%s vs dense reference: max diff %g", asm.KernelArch(), outAsm.MaxAbsDiff(want))
	}
	if !outAsm.AllClose(outGen, 1e-4) {
		t.Errorf("%s vs generic: max diff %g", asm.KernelArch(), outAsm.MaxAbsDiff(outGen))
	}
	split := dirty(outC, g.OutH, g.OutW)
	a, b := outC/3, outC-outC/4
	asm.ExecuteRangeFused(in, split, 0, a, bias, shortcut, relu)
	asm.ExecuteRangeFused(in, split, b, outC, bias, shortcut, relu)
	asm.ExecuteRangeFused(in, split, a, b, bias, shortcut, relu)
	if !split.AllClose(outAsm, 1e-6) {
		t.Errorf("split ranges vs full range: max diff %g", split.MaxAbsDiff(outAsm))
	}
	// The graph executor's form: a strided input subsampled once, in two
	// channel ranges, into dirty scratch; each filter range on its own
	// Scratch. Same kernels over the same source: bit for bit.
	src := in.Data
	if n := asm.SourceLen(); n > 0 {
		src = dirty(1, 1, n).Data
		asm.PrepareSource(in, src, inC/2, inC)
		asm.PrepareSource(in, src, 0, inC/2)
	} else if g.Stride != 1 {
		t.Fatalf("stride %d plan reads its input as is", g.Stride)
	}
	var sc [2]Scratch
	viaSrc := dirty(outC, g.OutH, g.OutW)
	asm.ExecuteRangeSource(src, &sc[0], viaSrc, a, outC, bias, shortcut, relu)
	asm.ExecuteRangeSource(src, &sc[1], viaSrc, 0, a, bias, shortcut, relu)
	if d := viaSrc.MaxAbsDiff(outAsm); d != 0 {
		t.Errorf("prepared source vs ExecuteRangeFused: max diff %g", d)
	}
}

func TestConv1x1AsmMatchesGenericAndDense(t *testing.T) {
	// Kept channels per filter: every K mod 8, with and without full 8-tap
	// groups in front of the remainder, and an all-pruned filter.
	kept := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 20, 13, 22}
	const inC = 22
	// 23×23 leaves a 17-pixel second block behind the first 512; 1×1 to 8×8
	// (and 14×14 at stride 2) are plane-resident, 9×9 the first tiled plane.
	planes := []int{1, 2, 3, 4, 5, 7, 8, 9, 14, 23, 32}
	for _, stride := range []int{1, 2} {
		for _, hw := range planes {
			for ep := 0; ep < 8; ep++ {
				useBias, useShortcut, relu := ep&1 != 0, ep&2 != 0, ep&4 != 0
				t.Run(fmt.Sprintf("s%d_%dx%d_b%v_sc%v_r%v", stride, hw, hw, useBias, useShortcut, relu), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*stride + 10*hw + ep)))
					w := sparse1x1Weights(rng, inC, kept)
					check1x1(t, rng, w, geomFor(stride, hw, hw), useBias, useShortcut, relu)
				})
			}
		}
	}
}

// TestConv1x1RejectsBadGeometry pins the compile-time half of the asm
// boundary: a plan whose declared output does not follow from its input and
// stride, or whose weights do not fill the declared shape, never exists.
func TestConv1x1RejectsBadGeometry(t *testing.T) {
	w := tensor.New(4, 6, 1, 1)
	w.Randn(rand.New(rand.NewSource(1)), 1)
	bad := []geom1x1{
		{1, 8, 8, 9, 8},   // OutH too large: the walk would read past the input
		{1, 8, 8, 8, 7},   // OutW too small
		{2, 8, 8, 8, 8},   // stride ignored
		{2, 7, 7, 3, 3},   // (7-1)/2+1 = 4
		{0, 8, 8, 8, 8},   // no stride
		{1, 0, 8, 0, 8},   // empty plane
		{1, 8, -1, 8, -1}, // negative plane
	}
	for _, g := range bad {
		if _, err := Compile1x1Pruned("bad", w, g); err == nil {
			t.Errorf("Compile1x1Pruned accepted geometry %+v", g)
		}
		if _, err := Compile1x1("bad", w, 5, g); err == nil {
			t.Errorf("Compile1x1 accepted geometry %+v", g)
		}
	}
	short := tensor.FromSlice(make([]float32, 4*6), 4, 6, 1, 1)
	short.Data = short.Data[:20]
	if _, err := Compile1x1Pruned("short", short, geomFor(1, 8, 8)); err == nil {
		t.Error("Compile1x1Pruned accepted a weight tensor shorter than its shape")
	}
}

// TestConv1x1ExecuteChecksBounds pins the run-time half: the tile kernels
// are not bounds-checked, so a wrong-sized tensor or range must panic with a
// message before any kernel runs, never read or write out of bounds.
func TestConv1x1ExecuteChecksBounds(t *testing.T) {
	w := tensor.New(4, 6, 1, 1)
	w.Randn(rand.New(rand.NewSource(1)), 1)
	p, err := Compile1x1Pruned("bounds", w, geomFor(2, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	in, out := tensor.New(6, 8, 8), tensor.New(4, 4, 4)
	cases := []struct {
		name           string
		in, out, short *tensor.Tensor
		from, to       int
	}{
		{"input too small", tensor.New(6, 8, 7), out, nil, 0, 4},
		{"input too large", tensor.New(7, 8, 8), out, nil, 0, 4},
		{"output too small", in, tensor.New(4, 4, 3), nil, 0, 4},
		{"shortcut too small", in, out, tensor.New(3, 4, 4), 0, 4},
		{"negative from", in, out, nil, -1, 4},
		{"to past OutC", in, out, nil, 0, 5},
		{"from past to", in, out, nil, 3, 2},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "codegen: 1x1 conv bounds") {
					t.Errorf("%s: recovered %q, want the driver's own panic", c.name, msg)
				}
			}()
			p.ExecuteRangeFused(c.in, c.out, c.from, c.to, nil, c.short, false)
		}()
	}
	p.ExecuteRangeFused(in, out, 2, 2, nil, nil, true) // empty range is legal
	src := make([]float32, p.SourceLen())
	for name, call := range map[string]func(){
		"source too small":       func() { p.ExecuteRangeSource(src[1:], &Scratch{}, out, 0, 4, nil, nil, false) },
		"source range past InC":  func() { p.PrepareSource(in, src, 0, 7) },
		"source input too small": func() { p.PrepareSource(tensor.New(6, 8, 7), src, 0, 6) },
		"source too large":       func() { p.PrepareSource(in, append(src, 0), 0, 6) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "codegen: 1x1 conv bounds") {
					t.Errorf("%s: recovered %q, want the driver's own panic", name, msg)
				}
			}()
			call()
		}()
	}

	// The pattern path, on both sides of the geometry rule: a 4×4 plane runs
	// resident, a 12×12 one tiled, and neither touches a kernel with a
	// wrong-sized tensor or range.
	for _, hw := range []int{4, 12} {
		c, input := stridedConv(rand.New(rand.NewSource(3)), 4, 3, hw, hw, 1, false)
		for _, level := range []Level{Packed, PackedQ8} {
			p3, err := Compile(c, level, c3Tune())
			if err != nil {
				t.Fatal(err)
			}
			padded, out3 := padFor(p3, input), tensor.New(4, hw, hw)
			shortcut, short := tensor.New(4, hw, hw), tensor.New(3, hw, hw)
			cases3 := []struct {
				name        string
				padded, out *tensor.Tensor
				from, to    int
			}{
				{"unpadded input", input, out3, 0, 4},
				{"padded input too large", tensor.New(4, hw+2, hw+2), out3, 0, 4},
				{"output too small", padded, tensor.New(4, hw, hw-1), 0, 4},
				{"shortcut too small", padded, out3, 0, 4},
				{"negative from", padded, out3, -1, 4},
				{"to past OutC", padded, out3, 0, 5},
				{"from past to", padded, out3, 3, 2},
			}
			for _, cs := range cases3 {
				for _, residual := range []bool{false, true} {
					sc := shortcut
					if cs.name == "shortcut too small" {
						if sc = short; !residual {
							continue
						}
					}
					func() {
						defer func() {
							msg, _ := recover().(string)
							if !strings.Contains(msg, "codegen: conv "+c.Name) {
								t.Errorf("%dx%d %v %s (residual %v): recovered %q, want the driver's own panic", hw, hw, level, cs.name, residual, msg)
							}
						}()
						if residual {
							p3.ExecuteRangeResidual(cs.padded, cs.out, cs.from, cs.to, nil, sc, false)
						} else {
							p3.ExecuteRangeFused(cs.padded, cs.out, cs.from, cs.to, nil, false)
						}
					}()
				}
			}
			p3.ExecuteRangeFused(padded, out3, 1, 1, nil, true) // empty range is legal
			src := make([]float32, p3.SourceLen(1))
			for name, call := range map[string]func(){
				"source too small":      func() { p3.ExecuteRangeSource(src[1:], &Scratch{}, out3, 0, 4, nil, nil, false) },
				"source range past InC": func() { p3.PrepareSource(input, 1, src, 0, 4) },
				"source input too wide": func() { p3.PrepareSource(tensor.New(3, hw, hw+1), 1, src, 0, 3) },
				"source too large":      func() { p3.PrepareSource(input, 1, append(src, 0), 0, 3) },
			} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "codegen: conv "+c.Name) {
							t.Errorf("%dx%d %v %s: recovered %q, want the driver's own panic", hw, hw, level, name, msg)
						}
					}()
					call()
				}()
			}
		}
	}
}

// TestPackedRejectsHostileGeometry pins the build-time half for the pattern
// path: a layer whose declared output does not fit its declared input — the
// spans its kernels would be handed leave the source — never becomes a plan,
// on either side of the geometry rule, and the honest layer still compiles.
func TestPackedRejectsHostileGeometry(t *testing.T) {
	for _, g := range []struct{ hw, stride int }{{4, 1}, {12, 1}, {8, 2}, {32, 2}} {
		c, _ := stridedConv(rand.New(rand.NewSource(4)), 4, 3, g.hw, g.hw, g.stride, false)
		for _, level := range []Level{Packed, PackedQ8} {
			if _, err := Compile(c, level, lr.DefaultTuning()); err != nil {
				t.Fatalf("%dx%d s%d %v: honest layer refused: %v", g.hw, g.hw, g.stride, level, err)
			}
			for _, lie := range []func(*pruned.Conv){
				func(b *pruned.Conv) { b.OutH++ },
				func(b *pruned.Conv) { b.OutW++ },
				func(b *pruned.Conv) { b.InH -= 2 },
				func(b *pruned.Conv) { b.Pad = 0 },
				func(b *pruned.Conv) { b.OutH = 0 },
			} {
				bad := *c
				lie(&bad)
				if _, err := Compile(&bad, level, lr.DefaultTuning()); err == nil {
					t.Errorf("%dx%d s%d %v: compiled with out %dx%d over in %dx%d pad %d", g.hw, g.hw, g.stride, level,
						bad.OutH, bad.OutW, bad.InH, bad.InW, bad.Pad)
				}
			}
		}
	}
}

// TestStridedDriversSteadyStateZeroAllocs: the subsample and split
// scratch is pooled and the run kernels take no pointer arrays, so once warm
// no driver allocates — strided or stride 1, plane-resident (5×5, 4×4) or
// tiled (18×18 at stride 2 is a 9×9 plane for the 1×1). 100 runs keep the
// verdict stable under -race, where sync.Pool drops a quarter of its Puts
// and AllocsPerRun floors the average.
func TestStridedDriversSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := sparse1x1Weights(rng, 12, []int{3, 12, 0, 7, 9})
	for _, g := range []geom1x1{geomFor(2, 9, 9), geomFor(1, 4, 4), geomFor(2, 18, 18)} {
		p1, err := Compile1x1Pruned("alloc", w, g)
		if err != nil {
			t.Fatal(err)
		}
		in1, out1 := tensor.New(12, g.InH, g.InW), tensor.New(5, g.OutH, g.OutW)
		run1 := func() { p1.ExecuteRangeFused(in1, out1, 0, 5, nil, nil, true) }
		run1()
		if allocs := testing.AllocsPerRun(100, run1); allocs != 0 {
			t.Errorf("1x1 driver (%+v) allocates %.1f objects/run in steady state", g, allocs)
		}
	}
	for _, level := range []Level{Packed, PackedQ8} {
		for _, g := range []struct{ hw, stride int }{{11, 2}, {4, 1}, {30, 2}} {
			c, in := stridedConv(rng, 6, 5, g.hw, g.hw, g.stride, false)
			p3, err := Compile(c, level, c3Tune())
			if err != nil {
				t.Fatal(err)
			}
			padded := padFor(p3, in)
			out3 := tensor.New(c.OutC, c.OutH, c.OutW)
			run3 := func() { p3.ExecuteRangeFused(padded, out3, 0, c.OutC, nil, true) }
			run3()
			if allocs := testing.AllocsPerRun(100, run3); allocs != 0 {
				t.Errorf("3x3 driver at %v (%dx%d stride %d) allocates %.1f objects/run in steady state", level, g.hw, g.hw, g.stride, allocs)
			}
		}
	}
}

// FuzzConv1x1Differential derives a pruned 1×1 layer from the fuzzed bytes
// and requires the arch microkernels, the generic ones and the dense
// reference to agree. Run with:
//
//	go test -fuzz=FuzzConv1x1Differential -fuzztime=20s ./internal/compiler/codegen
func FuzzConv1x1Differential(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(8), uint8(32), uint8(32), uint8(0), uint8(70))
	f.Add(int64(2), uint8(9), uint8(3), uint8(7), uint8(5), uint8(1), uint8(30))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(6), uint8(0))
	f.Add(int64(-4), uint8(40), uint8(5), uint8(23), uint8(24), uint8(7), uint8(255))
	// Plane-resident planes: 2×2, 4×4 with every epilogue, 8×8 at the
	// threshold, 15×16 at stride 2 (an 8×8 plane), and 3×7 with few kept.
	f.Add(int64(5), uint8(11), uint8(6), uint8(1), uint8(1), uint8(0), uint8(90))
	f.Add(int64(6), uint8(39), uint8(11), uint8(3), uint8(3), uint8(14), uint8(200))
	f.Add(int64(7), uint8(20), uint8(4), uint8(7), uint8(7), uint8(2), uint8(128))
	f.Add(int64(8), uint8(17), uint8(7), uint8(14), uint8(15), uint8(5), uint8(60))
	f.Add(int64(9), uint8(6), uint8(2), uint8(2), uint8(6), uint8(8), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, inCSel, outCSel, hSel, wSel, flags, keepPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		inC, outC := 1+int(inCSel)%40, 1+int(outCSel)%12
		inH, inW := 1+int(hSel)%33, 1+int(wSel)%33
		stride := 1 + int(flags)&1
		kept := make([]int, outC)
		for i := range kept {
			// Per-filter counts scatter around the fuzzed rate, so one layer
			// mixes several K mod 8 remainders and the odd empty filter.
			kept[i] = min(inC, rng.Intn(1+inC*int(keepPct)/128))
		}
		w := sparse1x1Weights(rng, inC, kept)
		check1x1(t, rng, w, geomFor(stride, inH, inW), flags&2 != 0, flags&4 != 0, flags&8 != 0)
	})
}
