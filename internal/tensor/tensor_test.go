package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	a.Set(7.5, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := a.Offset(1, 2, 3); got != 23 {
		t.Fatalf("Offset = %d, want 23", got)
	}
	if a.Rank() != 3 || a.Dim(1) != 3 {
		t.Fatalf("Rank/Dim wrong: %d %d", a.Rank(), a.Dim(1))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(3, 0)
}

func TestOffsetPanicsOutOfRange(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	a.At(2, 0)
}

func TestFromSliceAndReshape(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	a := FromSlice(d, 2, 3)
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", a.At(1, 2))
	}
	b := a.Reshape(3, 2)
	if b.At(2, 1) != 6 {
		t.Fatalf("reshaped At(2,1) = %v", b.At(2, 1))
	}
	b.Set(9, 0, 0)
	if a.At(0, 0) != 9 {
		t.Fatal("Reshape must share storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(4)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 5
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestScaleAddScaledNorm(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if got := a.L2Norm(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("L2Norm = %v, want 5", got)
	}
	a.Scale(2)
	if a.Data[0] != 6 || a.Data[1] != 8 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
	b := FromSlice([]float32{1, 1}, 2)
	a.AddScaled(b, -1)
	if a.Data[0] != 5 || a.Data[1] != 7 {
		t.Fatalf("AddScaled wrong: %v", a.Data)
	}
}

func TestNNZSparsity(t *testing.T) {
	a := FromSlice([]float32{0, 1, 0, 2}, 4)
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
	if got := a.Sparsity(); got != 0.5 {
		t.Fatalf("Sparsity = %v", got)
	}
}

func TestArgMax(t *testing.T) {
	a := FromSlice([]float32{-1, 4, 2}, 3)
	if a.ArgMax() != 1 {
		t.Fatalf("ArgMax = %d", a.ArgMax())
	}
}

func TestConvOutDim(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{224, 3, 1, 1, 224},
		{224, 3, 2, 1, 112},
		{32, 3, 1, 1, 32},
		{7, 7, 1, 0, 1},
		{224, 7, 2, 3, 112},
	}
	for _, c := range cases {
		if got := ConvOutDim(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutDim(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1 input channel 3x3 identity-ish, 1 filter of ones.
	in := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w := New(1, 1, 3, 3)
	w.Fill(1)
	out := Conv2D(in, w, nil, ConvSpec{Stride: 1, Pad: 1})
	// Center output = sum of all = 45.
	if got := out.At(0, 1, 1); got != 45 {
		t.Fatalf("center = %v, want 45", got)
	}
	// Corner (0,0) sees the 2x2 top-left block = 1+2+4+5 = 12.
	if got := out.At(0, 0, 0); got != 12 {
		t.Fatalf("corner = %v, want 12", got)
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 2, 2)
	w := New(2, 1, 1, 1)
	b := FromSlice([]float32{1.5, -2}, 2)
	out := Conv2D(in, w, b, ConvSpec{Stride: 1, Pad: 0})
	if out.At(0, 0, 0) != 1.5 || out.At(1, 1, 1) != -2 {
		t.Fatalf("bias not applied: %v", out.Data)
	}
}

func TestConv2DMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct{ ci, h, w, co, k, s, p int }{
		{3, 8, 8, 4, 3, 1, 1},
		{2, 7, 9, 3, 3, 2, 1},
		{5, 6, 6, 2, 1, 1, 0},
		{1, 11, 5, 2, 3, 2, 0},
	} {
		in := New(cfg.ci, cfg.h, cfg.w)
		in.Randn(rng, 1)
		w := New(cfg.co, cfg.ci, cfg.k, cfg.k)
		w.Randn(rng, 1)
		b := New(cfg.co)
		b.Randn(rng, 1)
		spec := ConvSpec{Stride: cfg.s, Pad: cfg.p}
		direct := Conv2D(in, w, b, spec)
		gemm := Conv2DIm2Col(in, w, b, spec)
		if !direct.AllClose(gemm, 1e-3) {
			t.Fatalf("cfg %+v: direct vs im2col diff %g", cfg, direct.MaxAbsDiff(gemm))
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 0,
	}, 1, 4, 4)
	out, arg := MaxPool2D(in, 2)
	want := []float32{4, 8, 9, 4}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("pool = %v, want %v", out.Data, want)
		}
	}
	if in.Data[arg[0]] != 4 || in.Data[arg[2]] != 9 {
		t.Fatalf("argmax wrong: %v", arg)
	}
}

// TestMaxPool2DIntoRowPairsMatchWindows pins the k = 2 row-pair path to the
// general window loop bit for bit — ragged plane shapes, ±0, ±Inf, and NaN,
// which both propagate (a NaN in a window is its result) — and, on NaN-free
// data, to MaxPool2D.
func TestMaxPool2DIntoRowPairsMatchWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := math.Float32frombits(1 << 31)
	for _, shape := range [][3]int{{1, 2, 2}, {3, 2, 6}, {2, 6, 2}, {5, 8, 10}, {64, 32, 32}} {
		for _, special := range []bool{false, true} {
			in := New(shape[0], shape[1], shape[2])
			in.Randn(rng, 1)
			if special {
				for i := 0; i < len(in.Data); i += 3 {
					in.Data[i] = []float32{nan, inf, -inf, 0, negZero, -math.MaxFloat32}[rng.Intn(6)]
				}
			}
			got, want := New(shape[0], shape[1]/2, shape[2]/2), New(shape[0], shape[1]/2, shape[2]/2)
			halves := New(shape[0], shape[1]/2, shape[2]/2)
			got.Fill(-7)
			halves.Fill(-7)
			MaxPool2DInto(in, 2, got)
			maxPoolWindows(in, 2, want, 0, shape[0])
			MaxPool2DRange(in, 2, halves, shape[0]/2, shape[0]) // channel ranges compose
			MaxPool2DRange(in, 2, halves, 0, shape[0]/2)
			for i := range want.Data {
				g, w, hv := got.Data[i], want.Data[i], halves.Data[i]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("shape %v special %v: element %d = %g, window loop gives %g", shape, special, i, g, w)
				}
				if math.Float32bits(g) != math.Float32bits(hv) {
					t.Fatalf("shape %v special %v: element %d = %g whole, %g by channel halves", shape, special, i, g, hv)
				}
			}
			if !special {
				ref, _ := MaxPool2D(in, 2)
				if d := got.MaxAbsDiff(ref); d != 0 {
					t.Fatalf("shape %v: differs from MaxPool2D by %g", shape, d)
				}
			}
		}
	}
	// The documented NaN rule, both paths: one NaN makes the window NaN.
	in := New(1, 6, 6)
	in.Set(nan, 0, 0, 1)
	in.Set(8, 0, 5, 5)
	for _, k := range []int{2, 3} {
		out := New(1, 6/k, 6/k)
		MaxPool2DInto(in, k, out)
		if v := out.Data[0]; v == v {
			t.Errorf("k=%d: window holding NaN pooled to %g", k, v)
		}
		if v := out.Data[len(out.Data)-1]; v != 8 {
			t.Errorf("k=%d: last window pooled to %g, want 8", k, v)
		}
	}
}

// TestFCIntoRangeMatchesMatMul pins the four-chain dot product to MatMul at
// 1e-5 relative, over input widths on every side of the 4-element step, with
// and without bias and ReLU, as a whole and as split ranges over a dirty out.
func TestFCIntoRangeMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, in := range []int{1, 2, 3, 4, 5, 7, 8, 13, 512, 515} {
		for ep := 0; ep < 4; ep++ {
			const outF = 9
			w, x := New(outF, in), New(in, 1)
			w.Randn(rng, 0.5)
			x.Randn(rng, 1)
			var bias []float32
			if ep&1 != 0 {
				bias = make([]float32, outF)
				for i := range bias {
					bias[i] = float32(rng.NormFloat64())
				}
			}
			relu := ep&2 != 0
			want := MatMul(w, x)
			for o := range want.Data {
				if bias != nil {
					want.Data[o] += bias[o]
				}
				if relu && want.Data[o] < 0 {
					want.Data[o] = 0
				}
			}
			got, split := New(outF), New(outF)
			got.Fill(-7)
			split.Fill(9)
			FCIntoRange(got, w, x, bias, relu, 0, outF)
			FCIntoRange(split, w, x, bias, relu, 4, outF)
			FCIntoRange(split, w, x, bias, relu, 0, 4)
			for o := range want.Data {
				if d := math.Abs(float64(got.Data[o] - want.Data[o])); d > 1e-5*math.Max(1, math.Abs(float64(want.Data[o]))) {
					t.Fatalf("in=%d ep=%d: out[%d] = %g, MatMul gives %g", in, ep, o, got.Data[o], want.Data[o])
				}
				if split.Data[o] != got.Data[o] {
					t.Fatalf("in=%d ep=%d: split ranges give out[%d] = %g, whole range %g", in, ep, o, split.Data[o], got.Data[o])
				}
			}
		}
	}
}

func TestAvgPoolGlobal(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 2, 2, 2)
	out := AvgPool2DGlobal(in)
	if out.At(0, 0, 0) != 2.5 || out.At(1, 0, 0) != 10 {
		t.Fatalf("avg = %v", out.Data)
	}
}

func TestReLU(t *testing.T) {
	a := FromSlice([]float32{-1, 0, 2}, 3)
	ReLU(a)
	if a.Data[0] != 0 || a.Data[2] != 2 {
		t.Fatalf("relu = %v", a.Data)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 100}, 4)
	p := Softmax(a)
	var s float64
	for _, v := range p.Data {
		if v < 0 {
			t.Fatal("negative probability")
		}
		s += float64(v)
	}
	if math.Abs(s-1) > 1e-5 {
		t.Fatalf("sum = %v", s)
	}
	if p.ArgMax() != 3 {
		t.Fatal("softmax should preserve argmax")
	}
}

func TestBatchNormInference(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	gamma := FromSlice([]float32{2}, 1)
	beta := FromSlice([]float32{1}, 1)
	mean := FromSlice([]float32{2.5}, 1)
	variance := FromSlice([]float32{1.25}, 1)
	BatchNormInference(x, gamma, beta, mean, variance, 0)
	// (1-2.5)/sqrt(1.25)*2+1 = -1.6833 approx
	if math.Abs(float64(x.Data[0])-(-1.6833)) > 1e-3 {
		t.Fatalf("bn = %v", x.Data)
	}
}

func TestCrossEntropy(t *testing.T) {
	p := FromSlice([]float32{0.5, 0.5}, 2)
	if got := CrossEntropy(p, 0); math.Abs(got-math.Ln2) > 1e-6 {
		t.Fatalf("CE = %v, want ln2", got)
	}
	zero := FromSlice([]float32{0, 1}, 2)
	if got := CrossEntropy(zero, 0); math.IsInf(got, 1) {
		t.Fatal("CE should be clamped, not +Inf")
	}
}

// Property: softmax output is a probability distribution for any finite input.
func TestSoftmaxProperty(t *testing.T) {
	f := func(a, b, c, d float32) bool {
		clamp := func(x float32) float32 {
			if x != x || x > 50 || x < -50 { // NaN or huge
				return 0
			}
			return x
		}
		in := FromSlice([]float32{clamp(a), clamp(b), clamp(c), clamp(d)}, 4)
		p := Softmax(in)
		var s float64
		for _, v := range p.Data {
			if v < 0 || v > 1.0001 {
				return false
			}
			s += float64(v)
		}
		return math.Abs(s-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Conv2D is linear in the input: conv(a*x) == a*conv(x).
func TestConvLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := New(2, 5, 5)
		in.Randn(r, 1)
		w := New(3, 2, 3, 3)
		w.Randn(rng, 1)
		spec := ConvSpec{Stride: 1, Pad: 1}
		out1 := Conv2D(in, w, nil, spec)
		in2 := in.Clone()
		in2.Scale(2)
		out2 := Conv2D(in2, w, nil, spec)
		out1.Scale(2)
		return out1.AllClose(out2, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSameShape(t *testing.T) {
	if !SameShape(New(2, 3), New(2, 3)) {
		t.Fatal("same shapes reported different")
	}
	if SameShape(New(2, 3), New(3, 2)) || SameShape(New(2), New(2, 1)) {
		t.Fatal("different shapes reported same")
	}
}
