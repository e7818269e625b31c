package codegen

import (
	"math/rand"
	"slices"
	"testing"

	"patdnn/internal/model"
	"patdnn/internal/tensor"
)

func oneByOneLayer(t *testing.T, stride int) *model.Layer {
	t.Helper()
	m := model.ResNet50("cifar10")
	for _, l := range m.AllConvLayers() {
		if l.KH == 1 && l.Stride == stride && l.InC <= 256 {
			return l
		}
	}
	t.Fatalf("no 1x1 layer with stride %d", stride)
	return nil
}

// denseFromPlan1x1 rebuilds the dense [OutC,InC,1,1] weight tensor the plan's
// CSR encodes, for the dense reference.
func denseFromPlan1x1(p *Plan1x1) *tensor.Tensor {
	w := tensor.New(p.OutC, p.InC, 1, 1)
	for f := 0; f < p.OutC; f++ {
		for k := p.rowPtr[f]; k < p.rowPtr[f+1]; k++ {
			w.Data[f*p.InC+int(p.idx[k])] = p.w[k]
		}
	}
	return w
}

func TestConv1x1MatchesDense(t *testing.T) {
	for _, stride := range []int{1, 2} {
		l := oneByOneLayer(t, stride)
		p, err := Compile1x1FromLayer(l, 3.6, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := denseFromPlan1x1(p)
		rng := rand.New(rand.NewSource(2))
		in := tensor.New(p.InC, p.InH, p.InW)
		in.Randn(rng, 1)
		bias := make([]float32, p.OutC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		want := tensor.Conv2D(in, w, tensor.FromSlice(bias, len(bias)),
			tensor.ConvSpec{Stride: stride, Pad: 0})
		got := p.Execute(in, bias)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("stride %d: 1x1 plan diff %g", stride, got.MaxAbsDiff(want))
		}
	}
}

func TestConv1x1PruningRate(t *testing.T) {
	l := oneByOneLayer(t, 1)
	p, err := Compile1x1FromLayer(l, 3.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := l.OutC * l.InC
	want := int(float64(total)/3.6 + 0.5)
	if p.NNZ() != want {
		t.Fatalf("kept %d weights, want %d", p.NNZ(), want)
	}
	// No pruning at rate <= 1.
	p2, err := Compile1x1FromLayer(l, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NNZ() != total {
		t.Fatalf("rate 1 pruned weights: %d/%d", p2.NNZ(), total)
	}
}

func TestConv1x1KeepsLargestWeights(t *testing.T) {
	w := tensor.New(2, 3, 1, 1)
	copy(w.Data, []float32{5, 0.1, -4, 0.2, 3, -0.3})
	p, err := Compile1x1("t", w, 3, struct{ Stride, InH, InW, OutH, OutW int }{1, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Largest |w|: 5 (f0,c0), -4 (f0,c2), 3 (f1,c1).
	if want := []int32{0, 2, 3}; !slices.Equal(p.rowPtr, want) {
		t.Fatalf("row pointers %v, want %v", p.rowPtr, want)
	}
	if !slices.Equal(p.idx, []int32{0, 2, 1}) || !slices.Equal(p.w, []float32{5, -4, 3}) {
		t.Fatalf("kept channels %v weights %v", p.idx, p.w)
	}
}

func TestConv1x1Stats(t *testing.T) {
	l := oneByOneLayer(t, 1)
	p, err := Compile1x1FromLayer(l, 3.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.MACs != int64(p.NNZ())*int64(p.OutH)*int64(p.OutW) {
		t.Fatalf("MACs = %d", st.MACs)
	}
	if st.Branches != 0 {
		t.Fatal("1x1 plan must be branchless")
	}
	if st.Imbalance < 0 || st.Imbalance > 1 {
		t.Fatalf("imbalance %v", st.Imbalance)
	}
}

func TestCompile1x1Rejects3x3(t *testing.T) {
	m := model.VGG16("cifar10")
	if _, err := Compile1x1FromLayer(m.ConvLayers()[0], 3.6, 1); err == nil {
		t.Fatal("expected error for 3x3 layer")
	}
	if _, err := Compile1x1("x", tensor.New(2, 2, 3, 3), 1,
		struct{ Stride, InH, InW, OutH, OutW int }{1, 1, 1, 1, 1}); err == nil {
		t.Fatal("expected error for non-1x1 weights")
	}
}
