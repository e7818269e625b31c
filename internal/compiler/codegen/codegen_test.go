package codegen

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/tensor"
)

// smallPruned builds a pruned layer with real weights and small spatial dims
// so the reference conv is cheap.
func smallPruned(t testing.TB, seed int64, stride int) *pruned.Conv {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	outC, inC := 8, 6
	inH, inW := 11, 9
	w := tensor.New(outC, inC, 3, 3)
	w.Randn(rng, 1)
	pad := 1
	geom := pruned.ConvGeom{
		Stride: stride, Pad: pad, InH: inH, InW: inW,
		OutH: tensor.ConvOutDim(inH, 3, stride, pad),
		OutW: tensor.ConvOutDim(inW, 3, stride, pad),
	}
	keep := outC * inC * 2 / 5 // ~2.5x connectivity
	return pruned.FromWeights("test", w, pattern.Canonical(8), keep, geom)
}

func refConv(c *pruned.Conv, input *tensor.Tensor, bias []float32) *tensor.Tensor {
	var b *tensor.Tensor
	if bias != nil {
		b = tensor.FromSlice(bias, len(bias))
	}
	return tensor.Conv2D(input, c.Weights, b, tensor.ConvSpec{Stride: c.Stride, Pad: c.Pad})
}

// padFor returns input zero-padded by p's conv pad: the [C, H+2p, W+2p]
// source the ExecuteRange entry points read.
func padFor(p *Plan, input *tensor.Tensor) *tensor.Tensor {
	pd := p.Conv.Pad
	out := tensor.New(input.Dim(0), input.Dim(1)+2*pd, input.Dim(2)+2*pd)
	PadInto(input, out, pd)
	return out
}

func TestAllLevelsMatchReference(t *testing.T) {
	for _, stride := range []int{1, 2} {
		c := smallPruned(t, 1, stride)
		rng := rand.New(rand.NewSource(2))
		input := tensor.New(c.InC, c.InH, c.InW)
		input.Randn(rng, 1)
		bias := make([]float32, c.OutC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		want := refConv(c, input, bias)
		for _, level := range []Level{NoOpt, Reorder, ReorderLRE, Tuned} {
			p, err := Compile(c, level, lr.DefaultTuning())
			if err != nil {
				t.Fatal(err)
			}
			got := p.Execute(input, bias)
			if !got.AllClose(want, 1e-3) {
				t.Fatalf("stride %d level %v: max diff %g", stride, level, got.MaxAbsDiff(want))
			}
		}
	}
}

func TestExecuteWithoutBias(t *testing.T) {
	c := smallPruned(t, 3, 1)
	rng := rand.New(rand.NewSource(4))
	input := tensor.New(c.InC, c.InH, c.InW)
	input.Randn(rng, 1)
	want := refConv(c, input, nil)
	p, err := Compile(c, Tuned, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Execute(input, nil); !got.AllClose(want, 1e-3) {
		t.Fatalf("diff %g", got.MaxAbsDiff(want))
	}
}

func TestExecuteRangeComposes(t *testing.T) {
	// Running two disjoint ranges must equal running the full plan.
	c := smallPruned(t, 5, 1)
	rng := rand.New(rand.NewSource(6))
	input := tensor.New(c.InC, c.InH, c.InW)
	input.Randn(rng, 1)
	for _, level := range []Level{Reorder, Tuned} {
		p, err := Compile(c, level, lr.DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		full := p.Execute(input, nil)
		padded := padFor(p, input)
		split := tensor.New(c.OutC, c.OutH, c.OutW)
		mid := c.OutC / 2
		p.ExecuteRange(padded, split, 0, mid)
		p.ExecuteRange(padded, split, mid, c.OutC)
		if !split.AllClose(full, 1e-4) {
			t.Fatalf("level %v: split execution differs: %g", level, split.MaxAbsDiff(full))
		}
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	c := smallPruned(t, 7, 1)
	c.Weights = nil
	if _, err := Compile(c, Tuned, lr.DefaultTuning()); err == nil {
		t.Fatal("expected error without weights")
	}
	c2 := smallPruned(t, 7, 1)
	c2.Set = []pattern.Pattern{pattern.New(3, 4, 1)} // 2-entry pattern
	c2.IDs[0] = 1
	if _, err := Compile(c2, Tuned, lr.DefaultTuning()); err == nil {
		t.Fatal("expected error for non-4-entry pattern")
	}
}

func TestStatsMonotoneAcrossLevels(t *testing.T) {
	c := smallPruned(t, 8, 1)
	var prev *InstrStats
	for _, level := range []Level{NoOpt, Reorder, ReorderLRE, Tuned} {
		p, err := Compile(c, level, lr.DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.MACs <= 0 || st.RegLoads <= 0 || st.WeightBytes <= 0 {
			t.Fatalf("level %v: empty stats %+v", level, st)
		}
		if prev != nil {
			if st.Branches > prev.Branches {
				t.Fatalf("level %v increased branches: %d -> %d", level, prev.Branches, st.Branches)
			}
			if st.RegLoads > prev.RegLoads {
				t.Fatalf("level %v increased reg loads: %d -> %d", level, prev.RegLoads, st.RegLoads)
			}
			if st.Imbalance > prev.Imbalance+1e-9 {
				t.Fatalf("level %v worsened imbalance", level)
			}
		}
		s := st
		prev = &s
	}
}

func TestStatsMACsMatchSparsity(t *testing.T) {
	c := smallPruned(t, 9, 1)
	p, err := Compile(c, Tuned, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(c.NNZ()) * int64(c.OutH) * int64(c.OutW)
	if got := p.Stats().MACs; got != want {
		t.Fatalf("MACs = %d, want %d", got, want)
	}
}

func TestEmitSourceShapes(t *testing.T) {
	c := smallPruned(t, 10, 1)
	wantFragments := map[Level]string{
		NoOpt:      "switch (style[oc][ic])",
		Reorder:    "branchless",
		ReorderLRE: "row slices loaded ONCE",
		Tuned:      "filter-level LRE",
	}
	for level, frag := range wantFragments {
		p, err := Compile(c, level, lr.DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		src := p.EmitSource()
		if !strings.Contains(src, frag) {
			t.Fatalf("level %v source missing %q:\n%s", level, frag, src)
		}
	}
}

// Property: all levels agree with the reference for random layers and inputs.
func TestLevelsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := smallPruned(t, seed, 1)
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		input := tensor.New(c.InC, c.InH, c.InW)
		input.Randn(rng, 1)
		want := refConv(c, input, nil)
		for _, level := range []Level{NoOpt, Reorder, ReorderLRE, Tuned} {
			p, err := Compile(c, level, lr.DefaultTuning())
			if err != nil {
				return false
			}
			if !p.Execute(input, nil).AllClose(want, 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// refDepthwise computes a reference depthwise conv channel by channel.
func refDepthwise(c *pruned.Conv, input *tensor.Tensor, bias []float32) *tensor.Tensor {
	out := tensor.New(c.OutC, c.OutH, c.OutW)
	for ch := 0; ch < c.OutC; ch++ {
		in1 := tensor.FromSlice(
			input.Data[ch*c.InH*c.InW:(ch+1)*c.InH*c.InW], 1, c.InH, c.InW)
		w1 := tensor.FromSlice(
			c.Weights.Data[ch*9:(ch+1)*9], 1, 1, 3, 3)
		var b *tensor.Tensor
		if bias != nil {
			b = tensor.FromSlice(bias[ch:ch+1], 1)
		}
		o := tensor.Conv2D(in1, w1, b, tensor.ConvSpec{Stride: c.Stride, Pad: c.Pad})
		copy(out.Data[ch*c.OutH*c.OutW:(ch+1)*c.OutH*c.OutW], o.Data)
	}
	return out
}

func TestDepthwiseAllLevelsMatchReference(t *testing.T) {
	m := model.MobileNetV2("cifar10")
	var dw *model.Layer
	for _, l := range m.Layers {
		if l.Kind == model.DWConv && l.Stride == 1 {
			dw = l
			break
		}
	}
	if dw == nil {
		t.Fatal("no stride-1 dwconv found")
	}
	c := pruned.Generate(dw, pattern.Canonical(8), 3.6, 5, true)
	if !c.Depthwise {
		t.Fatal("Generate did not mark depthwise")
	}
	if c.NonEmptyKernels() != c.OutC {
		t.Fatalf("depthwise lost kernels: %d/%d", c.NonEmptyKernels(), c.OutC)
	}
	rng := rand.New(rand.NewSource(6))
	input := tensor.New(c.InChannels(), c.InH, c.InW)
	input.Randn(rng, 1)
	bias := make([]float32, c.OutC)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	want := refDepthwise(c, input, bias)
	for _, level := range []Level{NoOpt, Reorder, ReorderLRE, Tuned} {
		p, err := Compile(c, level, lr.DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		got := p.Execute(input, bias)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("depthwise level %v: diff %g", level, got.MaxAbsDiff(want))
		}
	}
}

func TestDepthwiseStride2(t *testing.T) {
	m := model.MobileNetV2("imagenet")
	var dw *model.Layer
	for _, l := range m.Layers {
		if l.Kind == model.DWConv && l.Stride == 2 && l.InC <= 192 {
			dw = l
			break
		}
	}
	if dw == nil {
		t.Skip("no small stride-2 dwconv")
	}
	c := pruned.Generate(dw, pattern.Canonical(8), 3.6, 7, true)
	rng := rand.New(rand.NewSource(8))
	input := tensor.New(c.InChannels(), c.InH, c.InW)
	input.Randn(rng, 1)
	want := refDepthwise(c, input, nil)
	p, err := Compile(c, Tuned, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Execute(input, nil); !got.AllClose(want, 1e-3) {
		t.Fatalf("stride-2 depthwise diff %g", got.MaxAbsDiff(want))
	}
}

func TestVGGScaleLayerCompiles(t *testing.T) {
	// Compile (not execute) a real VGG L4-sized layer to ensure the plan
	// builder scales.
	m := model.VGG16("imagenet")
	l := m.ConvLayers()[3]
	c := pruned.Generate(l, pattern.Canonical(8), 3.6, 11, true)
	p, err := Compile(c, Tuned, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.MACs == 0 || st.Groups == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}
