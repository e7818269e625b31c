package modelfile

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/compiler/reorder"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/tensor"
)

func sampleFile(t *testing.T, seed int64) *File {
	t.Helper()
	m := model.VGG16("cifar10")
	rng := rand.New(rand.NewSource(seed))
	// Records for the first three convs under the whole VGG topology: the
	// codec does not cross-check the two (execgraph.FromFile does).
	f := File{Net: m}
	rep := &lr.Representation{Model: m.Name, Device: "CPU"}
	for _, l := range m.ConvLayers()[:3] {
		c := pruned.Generate(l, pattern.Canonical(8), 3.6, seed, true)
		bias := make([]float32, c.OutC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		f.Layers = append(f.Layers, Layer{Conv: c, Bias: bias})
		rep.Layers = append(rep.Layers, lr.FromPruned(c, reorder.Build(c), lr.DefaultTuning()))
	}
	f.LR = rep
	return &f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.LR.Model != f.LR.Model || len(got.Layers) != len(f.Layers) {
		t.Fatalf("header mismatch: %s, %d layers", got.LR.Model, len(got.Layers))
	}
	for i, want := range f.Layers {
		g := got.Layers[i]
		if g.Conv.Name != want.Conv.Name || g.Conv.OutC != want.Conv.OutC ||
			g.Conv.Stride != want.Conv.Stride || g.Conv.OutH != want.Conv.OutH {
			t.Fatalf("layer %d geometry mismatch: %+v", i, g.Conv)
		}
		// Pattern IDs round-trip exactly (IDs are re-derived from FKW, so
		// equal pattern *assignment*, possibly with renumbered IDs).
		for k := range want.Conv.IDs {
			wp := want.Conv.PatternOf(k/want.Conv.InC, k%want.Conv.InC)
			gp := g.Conv.PatternOf(k/g.Conv.InC, k%g.Conv.InC)
			if wp.Mask != gp.Mask {
				t.Fatalf("layer %d kernel %d pattern changed", i, k)
			}
		}
		// Weights round-trip within FP16 precision.
		if d := g.Conv.Weights.MaxAbsDiff(want.Conv.Weights); d > 2e-3 {
			t.Fatalf("layer %d weight diff %g beyond FP16 tolerance", i, d)
		}
		for j := range want.Bias {
			if math.Abs(float64(g.Bias[j]-want.Bias[j])) > 2e-3 {
				t.Fatalf("layer %d bias %d diff too large", i, j)
			}
		}
	}
}

func TestDecodedModelStillValid(t *testing.T) {
	f := sampleFile(t, 2)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range got.Layers {
		if err := l.Conv.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := got.LR.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	f := sampleFile(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one byte in the middle.
	data[len(data)/2] ^= 0x40
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestNon4EntryPatternRejected(t *testing.T) {
	// A file whose pattern table carries a 3-entry mask (with a valid CRC —
	// checksums are not a defense against crafted files, anyone can compute
	// one) must be rejected at read time: the executable kernels unroll
	// 4-entry runs and would otherwise fail much later, inside inference.
	set := []pattern.Pattern{pattern.New(3, 0, 1, 2)} // 3 entries
	w := tensor.New(2, 2, 3, 3)
	for k := 0; k < 4; k++ {
		for _, pos := range set[0].Indices() {
			w.Data[k*9+pos] = 1
		}
	}
	c := &pruned.Conv{
		Name: "bad", OutC: 2, InC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1,
		InH: 4, InW: 4, OutH: 4, OutW: 4,
		Set: set, IDs: []int{1, 1, 1, 1}, Weights: w,
	}
	f := &File{
		LR:     &lr.Representation{Model: "bad", Device: "CPU"},
		Layers: []Layer{{Conv: c, Bias: []float32{0, 0}}},
		Net: &model.Model{Name: "bad", InC: 2, InH: 4, InW: 4, Layers: []*model.Layer{
			{Name: "input", Kind: model.Input, OutC: 2, OutH: 4, OutW: 4},
			{Name: "bad", Kind: model.Conv, InC: 2, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1,
				Groups: 1, InH: 4, InW: 4, OutH: 4, OutW: 4},
		}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "entries") {
		t.Fatalf("Read = %v, want non-4-entry pattern rejection", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	f := sampleFile(t, 4)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, 12, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTAMODEL_______________"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWriteRequiresWeights(t *testing.T) {
	f := sampleFile(t, 5)
	f.Layers[0].Conv.Weights = nil
	var buf bytes.Buffer
	if err := Write(&buf, f); err == nil {
		t.Fatal("expected error for weightless layer")
	}
}

func TestNilBiasWritesZeros(t *testing.T) {
	f := sampleFile(t, 6)
	f.Layers[0].Bias = nil
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got.Layers[0].Bias {
		if b != 0 {
			t.Fatal("nil bias should decode as zeros")
		}
	}
}

func TestCompressionVsDense(t *testing.T) {
	// The serialized file must be far smaller than the dense float32 model.
	f := sampleFile(t, 7)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	var denseBytes int
	for _, l := range f.Layers {
		denseBytes += l.Conv.TotalWeights() * 4
	}
	ratio := float64(buf.Len()) / float64(denseBytes)
	// FP16 + 8.1x pruning: weights alone are 1/16.2 of dense; structure
	// overhead brings it to roughly 1/10.
	if ratio > 0.20 {
		t.Fatalf("file is %.1f%% of dense size, want < 20%%", 100*ratio)
	}
}

func TestRoundTripPreservesInference(t *testing.T) {
	// The decoded weights must convolve to (FP16-close) identical outputs.
	f := sampleFile(t, 8)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := f.Layers[0].Conv, got.Layers[0].Conv
	rng := rand.New(rand.NewSource(9))
	in := tensor.New(c0.InC, 8, 8)
	in.Randn(rng, 1)
	spec := tensor.ConvSpec{Stride: c0.Stride, Pad: c0.Pad}
	a := tensor.Conv2D(in, c0.Weights, nil, spec)
	b := tensor.Conv2D(in, c1.Weights, nil, spec)
	if !a.AllClose(b, 5e-2) {
		t.Fatalf("inference diverged after round trip: %g", a.MaxAbsDiff(b))
	}
}
