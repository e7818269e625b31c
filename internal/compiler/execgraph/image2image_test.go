package execgraph

// Differential coverage for the image-to-image path: transposed convs lower
// to stride-1 equivalent convs over dilated input, upsample branches fuse
// into conv epilogues, and every optimization level must agree with the
// dense, unfused Reference walk (direct scatter-form ConvTranspose2D, no
// kernel flip) to 1e-4.

import (
	"bytes"
	"testing"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// convTChain builds input → convT → bn → relu chains over a small map for a
// sweep of (stride, pad, outPad) geometries.
func convTChain(inC, outC, h, w, stride, pad, outPad int) *model.Model {
	outH := (h-1)*stride - 2*pad + 3 + outPad
	outW := (w-1)*stride - 2*pad + 3 + outPad
	m := &model.Model{Name: "ConvTChain", Short: "CTC", Dataset: "synthetic",
		InC: inC, InH: h, InW: w}
	m.Layers = []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: inC, OutH: h, OutW: w},
		{Name: "up", Kind: model.ConvTranspose, InC: inC, OutC: outC,
			KH: 3, KW: 3, Stride: stride, Pad: pad, OutPad: outPad, Groups: 1,
			InH: h, InW: w, OutH: outH, OutW: outW, HasBias: true},
		{Name: "bn", Kind: model.BatchNorm, InC: outC, OutC: outC,
			InH: outH, InW: outW, OutH: outH, OutW: outW},
		{Name: "relu", Kind: model.ReLU, InC: outC, OutC: outC,
			InH: outH, InW: outW, OutH: outH, OutW: outW},
	}
	return m
}

func TestConvTransposeGeometriesMatchReference(t *testing.T) {
	cases := []struct{ stride, pad, outPad int }{
		{1, 0, 0}, // pure deconv growth
		{1, 1, 0}, // same-size
		{2, 1, 1}, // the SR head: exact ×2
		{2, 0, 0},
		{2, 1, 0}, // odd output
		{3, 1, 2}, // stride 3, max outPad
	}
	for _, tc := range cases {
		m := convTChain(6, 5, 7, 9, tc.stride, tc.pad, tc.outPad)
		for _, level := range []string{"noopt", "tuned", "packed", "auto"} {
			plan, params := compileAt(t, m, level)
			x := genInput(m, 11)
			want, err := Reference(m, params, x)
			if err != nil {
				t.Fatal(err)
			}
			pool := runtime.NewPool(2)
			out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
			plan.Execute(pool, []*tensor.Tensor{x}, []*tensor.Tensor{out})
			if d := out.MaxAbsDiff(want); d > 1e-4 {
				t.Fatalf("s=%d p=%d op=%d level %s: executor diverged from dense reference by %g",
					tc.stride, tc.pad, tc.outPad, level, d)
			}
		}
	}
}

func TestSRNetMatchesReferenceAllLevels(t *testing.T) {
	m, err := model.ByName("SR", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"noopt", "reorder", "lre", "tuned", "packed", "auto"} {
		plan, params := compileAt(t, m, level)
		want, err := Reference(m, params, genInput(m, 3))
		if err != nil {
			t.Fatal(err)
		}
		pool := runtime.NewPool(4)
		// Two distinct inputs in one Run: the first carries the seed the
		// reference ran, the second guards against state leaking between them.
		xs := []*tensor.Tensor{genInput(m, 3), genInput(m, 4)}
		outs := []*tensor.Tensor{
			tensor.New(plan.OutC, plan.OutH, plan.OutW),
			tensor.New(plan.OutC, plan.OutH, plan.OutW),
		}
		plan.Execute(pool, xs, outs)
		if d := outs[0].MaxAbsDiff(want); d > 1e-4 {
			t.Fatalf("level %s: SR executor diverged from dense reference by %g", level, d)
		}
		if plan.OutC != 3 || plan.OutH != 2*m.InH || plan.OutW != 2*m.InW {
			t.Fatalf("level %s: SR output geometry %dx%dx%d, want 3x%dx%d",
				level, plan.OutC, plan.OutH, plan.OutW, 2*m.InH, 2*m.InW)
		}
	}
}

func TestSRNetFusion(t *testing.T) {
	m, err := model.ByName("SR", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := compileAt(t, m, "auto")
	var convT, upsample, bn int
	for _, n := range plan.Nodes {
		switch n.Kind {
		case KindConvT:
			convT++
		case KindUpsample:
			upsample++
		}
		if n.Op == "batchnorm" {
			bn++
		}
	}
	if convT != 1 || upsample != 1 {
		t.Fatalf("plan has %d convT / %d upsample nodes, want 1 / 1", convT, upsample)
	}
	if bn != 0 {
		t.Fatalf("%d BatchNorm nodes survived folding", bn)
	}
	// Both residuals fuse: the local conv3 skip and the global up_skip into
	// conv_out's epilogue.
	if plan.Fused.Residual != 2 {
		t.Fatalf("fused %d residual adds, want 2", plan.Fused.Residual)
	}
}

func TestSRNetModelfileRoundTrip(t *testing.T) {
	m, err := model.ByName("SR", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	roundTripMatches(t, m)
}

// roundTripMatches writes a v2 graph artifact of m (generated params), reads
// it back through modelfile + FromFile, and checks the reloaded executor
// still matches the original dense reference. FP16 weight storage caps
// agreement at ~1e-2 relative, so the tolerance here is looser than the
// in-memory differential suite's 1e-4.
func roundTripMatches(t *testing.T, m *model.Model) {
	t.Helper()
	params, err := Generate(m, 8, 3.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	file := &modelfile.File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	for _, l := range m.Layers {
		switch l.Kind {
		case model.Conv, model.DWConv, model.ConvTranspose:
			if cp, ok := params.Convs[l.Name]; ok {
				file.Layers = append(file.Layers, modelfile.Layer{Conv: cp.Conv, Bias: cp.Bias})
				continue
			}
			dp := params.Dense[l.Name]
			file.Dense = append(file.Dense, modelfile.DenseLayer{
				Name: l.Name, Kind: modelfile.DenseConv1x1,
				OutC: l.OutC, InC: l.InC, Stride: l.Stride,
				InH: l.InH, InW: l.InW, OutH: l.OutH, OutW: l.OutW,
				Weights: dp.W.Data, Bias: dp.Bias,
			})
		case model.BatchNorm:
			bp := params.BNs[l.Name]
			file.BNs = append(file.BNs, modelfile.BNLayer{
				Name: l.Name, Gamma: bp.Gamma, Beta: bp.Beta,
				Mean: bp.Mean, Var: bp.Var, Eps: bp.Eps,
			})
		}
	}
	var buf bytes.Buffer
	if err := modelfile.Write(&buf, file); err != nil {
		t.Fatal(err)
	}
	rf, err := modelfile.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rm, rp, err := FromFile("sr-rt", rf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rm.Layer("up"); got == nil || got.Kind != model.ConvTranspose || got.OutPad != 1 {
		t.Fatalf("reloaded topology lost the transposed conv: %+v", got)
	}
	plan, err := Compile(rm, rp, Config{Level: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	x := genInput(m, 5)
	pool := runtime.NewPool(2)
	out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
	plan.Execute(pool, []*tensor.Tensor{x}, []*tensor.Tensor{out})
	// The reloaded executor must match the reloaded params' reference exactly
	// (differential), and the original reference loosely (FP16 weight storage).
	reloaded, err := Reference(rm, rp, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(reloaded); d > 1e-4 {
		t.Fatalf("reloaded executor diverged from reloaded reference by %g", d)
	}
	orig, err := Reference(m, params, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(orig); d > 0.05 {
		t.Fatalf("reloaded artifact diverged from the original reference by %g", d)
	}
}

// TestConvTransposeBatchParallelRace exists for the -race CI job: eight
// inputs in one Run, each with its dilate-pad scratch and conv ranges
// running concurrently across channels and filters.
func TestConvTransposeBatchParallelRace(t *testing.T) {
	m := convTChain(8, 8, 6, 6, 2, 1, 1)
	plan, params := compileAt(t, m, "packed")
	pool := runtime.NewPool(4)
	const batch = 8
	xs := make([]*tensor.Tensor, batch)
	outs := make([]*tensor.Tensor, batch)
	for i := range xs {
		xs[i] = genInput(m, int64(100+i))
		outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
	}
	plan.Execute(pool, xs, outs)
	for i := range xs {
		want, err := Reference(m, params, xs[i])
		if err != nil {
			t.Fatal(err)
		}
		if d := outs[i].MaxAbsDiff(want); d > 1e-4 {
			t.Fatalf("batch item %d diverged by %g", i, d)
		}
	}
}
