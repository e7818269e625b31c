package baseline

import (
	"math/rand"
	"testing"

	"patdnn/internal/sparse"
	"patdnn/internal/tensor"
)

func TestWinogradMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct{ ci, co, h, w int }{
		{3, 4, 8, 8}, {2, 2, 7, 9}, {5, 3, 6, 6},
	} {
		in := tensor.New(cfg.ci, cfg.h, cfg.w)
		in.Randn(rng, 1)
		wt := tensor.New(cfg.co, cfg.ci, 3, 3)
		wt.Randn(rng, 1)
		b := tensor.New(cfg.co)
		b.Randn(rng, 1)
		want := tensor.Conv2D(in, wt, b, tensor.ConvSpec{Stride: 1, Pad: 1})
		got := WinogradConv3x3(in, wt, b)
		if !got.AllClose(want, 1e-3) {
			t.Fatalf("cfg %+v: winograd diff %g", cfg, got.MaxAbsDiff(want))
		}
	}
}

func TestWinogradNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := tensor.New(2, 5, 5)
	in.Randn(rng, 1)
	wt := tensor.New(3, 2, 3, 3)
	wt.Randn(rng, 1)
	want := tensor.Conv2D(in, wt, nil, tensor.ConvSpec{Stride: 1, Pad: 1})
	if got := WinogradConv3x3(in, wt, nil); !got.AllClose(want, 1e-3) {
		t.Fatalf("diff %g", got.MaxAbsDiff(want))
	}
}

func TestCSRConvMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := tensor.New(3, 9, 7)
	in.Randn(rng, 1)
	wt := tensor.New(4, 3, 3, 3)
	// Sparsify ~60%.
	for i := range wt.Data {
		if rng.Float64() < 0.4 {
			wt.Data[i] = float32(rng.NormFloat64())
		}
	}
	b := tensor.New(4)
	b.Randn(rng, 1)
	spec := tensor.ConvSpec{Stride: 1, Pad: 1}
	want := tensor.Conv2D(in, wt, b, spec)
	csr := sparse.FromConvWeights(wt)
	got := CSRConv(in, csr, b, 3, 3, spec)
	if !got.AllClose(want, 1e-3) {
		t.Fatalf("CSR conv diff %g", got.MaxAbsDiff(want))
	}
}
