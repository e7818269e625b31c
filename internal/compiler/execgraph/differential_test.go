package execgraph

// Differential acceptance tests: the fused graph executor (BN folded into
// conv weights at compile time, residual adds and ReLUs fused into conv
// epilogues, liveness-planned arena buffers) against the dense unfused
// reference forward pass, over the paper's three evaluation networks in
// their CIFAR variants, at both the tuned dense-layout kernels and the
// packed FKW-direct backend, the latter on one, two and four workers. A BN-folding
// scale/shift bug, a residual sign/shape error, an arena aliasing bug, or a
// filter cut that drops or doubles a range all surface here as a >1e-4
// divergence.

import (
	"testing"

	"patdnn/internal/model"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

func TestDifferentialPaperNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and densely executes all three paper networks")
	}
	nets := []*model.Model{
		model.VGG16("cifar10"),
		model.ResNet50("cifar10"),
		model.MobileNetV2("cifar10"),
	}
	pools := []*runtime.Pool{runtime.NewPool(1), runtime.NewPool(2), runtime.NewPool(4)}
	for _, m := range nets {
		m := m
		t.Run(m.Short, func(t *testing.T) {
			_, params := paperPlan(t, m, "packed")
			x := genInput(m, 11)
			want, err := Reference(m, params, x)
			if err != nil {
				t.Fatal(err)
			}
			if want.Dim(0) != m.Classes {
				t.Fatalf("reference output has %d classes, want %d", want.Dim(0), m.Classes)
			}
			for _, level := range []string{"tuned", "packed"} {
				plan, _ := paperPlan(t, m, level)
				// The paper claim under test: zero BatchNorm nodes execute,
				// and every residual add rides a conv epilogue.
				adds := 0
				for _, l := range m.Layers {
					if l.Kind == model.Add {
						adds++
					}
				}
				for _, n := range plan.Nodes {
					if n.Kind == KindAdd || n.Kind == KindReLU {
						t.Fatalf("level %s: unfused %s node %s in executed plan", level, n.Kind, n.Name)
					}
				}
				if plan.Fused.Residual != adds {
					t.Fatalf("level %s: %d residual adds fused, want %d", level, plan.Fused.Residual, adds)
				}
				if bns := countBN(m); plan.Fused.ConvBN != bns {
					t.Fatalf("level %s: %d BNs folded, want %d", level, plan.Fused.ConvBN, bns)
				}

				// Batched execution: every batch lane must match the dense
				// reference independently (lane 0 and lane 2 share an input),
				// at every pool width.
				xs := []*tensor.Tensor{x, genInput(m, 12), x}
				want2, err := Reference(m, params, xs[1])
				if err != nil {
					t.Fatal(err)
				}
				widths := pools // the worker sweep is the packed path's; tuned runs once
				if level == "tuned" {
					widths = pools[1:2]
				}
				for _, pool := range widths {
					outs := make([]*tensor.Tensor, len(xs))
					for i := range outs {
						outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
					}
					plan.Execute(pool, xs, outs)
					for lane, w := range []*tensor.Tensor{want, want2, want} {
						if d := outs[lane].MaxAbsDiff(w); d > 1e-4 {
							t.Fatalf("level %s, %d workers: lane %d diverged from dense reference by %g",
								level, pool.Workers(), lane, d)
						}
					}
				}
			}
		})
	}
}

func countBN(m *model.Model) int {
	n := 0
	for _, l := range m.Layers {
		if l.Kind == model.BatchNorm {
			n++
		}
	}
	return n
}
