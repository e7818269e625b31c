package execgraph

// Differential soak: every paper network (CIFAR variants) × every codegen
// level — the six named kernel generations plus the tuner's auto chooser —
// executed through the graph plan and pinned to the dense unfused reference:
// 1e-4 for the FP32 levels, a quantization-error budget for packedq8 (8-bit
// weights through a deep stack shift the softmax outputs by more than kernel
// reassociation ever could, but far less than a structural bug would). The
// narrower differential test covers tuned+packed; this sweep is the
// exhaustive cross-product, wired into CI as its own -race job so a kernel
// regression in any generation (not just the fast ones the benchmarks favor)
// is caught batch-wide before it ships. Short mode skips it: the sweep
// compiles 21 full plan stacks.

import (
	"testing"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/model"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

func TestDifferentialSoakAllNetsAllLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles all three paper networks at all six levels")
	}
	levels := []string{"auto"}
	for _, lv := range codegen.AllLevels() {
		levels = append(levels, codegen.LevelTag(lv))
	}
	nets := []*model.Model{
		model.VGG16("cifar10"),
		model.ResNet50("cifar10"),
		model.MobileNetV2("cifar10"),
	}
	pool := runtime.NewPool(0)
	for _, m := range nets {
		m := m
		t.Run(m.Short, func(t *testing.T) {
			_, params := paperPlan(t, m, "packed")
			// Two references: the batch sweep below runs two distinct lanes,
			// and each must match its own input's dense forward pass.
			xs := []*tensor.Tensor{genInput(m, 21), genInput(m, 22)}
			wants := make([]*tensor.Tensor, len(xs))
			for i, x := range xs {
				want, err := Reference(m, params, x)
				if err != nil {
					t.Fatal(err)
				}
				wants[i] = want
			}
			for _, level := range levels {
				level := level
				tol := 1e-4
				if level == codegen.LevelTag(codegen.PackedQ8) {
					tol = 5e-2
				}
				t.Run(level, func(t *testing.T) {
					plan, _ := paperPlan(t, m, level)
					outs := make([]*tensor.Tensor, len(xs))
					for i := range outs {
						outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
					}
					plan.Execute(pool, xs, outs)
					for i := range outs {
						if d := outs[i].MaxAbsDiff(wants[i]); d > tol {
							t.Fatalf("%s @ %s: lane %d diverged from dense reference by %g",
								m.Short, level, i, d)
						}
					}
					// Auto must never choose quantized execution on its own —
					// quantization changes the numbers, so it is always an
					// explicit caller/artifact decision.
					if level == LevelAuto {
						for _, n := range plan.Nodes {
							if n.Kind != KindConv {
								continue
							}
							if _, quantized := n.Plan.QuantizedWeightBytes(); quantized {
								t.Fatalf("%s @ auto: node %s compiled quantized", m.Short, n.Name)
							}
						}
					}
					// The executed plan must carry no unfused elementwise
					// nodes at any level — fusion is level-independent.
					for _, n := range plan.Nodes {
						if n.Kind == KindAdd || n.Kind == KindReLU {
							t.Fatalf("%s @ %s: unfused %s node %s", m.Short, level, n.Kind, n.Name)
						}
					}
				})
			}
		})
	}
}
