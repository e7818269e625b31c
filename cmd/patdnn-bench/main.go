// Command patdnn-bench regenerates the paper's evaluation artifacts: every
// table and figure of the PatDNN evaluation section, plus the extra
// ablations, from this repository's implementations. Phone latencies and
// ImageNet/CIFAR accuracies in those artifacts are modelled (calibrated to
// the paper's reported numbers, internal/bench/internal/…), not measured,
// and this command is the only place they are printed. It also hosts the
// Tuned-vs-Packed kernel sweep: a measured head-to-head of the tuned
// dense-layout kernels against the FKW-direct packed backend on a VGG-style
// layer across batch sizes.
//
// Usage:
//
//	patdnn-bench -list             # show available experiments
//	patdnn-bench -run table3       # regenerate one artifact
//	patdnn-bench -run all          # regenerate everything (minutes)
//	patdnn-bench -sweep            # Tuned vs Packed wall-clock sweep
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"patdnn/internal/bench"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "", "experiment ID to run, or 'all'")
	sweep := flag.Bool("sweep", false, "run the Tuned-vs-Packed kernel sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			goruntime.GC() // materialize the steady-state heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	switch {
	case *sweep:
		runSweep()
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Desc)
		}
	case *run == "all":
		for _, e := range bench.All() {
			start := time.Now()
			fmt.Println(e.Run().Render())
			fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	case *run != "":
		e, ok := bench.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
			os.Exit(1)
		}
		fmt.Println(e.Run().Render())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSweep measures the tuned dense-layout kernels against the packed
// FKW-direct backend on a VGG-L4-style layer (128×128 channels, 8 patterns,
// 3.6× connectivity) across output planes and batch sizes. The plane axis is
// the planes the served nets have — 28×28 (the paper's ImageNet L4) down to
// the 8×8, 4×4 and 2×2 of the CIFAR nets' last blocks — because which
// microkernel contract a layer takes, and what a level buys on it, is decided
// by the plane: at most simd.MaxRunPlane pixels run plane-resident, wider ones
// row-tiled. Each level compiles the layer as a one-conv model and times
// execgraph's Executor.Run — the batched sweep the serving engine executes.
func runSweep() {
	pool := runtime.NewPool(0)
	for _, hw := range []int{28, 8, 4, 2} {
		sweepPlane(pool, hw)
	}
}

func sweepPlane(pool *runtime.Pool, hw int) {
	rng := rand.New(rand.NewSource(7))
	const outC, inC = 128, 128
	h, w := hw, hw
	weights := tensor.New(outC, inC, 3, 3)
	weights.Randn(rng, 0.1)
	geom := pruned.ConvGeom{Stride: 1, Pad: 1, InH: h, InW: w, OutH: h, OutW: w}
	kernels := float64(outC) * float64(inC)
	conv := pruned.FromWeights("sweep-l4", weights, pattern.Canonical(8), int(kernels/3.6), geom)
	input := tensor.New(inC, h, w)
	input.Randn(rng, 1)

	// input → conv+bias → ReLU; Compile fuses the ReLU into the conv epilogue.
	m := &model.Model{Name: conv.Name, Short: conv.Name, InC: inC, InH: h, InW: w, Layers: []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: inC, OutH: h, OutW: w},
		{Name: conv.Name, Kind: model.Conv, InC: inC, OutC: outC, KH: 3, KW: 3, Stride: 1, Pad: 1,
			Groups: 1, InH: h, InW: w, OutH: h, OutW: w, HasBias: true},
		{Name: "relu", Kind: model.ReLU, InC: outC, OutC: outC},
	}}
	params := &execgraph.Params{Convs: map[string]*execgraph.ConvParams{
		conv.Name: {Conv: conv, Bias: make([]float32, outC)},
	}}
	levels := []codegen.Level{codegen.Tuned, codegen.Packed, codegen.PackedQ8}
	execs := map[codegen.Level]*execgraph.Executor{}
	for _, lv := range levels {
		plan, err := execgraph.Compile(m, params, execgraph.Config{Level: codegen.LevelTag(lv)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "compile %v: %v\n", lv, err)
			os.Exit(1)
		}
		execs[lv] = plan.NewExecutor()
	}

	fmt.Printf("Tuned vs Packed vs Packed-INT8 sweep — %dx%d conv, %dx%d map, %d workers\n",
		outC, inC, h, w, pool.Workers())
	fmt.Printf("%-6s  %-18s  %-18s  %-18s  %-9s  %s\n",
		"batch", codegen.Tuned, codegen.Packed, codegen.PackedQ8, "pk/tuned", "q8/packed")
	for _, batch := range []int{1, 2, 4, 8, 16} {
		inputs := make([]*tensor.Tensor, batch)
		outs := make([]*tensor.Tensor, batch)
		for i := range inputs {
			inputs[i], outs[i] = input, tensor.New(outC, h, w)
		}
		ms := map[codegen.Level]float64{}
		for _, lv := range levels {
			ex := execs[lv]
			// Enough repetitions that a 2×2 plane's tens of microseconds are
			// not one timer read.
			ms[lv] = runtime.Measure(5+2000/(hw*hw), func() { ex.Run(pool, inputs, outs) })
		}
		fmt.Printf("%-6d  %15.3fms  %15.3fms  %15.3fms  %8.2fx  %8.2fx\n",
			batch, ms[codegen.Tuned], ms[codegen.Packed], ms[codegen.PackedQ8],
			ms[codegen.Tuned]/ms[codegen.Packed], ms[codegen.Packed]/ms[codegen.PackedQ8])
	}
	fmt.Println()
}
