// Command patdnn-run executes a deployed .patdnn compact model end to end
// through the graph executor — BN folded, residual adds fused, liveness-
// planned arena — and reports measured whole-network host latency and
// fusion/arena stats. Every artifact carries its topology, so what
// patdnn-compile writes for a paper network and what patdnn.SavePruned writes
// for a trained one load and run the same way.
//
// Models are addressed either by explicit file path, or — with -models-dir —
// through the registry layout the serving stack uses: -model then takes a
// "name" (latest version) or "name@version" spec resolved against the
// directory's <name>@<version>.patdnn artifacts.
//
// Create a model file with:
//
//	patdnn-compile -model VGG -dataset cifar10 -o vgg.patdnn
//	patdnn-compile -model VGG -dataset cifar10 -registry-dir models -name vgg -version v1
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/modelfile"
	"patdnn/internal/registry"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

func main() {
	spec := flag.String("model", "", "path to a .patdnn model file, or a name[@version] spec with -models-dir")
	modelsDir := flag.String("models-dir", "", "resolve -model through this registry models directory instead of as a file path")
	runs := flag.Int("runs", 10, "timed inference runs")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	flag.Parse()
	if *spec == "" {
		fmt.Fprintln(os.Stderr, "usage: patdnn-run -model file.patdnn [-runs N]\n       patdnn-run -models-dir DIR -model name[@version] [-runs N]")
		os.Exit(2)
	}

	path := *spec
	if *modelsDir != "" {
		loc, err := registry.Locate(*modelsDir, *spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("resolved %s -> %s@%s (%s)\n", *spec, loc.Name, loc.Version, loc.Path)
		path = loc.Path
	}

	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mf, err := modelfile.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("loaded %s: %d pruned conv layers (device %s)\n",
		mf.LR.Model, len(mf.Layers), mf.LR.Device)

	m, params, err := execgraph.FromFile(mf.LR.Model, mf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: execgraph.LevelAuto})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	planned, naive := plan.ArenaBytes()
	fmt.Printf("graph %s: %d nodes, %d conv layers, %.2fx compressed\n",
		m.Name, len(plan.Nodes), plan.ConvLayers, plan.Compression())
	fmt.Printf("fused: %d conv+bn, %d conv/fc+relu, %d residual adds; arena %d B (naive %d B, %.1fx reuse)\n",
		plan.Fused.ConvBN, plan.Fused.ConvReLU, plan.Fused.Residual,
		planned, naive, float64(naive)/float64(planned))

	pool := runtime.NewPool(*threads)
	in := tensor.New(plan.InC, plan.InH, plan.InW)
	in.Randn(rand.New(rand.NewSource(1)), 1)
	out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
	ex := plan.NewExecutor()
	ms := runtime.Measure(*runs, func() {
		ex.Run(pool, []*tensor.Tensor{in}, []*tensor.Tensor{out})
	})
	fmt.Printf("end-to-end: %.3f ms/inference over %d runs, output [%d,%d,%d] argmax %d\n",
		ms, *runs, plan.OutC, plan.OutH, plan.OutW, out.ArgMax())
}
