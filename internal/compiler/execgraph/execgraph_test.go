package execgraph

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// bottleneckModel hand-builds one ResNet-style bottleneck block on a small
// feature map: conv1x1 → bn → relu → conv3x3 → bn → relu → conv1x1 → bn →
// add(identity) → relu. Every fusion the graph passes implement fires on it.
func bottleneckModel() *model.Model {
	const c, w, h = 16, 8, 8
	m := &model.Model{Name: "Bottleneck", Short: "BTL", Dataset: "synthetic",
		Classes: 4, InC: c, InH: h, InW: w}
	conv := func(name string, inC, outC, k, pad int) *model.Layer {
		return &model.Layer{Name: name, Kind: model.Conv, InC: inC, OutC: outC,
			KH: k, KW: k, Stride: 1, Pad: pad, Groups: 1,
			InH: h, InW: w, OutH: h, OutW: w, HasBias: true}
	}
	bn := func(name string, ch int) *model.Layer {
		return &model.Layer{Name: name, Kind: model.BatchNorm, InC: ch, OutC: ch,
			InH: h, InW: w, OutH: h, OutW: w}
	}
	relu := func(name string, ch int) *model.Layer {
		return &model.Layer{Name: name, Kind: model.ReLU, InC: ch, OutC: ch,
			InH: h, InW: w, OutH: h, OutW: w}
	}
	m.Layers = []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: c, OutH: h, OutW: w},
		conv("a", c, 8, 1, 0), bn("bn_a", 8), relu("relu_a", 8),
		conv("b", 8, 8, 3, 1), bn("bn_b", 8), relu("relu_b", 8),
		conv("c", 8, c, 1, 0), bn("bn_c", c),
		{Name: "add1", Kind: model.Add, InC: c, OutC: c, InH: h, InW: w,
			OutH: h, OutW: w, ShortcutOf: "input"},
		relu("relu_out", c),
	}
	return m
}

// bottleneckFile lays the bottleneck block out as a well-formed artifact: a
// fresh File over a fresh topology each call, so tests can mutate both.
func bottleneckFile(t testing.TB) *modelfile.File {
	t.Helper()
	m := bottleneckModel()
	params, err := Generate(m, 8, 3.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	f := &modelfile.File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	cp := params.Convs["b"]
	f.Layers = append(f.Layers, modelfile.Layer{Conv: cp.Conv, Bias: cp.Bias})
	for _, name := range []string{"a", "c"} {
		dp := params.Dense[name]
		l := m.Layer(name)
		f.Dense = append(f.Dense, modelfile.DenseLayer{
			Name: name, Kind: modelfile.DenseConv1x1,
			OutC: l.OutC, InC: l.InC, Stride: l.Stride,
			InH: l.InH, InW: l.InW, OutH: l.OutH, OutW: l.OutW,
			Weights: dp.W.Data, Bias: dp.Bias,
		})
	}
	for _, name := range []string{"bn_a", "bn_b", "bn_c"} {
		bp := params.BNs[name]
		f.BNs = append(f.BNs, modelfile.BNLayer{
			Name: name, Gamma: bp.Gamma, Beta: bp.Beta,
			Mean: bp.Mean, Var: bp.Var, Eps: bp.Eps,
		})
	}
	return f
}

func genInput(m *model.Model, seed int64) *tensor.Tensor {
	x := tensor.New(m.InC, m.InH, m.InW)
	x.Randn(rand.New(rand.NewSource(seed)), 1)
	return x
}

func compileAt(t testing.TB, m *model.Model, level string) (*Plan, *Params) {
	t.Helper()
	params, err := Generate(m, 8, 3.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(m, params, Config{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return plan, params
}

func TestBottleneckFusesEverything(t *testing.T) {
	plan, _ := compileAt(t, bottleneckModel(), "auto")
	// conv+bn ×3, residual add fused into the tail conv, relus fused: the
	// executed plan holds input + 3 convs only.
	if len(plan.Nodes) != 4 {
		for _, n := range plan.Nodes {
			t.Logf("node %s kind=%s op=%s", n.Name, n.Kind, n.Op)
		}
		t.Fatalf("plan has %d nodes, want 4 (input + 3 fully-fused convs)", len(plan.Nodes))
	}
	if plan.Fused.ConvBN != 3 || plan.Fused.Residual != 1 || plan.Fused.ConvReLU != 3 {
		t.Fatalf("fused ops = %+v, want 3 BN / 1 residual / 3 ReLU", plan.Fused)
	}
	tail := plan.Nodes[len(plan.Nodes)-1]
	if tail.Shortcut < 0 || !tail.ReLU {
		t.Fatalf("tail conv did not absorb add+relu: %+v", tail)
	}
	for _, n := range plan.Nodes {
		if strings.Contains(n.Op, "batchnorm") || n.Kind == KindAdd || n.Kind == KindReLU {
			t.Fatalf("unfused node survived: %s (%s)", n.Name, n.Op)
		}
	}
}

func TestBottleneckMatchesReference(t *testing.T) {
	m := bottleneckModel()
	for _, level := range []string{"tuned", "packed", "auto"} {
		plan, params := compileAt(t, m, level)
		x := genInput(m, 7)
		want, err := Reference(m, params, x)
		if err != nil {
			t.Fatal(err)
		}
		pool := runtime.NewPool(2)
		out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
		plan.Execute(pool, []*tensor.Tensor{x}, []*tensor.Tensor{out})
		if d := out.MaxAbsDiff(want); d > 1e-4 {
			t.Fatalf("level %s: executor diverged from dense reference by %g", level, d)
		}
	}
}

func TestArenaReusesBuffers(t *testing.T) {
	// Deep feed-forward nets must reuse heavily; a 4-node fully-fused
	// bottleneck has nothing reusable (everything stays live for the
	// shortcut), so the reuse assertion applies to the real nets.
	for _, m := range []*model.Model{model.VGG16("cifar10"), model.ResNet50("cifar10")} {
		plan, _ := compileAt(t, m, "tuned")
		planned, naive := plan.ArenaBytes()
		if planned <= 0 || naive <= 0 {
			t.Fatalf("%s: empty arena plan", m.Name)
		}
		if float64(planned) > 0.5*float64(naive) {
			t.Fatalf("%s: weak liveness reuse: planned %d vs naive %d", m.Name, planned, naive)
		}
	}
}

// TestArenaSlotsNeverAliasLiveTensors checks the memory plan structurally: no
// node's output buffer may coincide with a buffer still holding a live input
// (a tensor consumed by this or a later node), and padding scratch must not
// alias anything live during its node.
func TestArenaSlotsNeverAliasLiveTensors(t *testing.T) {
	for _, m := range []*model.Model{bottleneckModel(), model.ResNet50("cifar10")} {
		plan, _ := compileAt(t, m, "tuned")
		last := make([]int, len(plan.Nodes))
		for i := range last {
			last[i] = i
		}
		for id, n := range plan.Nodes {
			for _, in := range n.Inputs {
				if id > last[in] {
					last[in] = id
				}
			}
		}
		last[len(plan.Nodes)-1] = len(plan.Nodes)
		for i, n := range plan.Nodes {
			for j := 0; j < i; j++ {
				if last[j] >= i && plan.Nodes[j].slot == n.slot {
					t.Fatalf("%s: node %s reuses the buffer of still-live %s",
						m.Name, n.Name, plan.Nodes[j].Name)
				}
				if last[j] >= i && n.padSlot >= 0 && plan.Nodes[j].slot == n.padSlot {
					t.Fatalf("%s: pad scratch of %s aliases live %s",
						m.Name, n.Name, plan.Nodes[j].Name)
				}
			}
			if n.padSlot >= 0 && n.padSlot == n.slot {
				t.Fatalf("%s: node %s pad scratch aliases its own output", m.Name, n.Name)
			}
		}
	}
}

// TestExecutorBatchedZeroAllocs is the arena-reuse acceptance check: a warm
// executor sweeping a batch over a ResNet bottleneck block performs zero
// steady-state allocations. Workers=1 keeps ParallelFor on the calling
// goroutine so goroutine spawns don't count against the kernel path.
func TestExecutorBatchedZeroAllocs(t *testing.T) {
	m := bottleneckModel()
	plan, _ := compileAt(t, m, "packed")
	pool := runtime.NewPool(1)
	const batch = 4
	xs := make([]*tensor.Tensor, batch)
	outs := make([]*tensor.Tensor, batch)
	for i := range xs {
		xs[i] = genInput(m, int64(i))
		outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
	}
	ex := plan.NewExecutor()
	ex.Run(pool, xs, outs) // warm the per-item states
	if allocs := testing.AllocsPerRun(10, func() {
		ex.Run(pool, xs, outs)
	}); allocs != 0 {
		t.Fatalf("batched sweep allocates %.1f objects/run in steady state, want 0", allocs)
	}
}

// TestConcurrentGraphCompileHammer compiles plans and executes batches from
// many goroutines simultaneously — the -race check over concurrent graph-plan
// compiles sharing the worker pool and the per-plan executor pools.
func TestConcurrentGraphCompileHammer(t *testing.T) {
	m := bottleneckModel()
	params, err := Generate(m, 8, 3.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewPool(4)
	shared, err := Compile(m, params, Config{Level: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			levels := []string{"tuned", "packed", "auto"}
			for i := 0; i < 6; i++ {
				// Fresh compile per iteration: concurrent codegen over shared
				// params must be race-free.
				plan, err := Compile(m, params, Config{Level: levels[(g+i)%len(levels)]})
				if err != nil {
					t.Error(err)
					return
				}
				for _, pl := range []*Plan{plan, shared} {
					xs := []*tensor.Tensor{genInput(m, int64(g*100+i))}
					outs := []*tensor.Tensor{tensor.New(pl.OutC, pl.OutH, pl.OutW)}
					pl.Execute(pool, xs, outs)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestUnsupportedStemRejectedFast(t *testing.T) {
	// ResNet-50/ImageNet starts with a 7×7 conv the pattern compiler cannot
	// express; both Generate and Compile must reject it descriptively.
	m := model.ResNet50("imagenet")
	if _, err := Generate(m, 8, 3.6, 1); err == nil || !strings.Contains(err.Error(), "7x7") {
		t.Fatalf("Generate err = %v, want 7x7 rejection", err)
	}
	if err := ValidateModel(m); err == nil {
		t.Fatal("ValidateModel accepted a 7x7 stem")
	}
}

// TestFromFileRejectsMismatchedRecords pins the artifact cross-validation: a
// v2 file whose records are individually well-formed but disagree with the
// topology must fail the load (a quarantinable error), not panic inside BN
// folding or a kernel at serve time.
func TestFromFileRejectsMismatchedRecords(t *testing.T) {
	// The well-formed artifact loads and compiles.
	good := bottleneckFile(t)
	gm, gp, err := FromFile("btl", good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(gm, gp, Config{Level: "tuned"}); err != nil {
		t.Fatal(err)
	}

	mutate := []struct {
		name string
		mod  func(f *modelfile.File)
	}{
		{"bn-wrong-channels", func(f *modelfile.File) {
			f.BNs[0].Gamma = f.BNs[0].Gamma[:1]
			f.BNs[0].Beta = f.BNs[0].Beta[:1]
			f.BNs[0].Mean = f.BNs[0].Mean[:1]
			f.BNs[0].Var = f.BNs[0].Var[:1]
		}},
		{"dense-wrong-outc", func(f *modelfile.File) { f.Dense[0].OutC = 4 }},
		{"dense-wrong-kind", func(f *modelfile.File) { f.Dense[0].Kind = modelfile.DenseFC }},
		{"dense-unknown-layer", func(f *modelfile.File) { f.Dense[0].Name = "ghost" }},
		{"bn-unknown-layer", func(f *modelfile.File) { f.BNs[0].Name = "ghost" }},
		{"conv-wrong-geometry", func(f *modelfile.File) { f.Layers[0].Conv.OutH = 99 }},
	}
	for _, mu := range mutate {
		f := bottleneckFile(t)
		mu.mod(f)
		fm, fp, err := FromFile("btl", f)
		if err != nil {
			continue // rejected at load: the desired outcome
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: compile panicked instead of erroring: %v", mu.name, r)
				}
			}()
			if _, err := Compile(fm, fp, Config{Level: "tuned"}); err == nil {
				t.Fatalf("%s: inconsistent artifact compiled cleanly", mu.name)
			}
		}()
	}
}

// TestCorruptGeometry1x1RejectedAtCompile is the compile half of
// FuzzModelFileRead's tall-1×1 seed: an artifact whose 1×1 conv declares an
// output plane its input and stride cannot produce — in the topology, which
// is where Compile takes geometry from, with the layers after it agreeing, so
// the file round-trips and every record/topology cross-check passes — must
// fail Compile with an error. Executed, the tile kernels would read past
// the input plane; they are not bounds-checked.
func TestCorruptGeometry1x1RejectedAtCompile(t *testing.T) {
	build := func(outH int) *modelfile.File {
		m := &model.Model{Name: "Tall-1x1", Short: "T1", Dataset: "synthetic",
			Classes: 4, InC: 4, InH: 8, InW: 8}
		m.Layers = []*model.Layer{
			{Name: "input", Kind: model.Input, OutC: 4, OutH: 8, OutW: 8},
			{Name: "p1", Kind: model.Conv, InC: 4, OutC: 8, KH: 1, KW: 1, Stride: 1,
				Groups: 1, InH: 8, InW: 8, OutH: outH, OutW: 8},
			{Name: "gap", Kind: model.AvgPoolGlobal, InC: 8, OutC: 8, InH: outH, InW: 8, OutH: 1, OutW: 1},
			{Name: "flat", Kind: model.Flatten, InC: 8, InH: 1, InW: 1, OutC: 8, OutH: 1, OutW: 1},
			{Name: "fc", Kind: model.FC, InC: 8, OutC: 4, HasBias: true, InH: 1, InW: 1, OutH: 1, OutW: 1},
		}
		rng := rand.New(rand.NewSource(5))
		w1, wf := make([]float32, 8*4), make([]float32, 4*8)
		for i := range w1 {
			w1[i] = float32(rng.NormFloat64())
		}
		for i := range wf {
			wf[i] = float32(rng.NormFloat64())
		}
		return &modelfile.File{
			LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m,
			Dense: []modelfile.DenseLayer{
				{Name: "p1", Kind: modelfile.DenseConv1x1, OutC: 8, InC: 4, Stride: 1,
					InH: 8, InW: 8, OutH: 8, OutW: 8, Weights: w1},
				{Name: "fc", Kind: modelfile.DenseFC, OutC: 4, InC: 8, Weights: wf, Bias: make([]float32, 4)},
			},
		}
	}
	for _, tc := range []struct {
		outH   int
		wantOK bool
	}{{8, true}, {9, false}} {
		var buf bytes.Buffer
		if err := modelfile.Write(&buf, build(tc.outH)); err != nil {
			t.Fatal(err)
		}
		mf, err := modelfile.Read(&buf)
		if err != nil {
			t.Fatalf("OutH %d: the artifact must survive the reader for the damage to reach compile: %v", tc.outH, err)
		}
		m, params, err := FromFile("tall", mf)
		if err != nil {
			t.Fatalf("OutH %d: FromFile: %v", tc.outH, err)
		}
		_, err = Compile(m, params, Config{})
		if tc.wantOK && err != nil {
			t.Fatalf("OutH %d: honest artifact failed to compile: %v", tc.outH, err)
		}
		if !tc.wantOK && (err == nil || !strings.Contains(err.Error(), "1x1 conv p1 declares output 9x8")) {
			t.Fatalf("OutH %d: want the 1x1 geometry error, got %v", tc.outH, err)
		}
	}
}

// TestAutoCompilesPacked: "auto" is the packed family, not a per-layer
// choice — every pattern conv of every servable built-in net compiles at
// codegen.Packed, so an auto plan and a packed plan compute identical bits.
// A packed node holds no dense weights (the packed walk never reads them)
// and MemoryBytes does not charge for them; the Params keep theirs, which is
// what lets the second compile below, and the reference, work.
func TestAutoCompilesPacked(t *testing.T) {
	nets := []*model.Model{
		model.VGG16("cifar10"), model.ResNet50("cifar10"),
		model.MobileNetV2("cifar10"), model.SRNet("cifar10"),
		model.MobileNetV2("imagenet"),
	}
	pool := runtime.NewPool(0)
	for _, m := range nets {
		auto, params := compileAt(t, m, LevelAuto)
		for _, n := range auto.Nodes {
			if n.Kind != KindConv && n.Kind != KindConvT {
				continue
			}
			if n.Plan.Level != codegen.Packed {
				t.Fatalf("%s/%s: auto compiled %s at %v, want %v",
					m.Short, m.Dataset, n.Name, n.Plan.Level, codegen.Packed)
			}
			if n.Plan.Conv.Weights != nil {
				t.Fatalf("%s/%s: packed node %s holds dense weights", m.Short, m.Dataset, n.Name)
			}
		}
		for name, cp := range params.Convs {
			if cp.Conv.Weights == nil {
				t.Fatalf("%s/%s: compile dropped the weights of params conv %s", m.Short, m.Dataset, name)
			}
		}
		var resident int64
		for _, n := range auto.Nodes {
			switch n.Kind {
			case KindConv, KindConvT:
				resident += int64(n.Plan.FKW.TotalBytes(4))
			case KindConv1x1:
				resident += n.Plan1x1.MemoryBytes()
			case KindFC:
				resident += 4 * int64(n.W.Len())
			}
			resident += 4 * int64(len(n.Bias))
		}
		if b := auto.MemoryBytes(); b != resident {
			t.Fatalf("%s/%s: MemoryBytes %d, the packed arrays + 1x1 CSRs + FC + biases are %d", m.Short, m.Dataset, b, resident)
		}
		packed, err := Compile(m, params, Config{Level: "packed"})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := auto.MemoryBytes(), packed.MemoryBytes(); a != b {
			t.Fatalf("%s/%s: MemoryBytes %d at auto, %d at packed", m.Short, m.Dataset, a, b)
		}
		x := genInput(m, 5)
		got := tensor.New(auto.OutC, auto.OutH, auto.OutW)
		want := tensor.New(packed.OutC, packed.OutH, packed.OutW)
		auto.Execute(pool, []*tensor.Tensor{x}, []*tensor.Tensor{got})
		packed.Execute(pool, []*tensor.Tensor{x}, []*tensor.Tensor{want})
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("%s/%s: auto and packed plans differ by %g", m.Short, m.Dataset, d)
		}
	}
}
