package execgraph

import (
	"bytes"
	"fmt"
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

var (
	paperParams sync.Map // "Short/Dataset" → *Params
	paperPlans  sync.Map // "Short/Dataset/level" → *Plan
)

// paperPlan is compileAt for a paper network, generated once and compiled
// once per level per test binary: a ResNet-50 compile takes tens of seconds
// under -race, and the tests that share it only read the plan.
func paperPlan(t testing.TB, m *model.Model, level string) (*Plan, *Params) {
	t.Helper()
	net := m.Short + "/" + m.Dataset
	pp, ok := paperParams.Load(net)
	if !ok {
		params, err := Generate(m, 8, 3.6, 42)
		if err != nil {
			t.Fatal(err)
		}
		pp, _ = paperParams.LoadOrStore(net, params)
	}
	params := pp.(*Params)
	if p, ok := paperPlans.Load(net + "/" + level); ok {
		return p.(*Plan), params
	}
	plan, err := Compile(m, params, Config{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := paperPlans.LoadOrStore(net+"/"+level, plan)
	return p.(*Plan), params
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
		plan, _ := paperPlan(t, m, "tuned")
		planned, naive := plan.ArenaBytes()
		if planned <= 0 || naive <= 0 {
			t.Fatalf("%s: empty arena plan", m.Name)
		}
		if float64(planned) > 0.5*float64(naive) {
			t.Fatalf("%s: weak liveness reuse: planned %d vs naive %d", m.Name, planned, naive)
		}
	}
}

// glueModel is a conv-free tail whose ReLUs cannot fuse: r1 clamps a pool
// output the add still reads (so it must copy), r2 is the add's last use
// (so it clamps in place), and the flatten feeds the FC.
func glueModel() *model.Model {
	const c, h = 8, 8
	m := &model.Model{Name: "Glue", Short: "GLU", Dataset: "synthetic", Classes: 4, InC: c, InH: h, InW: h}
	act := func(name string, kind model.OpKind, hw int) *model.Layer {
		return &model.Layer{Name: name, Kind: kind, InC: c, OutC: c, InH: hw, InW: hw, OutH: hw, OutW: hw}
	}
	pool := act("p", model.MaxPool, h)
	pool.KH, pool.KW, pool.Stride, pool.OutH, pool.OutW = 2, 2, 2, h/2, h/2
	add := act("add", model.Add, h/2)
	add.ShortcutOf = "p"
	m.Layers = []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: c, OutH: h, OutW: h},
		pool, act("r1", model.ReLU, h/2), add, act("r2", model.ReLU, h/2),
		{Name: "flat", Kind: model.Flatten, InC: c, OutC: c * h * h / 4, InH: h / 2, InW: h / 2, OutH: 1, OutW: 1},
		{Name: "fc", Kind: model.FC, InC: c * h * h / 4, OutC: 4, InH: 1, InW: 1, OutH: 1, OutW: 1, HasBias: true},
	}
	return m
}

// TestArenaSlotsNeverAliasLiveTensors checks the memory plan structurally: no
// two live values share a buffer. Flatten, and a standalone ReLU that is its
// input's last use, are their input's value — they run on its buffer, and the
// test pins that they do — while any other output may not coincide with a
// buffer still holding a live value, and a prepared source must not alias
// anything live during its node.
func TestArenaSlotsNeverAliasLiveTensors(t *testing.T) {
	aliases := 0
	type netLevel struct {
		m     *model.Model
		level string
	}
	// The paper nets at packed, where plane-resident convs bring split slots;
	// the small graphs at both slot layouts.
	cases := []netLevel{{model.VGG16("cifar10"), "packed"}, {model.ResNet50("cifar10"), "packed"}}
	for _, level := range []string{"tuned", "packed"} {
		cases = append(cases, netLevel{bottleneckModel(), level}, netLevel{glueModel(), level})
	}
	for _, c := range cases {
		func(m *model.Model, level string) {
			plan, _ := paperPlan(t, m, level)
			nN := len(plan.Nodes)
			last := make([]int, nN)
			for i := range last {
				last[i] = i
			}
			for id, n := range plan.Nodes {
				for _, in := range n.Inputs {
					last[in] = max(last[in], id)
				}
			}
			last[nN-1] = nN
			// value[i] is the node whose output node i's buffer holds.
			value := make([]int, nN)
			for i, n := range plan.Nodes {
				value[i] = i
				in := -1
				if len(n.Inputs) > 0 {
					in = n.Inputs[0]
				}
				switch {
				case n.Kind == KindFlatten, n.Kind == KindReLU && last[value[in]] == i:
					if n.slot != plan.Nodes[in].slot {
						t.Fatalf("%s/%s: %s %s does not run on its input's buffer", m.Name, level, n.Kind, n.Name)
					}
					value[i] = value[in]
					last[value[i]] = max(last[value[i]], last[i])
					aliases++
				case n.Kind == KindReLU && n.slot == plan.Nodes[in].slot:
					t.Fatalf("%s/%s: relu %s clamps %s in place, which node %d still reads", m.Name, level, n.Name,
						plan.Nodes[in].Name, last[value[in]])
				}
			}
			for i, n := range plan.Nodes {
				for j := 0; j < i; j++ {
					if value[j] != j || last[j] < i {
						continue
					}
					if value[i] != j && plan.Nodes[j].slot == n.slot {
						t.Fatalf("%s/%s: node %s reuses the buffer of still-live %s", m.Name, level, n.Name, plan.Nodes[j].Name)
					}
					if n.srcSlot >= 0 && plan.Nodes[j].slot == n.srcSlot {
						t.Fatalf("%s/%s: source scratch of %s aliases live %s", m.Name, level, n.Name, plan.Nodes[j].Name)
					}
				}
				if n.srcSlot >= 0 && n.srcSlot == n.slot {
					t.Fatalf("%s/%s: node %s source scratch aliases its own output", m.Name, level, n.Name)
				}
			}
		}(c.m, c.level)
	}
	if aliases == 0 {
		t.Fatal("no flatten or in-place relu was planned; the alias rule went untested")
	}
}

// TestGlueNodesMatchReference runs the aliasing tail — an in-place ReLU, a
// copying one, a flatten on its input's buffer — against the dense
// reference, three inputs per Run, at one and two workers.
func TestGlueNodesMatchReference(t *testing.T) {
	m := glueModel()
	plan, params := compileAt(t, m, "packed")
	kinds := map[Kind]int{}
	for _, n := range plan.Nodes {
		kinds[n.Kind]++
	}
	if kinds[KindReLU] != 2 || kinds[KindFlatten] != 1 || kinds[KindAdd] != 1 {
		t.Fatalf("glue model lowered to %v, want two standalone relus, a flatten and an add", kinds)
	}
	for _, workers := range []int{1, 2} {
		pool := runtime.NewPool(workers)
		xs := []*tensor.Tensor{genInput(m, 1), genInput(m, 2), genInput(m, 3)}
		outs := make([]*tensor.Tensor, len(xs))
		for i := range outs {
			outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
		}
		ex := plan.NewExecutor()
		for rep := 0; rep < 2; rep++ { // the second run starts from a dirty arena
			ex.Run(pool, xs, outs)
			for i, x := range xs {
				want, err := Reference(m, params, x)
				if err != nil {
					t.Fatal(err)
				}
				if d := outs[i].MaxAbsDiff(want); d > 1e-5 {
					t.Fatalf("workers %d item %d: executor diverged from reference by %g", workers, i, d)
				}
			}
		}
		pool.Close()
	}
}

// TestExecutorRunsInputsInTurn: one Run over three inputs on a reused
// executor gives bit-identical outputs to three single-input runs, each on a
// fresh executor, at one and two workers — an input left nothing behind in
// the arena or the scratch the next one reads.
func TestExecutorRunsInputsInTurn(t *testing.T) {
	m := bottleneckModel()
	plan, _ := compileAt(t, m, "packed")
	xs := []*tensor.Tensor{genInput(m, 1), genInput(m, 2), genInput(m, 3)}
	for _, workers := range []int{1, 2} {
		pool := runtime.NewPool(workers)
		want := make([]*tensor.Tensor, len(xs))
		outs := make([]*tensor.Tensor, len(xs))
		for i, x := range xs {
			want[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
			outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
			plan.Execute(pool, []*tensor.Tensor{x}, []*tensor.Tensor{want[i]})
		}
		ex := plan.NewExecutor()
		for rep := 0; rep < 2; rep++ { // the second run starts from a dirty arena
			ex.Run(pool, xs, outs)
			for i := range xs {
				if d := outs[i].MaxAbsDiff(want[i]); d != 0 {
					t.Fatalf("workers %d run %d input %d: differs from its single-input run by %g", workers, rep, i, d)
				}
			}
		}
		pool.Close()
	}
}

// TestExecutorBatchedZeroAllocs is the arena-reuse acceptance check: a warm
// executor running a slice of inputs through a ResNet bottleneck block
// performs zero steady-state allocations — on one worker, and on two, where
// every fork is published to the pool's standing worker rather than spawned.
// The executor's state owns every scratch the kernels use, so the verdict
// holds under -race, which empties sync.Pools at will.
func TestExecutorBatchedZeroAllocs(t *testing.T) {
	m := bottleneckModel()
	plan, _ := compileAt(t, m, "packed")
	const batch = 4
	xs := make([]*tensor.Tensor, batch)
	outs := make([]*tensor.Tensor, batch)
	for i := range xs {
		xs[i] = genInput(m, int64(i))
		outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
	}
	for _, workers := range []int{1, 2} {
		pool := runtime.NewPool(workers)
		ex := plan.NewExecutor()
		ex.Run(pool, xs, outs) // cut the filter ranges and start the workers
		if allocs := testing.AllocsPerRun(10, func() {
			ex.Run(pool, xs, outs)
		}); allocs != 0 {
			t.Errorf("%d workers: Run allocates %.1f objects/run in steady state, want 0", workers, allocs)
		}
		pool.Close()
	}
}

// TestConcurrentGraphCompileHammer compiles and executes plans from many
// goroutines simultaneously — the -race check over concurrent graph-plan
// compiles sharing the worker pool, and concurrent runs of one shared plan.
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

// TestCostBalancedCuts pins how the executor splits a conv across workers:
// by kept-weight prefix sum, not filter count. FKR sorts heavy filters first,
// so equal counts hand the first chunks the most MACs; the cuts must leave no
// chunk more than one filter above the ideal share, for every conv of VGG-16
// and ResNet-50 on two and four workers, and the executor must run exactly
// those cuts.
func TestCostBalancedCuts(t *testing.T) {
	for _, m := range []*model.Model{model.VGG16("cifar10"), model.ResNet50("cifar10")} {
		plan, _ := paperPlan(t, m, "packed")
		x := genInput(m, 3)
		for _, workers := range []int{2, 4} {
			pool := runtime.NewPool(workers)
			parts := pool.Chunks()
			ex := plan.NewExecutor()
			ex.Run(pool, []*tensor.Tensor{x}, []*tensor.Tensor{tensor.New(plan.OutC, plan.OutH, plan.OutW)})
			pool.Close()
			worst, countWorst := 0.0, 0.0
			for i, n := range plan.Nodes {
				if n.Kind != KindConv && n.Kind != KindConv1x1 {
					continue
				}
				prefix := n.keptPrefix()
				cuts := balancedCuts(prefix, n.OutC, parts, nil)
				if len(cuts) != parts+1 || cuts[0] != 0 || cuts[parts] != n.OutC {
					t.Fatalf("%s %s: cuts %v do not cover [0, %d] in %d parts", m.Short, n.Name, cuts, n.OutC, parts)
				}
				if fmt.Sprint(cuts) != fmt.Sprint(ex.cuts[i]) {
					t.Fatalf("%s %s: executor cut %v, want %v", m.Short, n.Name, ex.cuts[i], cuts)
				}
				heaviest := int32(0)
				for f := 0; f < n.OutC; f++ {
					heaviest = max(heaviest, prefix[f+1]-prefix[f])
				}
				ideal := float64(prefix[n.OutC]) / float64(parts)
				for k := 0; k < parts; k++ {
					if cuts[k] > cuts[k+1] {
						t.Fatalf("%s %s: cuts %v not monotone", m.Short, n.Name, cuts)
					}
					part := float64(prefix[cuts[k+1]] - prefix[cuts[k]])
					if part > ideal+float64(heaviest) {
						t.Errorf("%s %s on %d workers: part %d holds %g kept weights, ideal %g + heaviest filter %d",
							m.Short, n.Name, workers, k, part, ideal, heaviest)
					}
					worst = max(worst, part/ideal)
					byCount := float64(prefix[(k+1)*n.OutC/parts] - prefix[k*n.OutC/parts])
					countWorst = max(countWorst, byCount/ideal)
				}
			}
			t.Logf("%s on %d workers (%d parts): largest part %.3f× the ideal share (equal filter counts: %.3f×)",
				m.Short, workers, parts, worst, countWorst)
		}
	}
}
