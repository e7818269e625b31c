package bench

import (
	"fmt"
	"math"

	"patdnn/internal/bench/internal/baseline"
	"patdnn/internal/bench/internal/device"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/compiler/lre"
	"patdnn/internal/compiler/reorder"
	"patdnn/internal/compiler/tuner"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/sparse"
)

// vggUniqueLayers returns the pruned L1..L9 representatives of VGG/ImageNet
// at the paper's operating point (8 patterns, 3.6x connectivity).
func vggUniqueLayers(withWeights bool) []struct {
	Name string
	Conv *pruned.Conv
} {
	m := model.VGG16("imagenet")
	set := pattern.Canonical(8)
	var out []struct {
		Name string
		Conv *pruned.Conv
	}
	for i, u := range m.UniqueConvs() {
		out = append(out, struct {
			Name string
			Conv *pruned.Conv
		}{u.ShortName, pruned.Generate(u.Rep, set, 3.6, int64(100+i), withWeights)})
	}
	return out
}

// Figure12 regenerates the overall-performance comparison: average inference
// time per model for the four frameworks on the SD855, for
// {ImageNet, CIFAR-10} x {CPU, GPU}.
func Figure12() *Table {
	t := &Table{
		ID:      "figure12",
		Title:   "Overall performance on Snapdragon 855 (ms per inference)",
		Columns: []string{"Sub", "Network", "TFLite", "TVM", "MNN", "PatDNN", "Best dense/PatDNN"},
	}
	d := device.SD855()
	subs := []struct {
		id      string
		dataset string
		target  device.Target
	}{
		{"(a) ImageNet-CPU", "imagenet", device.CPU},
		{"(b) CIFAR-10-CPU", "cifar10", device.CPU},
		{"(c) ImageNet-GPU", "imagenet", device.GPU},
		{"(d) CIFAR-10-GPU", "cifar10", device.GPU},
	}
	for _, sub := range subs {
		for _, short := range []string{"VGG", "RNT", "MBNT"} {
			m, _ := model.ByName(short, sub.dataset)
			ps, err := baseline.CompilePatDNN(m, 8, 3.6, codegen.Tuned, 42)
			if err != nil {
				panic(err)
			}
			pat := ps.TimeMs(d, sub.target)
			cells := []string{sub.id, short}
			best := -1.0
			for _, f := range baseline.DenseFrameworks() {
				ms, err := f.TimeMs(m, d, sub.target)
				if err != nil {
					cells = append(cells, "n/a")
					continue
				}
				cells = append(cells, fmt.Sprintf("%.1f", ms))
				if best < 0 || ms < best {
					best = ms
				}
			}
			cells = append(cells, fmt.Sprintf("%.1f", pat),
				fmt.Sprintf("%.1fx", best/pat))
			t.Rows = append(t.Rows, cells)
		}
	}
	t.Notes = append(t.Notes,
		"paper annotations: TFLite VGG/RNT ImageNet-CPU 818.1/698.9 ms; CIFAR-CPU 106.3/133.0;",
		"ImageNet-GPU overflow 176.4/143.3; CIFAR-GPU 51.6/63.8; PatDNN VGG ImageNet-GPU 18.9 ms",
		"paper speedups: vs TFLite 12.3-44.5x (CPU) / 2.5-20x (GPU); vs TVM 2.4-5.1x / 2.8-11.4x; vs MNN 1.9-7.1x / 1.6-6.2x",
		"TFLite VGG/ImageNet GPU is unsupported in the paper too (footnote 3)")
	return t
}

// Figure13 regenerates the per-layer optimization breakdown: speedup of each
// optimization level over No-Opt on L1..L9, CPU and GPU.
func Figure13() *Table {
	t := &Table{
		ID:      "figure13",
		Title:   "Speedup over No-Opt per unique VGG CONV layer (SD855)",
		Columns: []string{"Target", "Layer", "Reorder", "+LRE", "+Tune"},
	}
	d := device.SD855()
	layers := vggUniqueLayers(true)
	for _, target := range []device.Target{device.CPU, device.GPU} {
		bpw := 4
		if target == device.GPU {
			bpw = 2
		}
		for _, l := range layers {
			var times [4]float64
			for i, level := range []codegen.Level{codegen.NoOpt, codegen.Reorder,
				codegen.ReorderLRE, codegen.Tuned} {
				plan, err := codegen.Compile(l.Conv, level, lr.DefaultTuning())
				if err != nil {
					panic(err)
				}
				times[i] = d.TimeMs(plan.Stats(), target, 8, bpw)
			}
			t.AddRow(target.String(), l.Name,
				fmt.Sprintf("%.2fx", times[0]/times[1]),
				fmt.Sprintf("%.2fx", times[0]/times[2]),
				fmt.Sprintf("%.2fx", times[0]/times[3]))
		}
	}
	t.Notes = append(t.Notes,
		"paper CPU: reorder 1.6-3.0x, +LRE 1.6-2.8x more, +tune 1.2-1.9x more",
		"paper GPU: reorder 2.7-6.1x, +LRE 1.5-3.3x more, +tune 1.4-3.8x more (GPU gains more: divergence)")
	return t
}

// Figure14 regenerates (a) the filter-length distribution of VGG L4 before
// and after FKR (summarized by group structure) and (b) register load counts
// before/after LRE for L1..L9.
func Figure14() *Table {
	t := &Table{
		ID:      "figure14",
		Title:   "(a) FKR filter-length grouping on L4; (b) LRE register loads L1..L9",
		Columns: []string{"Part", "Layer", "Metric", "Before", "After"},
	}
	layers := vggUniqueLayers(false)
	// (a): L4.
	l4 := layers[3]
	before := reorder.Identity(l4.Conv)
	after := reorder.Build(l4.Conv)
	t.AddRow("(a)", "L4", "length runs (contiguity)",
		countRuns(before.Lengths(l4.Conv)), countRuns(after.Lengths(l4.Conv)))
	t.AddRow("(a)", "L4", "load imbalance @8 threads",
		fmt.Sprintf("%.3f", before.LoadImbalance(l4.Conv, 8)),
		fmt.Sprintf("%.3f", after.LoadImbalance(l4.Conv, 8)))
	// (b): all layers.
	for _, l := range layers {
		st := lre.AnalyzeDefault(l.Conv)
		t.AddRow("(b)", l.Name, "register loads",
			fmt.Sprintf("%d", st.NoLRE), fmt.Sprintf("%d", st.FilterLRE))
	}
	t.Notes = append(t.Notes,
		"(a) paper: scattered lengths collapse into a few equal-length groups -> thread blocks balance",
		"(b) paper reports ~2-3x load reduction; larger layers have ~1e8-3e8 loads before LRE")
	return t
}

// countRuns counts maximal constant runs in a sequence; sorted sequences have
// as many runs as distinct values.
func countRuns(xs []int) int {
	runs := 0
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			runs++
		}
	}
	return runs
}

// Figure15 regenerates the loop permutation/blocking study: effective GFLOPS
// of each unique layer under the four permutations, on the CPU model. The
// permutations differ in data locality: channel-innermost blocked (cohwci_b)
// wins for the FKW layout, as in the paper.
func Figure15() *Table {
	t := &Table{
		ID:      "figure15",
		Title:   "GFLOPS by loop permutation and blocking (CPU, VGG/ImageNet)",
		Columns: []string{"Layer", "CoCiHW", "CoHWCi", "CoCiHW-Block", "CoHWCi-Block"},
	}
	d := device.SD855()
	perms := []lr.Permutation{lr.PermCoCiHW, lr.PermCoHWCi, lr.PermCoCiHWBlock, lr.PermCoHWCiBlock}
	for _, l := range vggUniqueLayers(true) {
		cells := []string{l.Name}
		for _, p := range perms {
			tune := lr.DefaultTuning()
			tune.Permute = p
			plan, err := codegen.Compile(l.Conv, codegen.Tuned, tune)
			if err != nil {
				panic(err)
			}
			st := plan.Stats() // permutation locality applied by codegen
			ms := d.TimeMs(st, device.CPU, 8, 4)
			gflops := 2 * float64(st.MACs) / (ms / 1e3) / 1e9
			cells = append(cells, fmt.Sprintf("%.1f", gflops))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Notes = append(t.Notes,
		"paper Figure 15: blocked variants dominate; best configuration differs per layer/input,",
		"which is why auto-tuning matters; effective GFLOPS counted on pruned MACs")
	return t
}

// Figure16 regenerates the FKW-vs-CSR extra-structure overhead comparison at
// overall pruning rates 8x, 12x and 18x (connectivity 3.56/5.33/8 on top of
// the 2.25x pattern rate).
func Figure16() *Table {
	t := &Table{
		ID:      "figure16",
		Title:   "FKW extra-structure overhead as % of CSR (VGG unique layers)",
		Columns: []string{"Layer", "8x rate", "12x rate", "18x rate"},
	}
	m := model.VGG16("imagenet")
	rates := []float64{3.56, 5.33, 8.0}
	totalsF := make([]int64, len(rates))
	totalsC := make([]int64, len(rates))
	set := pattern.Canonical(8)
	for i, u := range m.UniqueConvs() {
		cells := []string{u.ShortName}
		for ri, conn := range rates {
			// L1 is pruned less aggressively (Section 4.2).
			rate := conn
			if i == 0 {
				rate = baseline.FirstLayerConnRate(conn)
			}
			c := pruned.Generate(u.Rep, set, rate, int64(200+i), true)
			st, err := sparse.AnalyzeOverhead(c)
			if err != nil {
				panic(err)
			}
			totalsF[ri] += int64(st.FKWOverhead)
			totalsC[ri] += int64(st.CSROverhead)
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*st.Ratio))
		}
		t.Rows = append(t.Rows, cells)
	}
	all := []string{"All"}
	for ri := range rates {
		all = append(all, fmt.Sprintf("%.1f%%", 100*float64(totalsF[ri])/float64(totalsC[ri])))
	}
	t.Rows = append(t.Rows, all)
	t.Notes = append(t.Notes,
		"paper: FKW saves 87.9/91.6/93.4% of CSR overhead at 8/12/18x (i.e. ratios ~12/8/7%),",
		"yielding 43.9/45.8/46.7% total storage saving; our uint16-indexed FKW lands in the same regime",
		"our per-kernel arrays keep the ratio near 13% across rates rather than shrinking with rate",
		"L1 ([64,3,3,3]) is degenerate: with 3 input channels the per-filter stride array rivals",
		"the tiny CSR structure; its absolute overhead (~1 KB) is negligible either way")
	return t
}

// Figure17 regenerates the GFLOPS study: (a) PatDNN's dense baseline vs MNN
// (no Winograd), (b) per-layer GFLOPS of dense vs pattern execution.
func Figure17() *Table {
	t := &Table{
		ID:      "figure17",
		Title:   "(a) dense PatDNN vs MNN (no Winograd); (b) GFLOPS pattern vs dense",
		Columns: []string{"Part", "Item", "CPU", "GPU"},
	}
	d := device.SD855()
	m := model.VGG16("imagenet")
	// (a) whole-model dense times without Winograd.
	ours := baseline.PatDNNDense(false)
	mnn := baseline.MNN()
	mnn.WinogradDense = false
	for _, f := range []baseline.Framework{mnn, ours} {
		cpu, err := f.TimeMs(m, d, device.CPU)
		if err != nil {
			panic(err)
		}
		gpu, err := f.TimeMs(m, d, device.GPU)
		if err != nil {
			panic(err)
		}
		t.AddRow("(a)", f.Name, fmt.Sprintf("%.1f ms", cpu), fmt.Sprintf("%.1f ms", gpu))
	}
	// (b) per-layer GFLOPS, dense (no Winograd) vs pattern.
	layers := vggUniqueLayers(true)
	mLayers := m.UniqueConvs()
	for i, l := range layers {
		dense := baseline.DenseLayerStats(mLayers[i].Rep, false)
		plan, err := codegen.Compile(l.Conv, codegen.Tuned, lr.DefaultTuning())
		if err != nil {
			panic(err)
		}
		pat := plan.Stats()
		row := []string{"(b)", l.Name}
		for _, target := range []device.Target{device.CPU, device.GPU} {
			bpw := 4
			if target == device.GPU {
				bpw = 2
			}
			dms := d.TimeMs(dense, target, 8, bpw) / 0.92 // dense baseline efficiency
			pms := d.TimeMs(pat, target, 8, bpw)
			dg := 2 * float64(dense.MACs) / (dms / 1e3) / 1e9
			pg := 2 * float64(pat.MACs) / (pms / 1e3) / 1e9
			row = append(row, fmt.Sprintf("%.1f vs %.1f", dg, pg))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: PatDNN dense beats MNN; pattern GFLOPS ~= dense on CPU, above dense on GPU,",
		"so the 8x computation reduction converts into real time savings (columns: dense vs pattern)")
	return t
}

// Figure18 regenerates the portability study on the two other platforms.
func Figure18() *Table {
	t := &Table{
		ID:      "figure18",
		Title:   "Portability: VGG-16/ImageNet on Kirin 980 and Snapdragon 845 (ms)",
		Columns: []string{"Platform", "Target", "TFLite", "TVM", "MNN", "PatDNN"},
	}
	m := model.VGG16("imagenet")
	ps, err := baseline.CompilePatDNN(m, 8, 3.6, codegen.Tuned, 42)
	if err != nil {
		panic(err)
	}
	for _, d := range []device.Device{device.Kirin980(), device.SD845()} {
		for _, target := range []device.Target{device.CPU, device.GPU} {
			cells := []string{d.Name, target.String()}
			for _, f := range baseline.DenseFrameworks() {
				ms, err := f.TimeMs(m, d, target)
				if err != nil {
					cells = append(cells, "n/a")
					continue
				}
				cells = append(cells, fmt.Sprintf("%.1f", ms))
			}
			cells = append(cells, fmt.Sprintf("%.1f", ps.TimeMs(d, target)))
			t.Rows = append(t.Rows, cells)
		}
	}
	t.Notes = append(t.Notes,
		"paper annotations: Kirin 980 TFLite CPU 919 ms; SD845 TFLite CPU 1032 ms",
		"dense frameworks degrade more on the bandwidth-starved Kirin 980; PatDNN stays stable",
		"because pruning cuts both computation and memory traffic (Section 6.5)")
	return t
}

// AblationStorage isolates the paper's Section 6.2 observation: the same
// pruned computation executed through conventional CSR sparse kernels lands
// near the optimized dense time, while the pattern-based pipeline converts
// the MAC reduction into real speedup — the motivating ablation for the whole
// compiler design.
func AblationStorage() *Table {
	t := &Table{
		ID:      "ablation-storage",
		Title:   "Execution strategy ablation: VGG-16/ImageNet on SD855 (ms)",
		Columns: []string{"Strategy", "CPU", "GPU", "vs dense (CPU)"},
	}
	d := device.SD855()
	m := model.VGG16("imagenet")
	dense := baseline.PatDNNDense(true)
	denseCPU, err := dense.TimeMs(m, d, device.CPU)
	if err != nil {
		panic(err)
	}
	denseGPU, err := dense.TimeMs(m, d, device.GPU)
	if err != nil {
		panic(err)
	}
	t.AddRow("dense + Winograd (ours)", fmt.Sprintf("%.1f", denseCPU),
		fmt.Sprintf("%.1f", denseGPU), "1.00x")
	csrCPU := baseline.CSRSparseTimeMs(m, 3.6, d, device.CPU)
	csrGPU := baseline.CSRSparseTimeMs(m, 3.6, d, device.GPU)
	t.AddRow("CSR sparse (8x fewer MACs)", fmt.Sprintf("%.1f", csrCPU),
		fmt.Sprintf("%.1f", csrGPU), fmt.Sprintf("%.2fx", denseCPU/csrCPU))
	ps, err := baseline.CompilePatDNN(m, 8, 3.6, codegen.Tuned, 42)
	if err != nil {
		panic(err)
	}
	patCPU := ps.TimeMs(d, device.CPU)
	patGPU := ps.TimeMs(d, device.GPU)
	t.AddRow("PatDNN pattern + compiler", fmt.Sprintf("%.1f", patCPU),
		fmt.Sprintf("%.1f", patGPU), fmt.Sprintf("%.2fx", denseCPU/patCPU))
	t.Notes = append(t.Notes,
		"paper: the CSR implementation 'shows almost the same speed to PatDNN's dense version';",
		"host-measured counterpart in bench_test.go: CSR conv is slower than dense direct on x86 too")
	return t
}

// AblationTuner compares the GA explorer against random search at equal
// evaluation budget on VGG L4, using the analytic device cost — the design
// choice DESIGN.md calls out.
func AblationTuner() *Table {
	t := &Table{
		ID:      "ablation-tuner",
		Title:   "Auto-tuning ablation on VGG L4 (device-model cost, CPU)",
		Columns: []string{"Strategy", "Evaluations", "Best time(ms)", "vs default config"},
	}
	d := device.SD855()
	l4 := vggUniqueLayers(true)[3]
	evalCfg := func(tune lr.Tuning) float64 {
		plan, err := codegen.Compile(l4.Conv, codegen.Tuned, tune)
		if err != nil {
			return 1e9
		}
		return d.TimeMs(plan.Stats(), device.CPU, tune.Threads, 4)
	}
	defaultMs := evalCfg(lr.DefaultTuning())
	opts := tuner.DefaultOptions()
	opts.WarmStart = []lr.Tuning{lr.DefaultTuning()}
	// The default space and options are statically valid; a search error here
	// is a programming bug, not an input condition.
	ga, gaHist, err := tuner.Search(tuner.DefaultSpace(), evalCfg, opts)
	if err != nil {
		panic(err)
	}
	rnd, _, err := tuner.RandomSearch(tuner.DefaultSpace(), evalCfg, len(gaHist), 3)
	if err != nil {
		panic(err)
	}
	t.AddRow("default config", 1, fmt.Sprintf("%.2f", defaultMs), "1.00x")
	t.AddRow("random search", len(gaHist), fmt.Sprintf("%.2f", rnd.CostMs),
		fmt.Sprintf("%.2fx", defaultMs/rnd.CostMs))
	t.AddRow("genetic algorithm", len(gaHist), fmt.Sprintf("%.2f", ga.CostMs),
		fmt.Sprintf("%.2fx", defaultMs/ga.CostMs))
	// Estimator quality on the GA history.
	est := tuner.NewEstimator(10, 1)
	var trainSet, testSet []tuner.Result
	for i, r := range gaHist {
		if i%5 == 4 {
			testSet = append(testSet, r)
		} else {
			trainSet = append(trainSet, r)
		}
	}
	est.Fit(trainSet, 200, 0.01)
	rmse := math.Sqrt(est.MSE(testSet))
	t.Notes = append(t.Notes,
		fmt.Sprintf("performance estimator RMSE on held-out configs: %.2f ms (best config %.2f ms)",
			rmse, ga.CostMs),
		"paper: GA exploration completes in 3-5 ms for a large DNN; tuning gains 1.2-1.9x on CPU")
	return t
}
