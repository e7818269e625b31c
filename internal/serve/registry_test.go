package serve

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/modelfile"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/registry"
	"patdnn/internal/tensor"
)

// tinyArtifactFile builds a deployable two-conv artifact: the tinyModel trunk
// input → conv(4→8 @12×12) → ReLU → pool 2 → conv(8→8 @6×6) → ReLU as its
// topology, with real biases. Weights vary with seed so versions are
// distinguishable.
func tinyArtifactFile(seed int64) *modelfile.File {
	m := tinyModel("tiny-cnn", "")
	m.Layers = m.Layers[:6] // stop before flatten + fc
	rng := rand.New(rand.NewSource(seed))
	f := &modelfile.File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	for i, name := range []string{"conv1", "conv2"} {
		c := pruned.Generate(m.Layer(name), pattern.Canonical(8), 2, seed+int64(i), true)
		bias := make([]float32, c.OutC)
		for j := range bias {
			bias[j] = float32(rng.NormFloat64()) * 0.1
		}
		f.Layers = append(f.Layers, modelfile.Layer{Conv: c, Bias: bias})
	}
	return f
}

func writeTinyArtifact(t *testing.T, dir, name, ver string, seed int64) string {
	t.Helper()
	return writeTinyArtifactQ(t, dir, name, ver, seed, 0)
}

// writeTinyArtifactQ writes the tiny trunk quantized to the given bit width
// (0 keeps FP16; 8 produces a quantized artifact with int8 weight streams).
func writeTinyArtifactQ(t *testing.T, dir, name, ver string, seed int64, bits int) string {
	t.Helper()
	path := filepath.Join(dir, registry.FileName(name, ver))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mf := tinyArtifactFile(seed)
	mf.QuantBits = bits
	if err := modelfile.Write(f, mf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mt := time.Unix(1700000000+seed, seed)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	return path
}

// registryEngine stands up an engine over a models dir with background
// polling disabled (tests drive Scan explicitly).
func registryEngine(t *testing.T, dir string, budget int64, cfg Config) (*Engine, *registry.Registry) {
	t.Helper()
	eng := New(cfg)
	t.Cleanup(func() { eng.Close() })
	reg, err := eng.WithRegistry(registry.Config{Dir: dir, MemoryBudget: budget, Poll: -1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, reg
}

func TestRegistryServeExactAndLatest(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	writeTinyArtifact(t, dir, "tiny", "v2", 200)
	eng, _ := registryEngine(t, dir, 0, Config{Workers: 2})
	ctx := context.Background()

	r1, err := eng.Infer(ctx, Request{Network: "tiny@v1", Input: tinyInput(1)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version != "v1" || r1.Network != "tiny" || r1.Shape != [3]int{8, 6, 6} {
		t.Fatalf("v1 response: %+v", r1)
	}
	rLatest, err := eng.Infer(ctx, Request{Network: "tiny", Input: tinyInput(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rLatest.Version != "v2" {
		t.Fatalf("bare name served %s, want latest v2", rLatest.Version)
	}
	same := true
	for i := range r1.Output {
		if r1.Output[i] != rLatest.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("v1 and v2 produced identical outputs; versions are not distinct")
	}
	if _, err := eng.Infer(ctx, Request{Network: "tiny@v9"}); err == nil {
		t.Fatal("unknown version served")
	}
	if _, err := eng.Infer(ctx, Request{Network: "ghost@v1"}); err == nil {
		t.Fatal("unknown registry model served")
	}
}

// TestRegistryServesFileBitExact cross-checks the registry serving path
// against a hand-assembled pipeline over the same artifact: same decoded
// FP16 weights and biases, conv+bias+ReLU per layer, max-pool between the
// spatial shrinks. Only kernel-level differences (the engine's packed kernels
// vs the tuned per-layer oracle) are tolerated.
func TestRegistryServesFileBitExact(t *testing.T) {
	dir := t.TempDir()
	path := writeTinyArtifact(t, dir, "tiny", "v1", 300)
	eng, _ := registryEngine(t, dir, 0, Config{Workers: 2})

	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := modelfile.Read(fh)
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice(tinyInput(3), 4, 12, 12)
	for _, layer := range mf.Layers {
		if layer.Conv.InH != x.Dim(1) {
			x, _ = tensor.MaxPool2D(x, x.Dim(1)/layer.Conv.InH)
		}
		plan, err := codegen.Compile(layer.Conv, codegen.Tuned, lr.DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		x = plan.Execute(x, layer.Bias)
		tensor.ReLU(x)
	}

	resp, err := eng.Infer(context.Background(), Request{Network: "tiny@v1", Input: tinyInput(3)})
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.FromSlice(resp.Output, resp.Shape[0], resp.Shape[1], resp.Shape[2])
	if d := got.MaxAbsDiff(x); d > 1e-3 {
		t.Fatalf("registry serving diverged from the reference pipeline by %g", d)
	}
}

func TestRegistryHotReloadSwapRetiresBatcher(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	eng, reg := registryEngine(t, dir, 0, Config{Workers: 2})
	ctx := context.Background()

	before, err := eng.Infer(ctx, Request{Network: "tiny", Input: tinyInput(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Replace v1 in place with different weights: the scan must atomically
	// swap the entry, retire the old batcher, and serve the new plans.
	writeTinyArtifact(t, dir, "tiny", "v1", 999)
	if err := reg.Scan(); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Infer(ctx, Request{Network: "tiny", Input: tinyInput(1)})
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != "v1" {
		t.Fatalf("swapped artifact served version %s", after.Version)
	}
	same := true
	for i := range before.Output {
		if before.Output[i] != after.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hot reload kept serving the old weights")
	}
	eng.mu.Lock()
	n := len(eng.batchers)
	eng.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d batchers alive after hot swap, want 1 (old one retired)", n)
	}
	if s := eng.Stats(); s.Registry == nil || s.Registry.Reloads != 1 {
		t.Fatalf("registry stats after swap: %+v", s.Registry)
	}
}

func TestRegistryMemoryBudgetEvictsAndLazilyRecompiles(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	writeTinyArtifact(t, dir, "tiny", "v2", 200)
	eng, reg := registryEngine(t, dir, 0, Config{Workers: 2})
	ctx := context.Background()

	if _, err := eng.Infer(ctx, Request{Network: "tiny@v1"}); err != nil {
		t.Fatal(err)
	}
	one := eng.Stats().Registry.BytesInUse
	if one <= 0 {
		t.Fatalf("resident bytes = %d after first load", one)
	}
	// Budget admits one resident model: loading v2 must evict v1.
	reg.SetMemoryBudget(one + one/2)
	if _, err := eng.Infer(ctx, Request{Network: "tiny@v2"}); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats().Registry
	if s.Evictions != 1 || s.Loaded != 1 || s.BytesInUse > s.MemoryBudget {
		t.Fatalf("after v2 load: %+v", s)
	}
	// v1 recompiles transparently on its next hit (a lazy reload), evicting
	// v2 in turn.
	if _, err := eng.Infer(ctx, Request{Network: "tiny@v1"}); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats().Registry
	if s.LazyReloads != 1 || s.Evictions != 2 {
		t.Fatalf("after lazy reload: %+v", s)
	}
	// Eviction retired the victims' batchers; only the resident model's
	// batcher survives.
	eng.mu.Lock()
	n := len(eng.batchers)
	eng.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d batchers alive, want 1", n)
	}
	// The merged /models listing carries version + residency + bytes.
	var loaded, cold int
	for _, m := range eng.Models() {
		if m.Source != "registry" {
			t.Fatalf("unexpected non-registry model %+v", m)
		}
		if m.Loaded {
			loaded++
			if m.MemoryBytes <= 0 || m.LastUsed.IsZero() {
				t.Fatalf("loaded model missing bytes/last-used: %+v", m)
			}
		} else {
			cold++
		}
	}
	if loaded != 1 || cold != 1 {
		t.Fatalf("listing: %d loaded / %d cold, want 1/1", loaded, cold)
	}
}

// TestRegistryQuantizedBudgetHoldsMoreVersions is the quantized-LRU proof:
// a v3 int8 artifact is byte-accounted at its real resident size — a quarter
// of the weight stream, the same FKW indices and biases, which on this tiny
// trunk is under two-thirds of the packed FP32 plan (neither holds dense
// weights) — so a memory budget sized for two FP32 copies of the same trunk
// keeps three quantized versions resident with zero evictions.
func TestRegistryQuantizedBudgetHoldsMoreVersions(t *testing.T) {
	ctx := context.Background()

	// Measure the FP32 resident footprint of the tiny trunk.
	fpDir := t.TempDir()
	writeTinyArtifact(t, fpDir, "tiny", "v1", 100)
	fpEng, _ := registryEngine(t, fpDir, 0, Config{Workers: 2})
	if _, err := fpEng.Infer(ctx, Request{Network: "tiny"}); err != nil {
		t.Fatal(err)
	}
	fp32 := fpEng.Stats().Registry.BytesInUse
	if fp32 <= 0 {
		t.Fatalf("FP32 resident bytes = %d", fp32)
	}

	// The same trunk quantized: int8 levels + per-filter scales replace the
	// float32 stream, so one version's footprint lands under two-thirds of
	// the FP32 figure here (on a weight-dominated net, ~3× smaller).
	qDir := t.TempDir()
	for i, ver := range []string{"v1", "v2", "v3"} {
		writeTinyArtifactQ(t, qDir, "tiny", ver, 100+int64(i)*100, 8)
	}
	qEng, _ := registryEngine(t, qDir, 2*fp32, Config{Workers: 2})
	if _, err := qEng.Infer(ctx, Request{Network: "tiny@v1"}); err != nil {
		t.Fatal(err)
	}
	q8 := qEng.Stats().Registry.BytesInUse
	if q8 <= 0 || 3*q8 >= 2*fp32 {
		t.Fatalf("quantized resident bytes = %d, want under two-thirds of FP32 %d", q8, fp32)
	}

	// A budget that admits two FP32 copies holds all three
	// quantized versions at once: no evictions, all resident, and every
	// listing row carries the quantized level.
	for _, net := range []string{"tiny@v2", "tiny@v3"} {
		if _, err := qEng.Infer(ctx, Request{Network: net}); err != nil {
			t.Fatal(err)
		}
	}
	s := qEng.Stats().Registry
	if s.Loaded != 3 || s.Evictions != 0 || s.BytesInUse > s.MemoryBudget {
		t.Fatalf("quantized fleet under FP32-sized budget: %+v", s)
	}
	for _, m := range qEng.Models() {
		if !m.Loaded {
			t.Fatalf("version %s not resident: %+v", m.Version, m)
		}
		if m.Level != codegen.LevelTag(codegen.PackedQ8) {
			t.Fatalf("version %s listed at level %q, want packedq8", m.Version, m.Level)
		}
	}
}

// TestQuantizedRegistryServesEndToEnd is the quantized path's end-to-end
// proof: a v3 quantized artifact in a registry dir hot-loads, serves /infer
// at level packedq8 under a default engine, agrees with the FP16 artifact of
// the same trunk (served at packed) on top-1 and within the quantization
// tolerance, and reports the quantized level through /models.
func TestQuantizedRegistryServesEndToEnd(t *testing.T) {
	const seed = 700
	ctx := context.Background()
	in := tinyInput(5)

	qDir := t.TempDir()
	writeTinyArtifactQ(t, qDir, "tiny", "v1", seed, 8)
	eng, _ := registryEngine(t, qDir, 0, Config{Workers: 2})

	// The artifact serves quantized by default under "auto".
	r8, err := eng.Infer(ctx, Request{Network: "tiny", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if r8.Level != codegen.LevelTag(codegen.PackedQ8) {
		t.Fatalf("response level %q, want packedq8", r8.Level)
	}

	// FP32 reference: the identical trunk, unquantized, under the same
	// default engine — which serves it at packed.
	fpDir := t.TempDir()
	writeTinyArtifact(t, fpDir, "tiny", "v1", seed)
	fpEng, _ := registryEngine(t, fpDir, 0, Config{Workers: 2})
	rFP, err := fpEng.Infer(ctx, Request{Network: "tiny", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if rFP.Level != codegen.LevelTag(codegen.Packed) {
		t.Fatalf("FP16 artifact response level %q, want packed", rFP.Level)
	}
	if a8, aFP := argmax(r8.Output), argmax(rFP.Output); a8 != aFP {
		t.Fatalf("top-1 diverged: packedq8 %d vs packed %d", a8, aFP)
	}
	q := tensor.FromSlice(r8.Output, r8.Shape[0], r8.Shape[1], r8.Shape[2])
	f := tensor.FromSlice(rFP.Output, rFP.Shape[0], rFP.Shape[1], rFP.Shape[2])
	if d := q.MaxAbsDiff(f); d > 5e-2 {
		t.Fatalf("quantized output diverged from FP32 packed by %g", d)
	}

	// /models reports the quantized level and a resident footprint under
	// two-thirds of the FP32 artifact's (same indices and biases, a quarter
	// of the weight stream).
	var qBytes, fpBytes int64
	for _, m := range eng.Models() {
		if m.Level != codegen.LevelTag(codegen.PackedQ8) {
			t.Fatalf("quantized artifact listed at level %q", m.Level)
		}
		qBytes = m.MemoryBytes
	}
	for _, m := range fpEng.Models() {
		if m.Level != codegen.LevelTag(codegen.Packed) {
			t.Fatalf("FP16 artifact listed at level %q, want packed", m.Level)
		}
		fpBytes = m.MemoryBytes
	}
	if qBytes <= 0 || 3*qBytes >= 2*fpBytes {
		t.Fatalf("quantized resident bytes %d, want under two-thirds of FP32 %d", qBytes, fpBytes)
	}
}

// argmax returns the index of the largest element.
func argmax(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func TestRegistryCorruptDropInDoesNotBreakServing(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	eng, reg := registryEngine(t, dir, 0, Config{Workers: 2})
	ctx := context.Background()
	if _, err := eng.Infer(ctx, Request{Network: "tiny"}); err != nil {
		t.Fatal(err)
	}

	// A corrupt new version and a truncated rewrite of the good version are
	// both quarantined; the last good artifact keeps serving.
	if err := os.WriteFile(filepath.Join(dir, registry.FileName("tiny", "v2")), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, registry.FileName("tiny", "v1")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, registry.FileName("tiny", "v3")), good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Scan(); err != nil {
		t.Fatal(err)
	}
	r, err := eng.Infer(ctx, Request{Network: "tiny"})
	if err != nil || r.Version != "v1" {
		t.Fatalf("serving after corrupt drop-ins: %v / %+v", err, r)
	}
	s := eng.Stats().Registry
	if s.BadFiles != 2 || len(s.Quarantined) != 2 {
		t.Fatalf("quarantine stats: %+v", s)
	}
}

func TestRegistryAndGeneratorPathsCoexist(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "disktiny", "v1", 100)
	eng, _ := registryEngine(t, dir, 0, Config{Workers: 2})
	if err := eng.RegisterModel(tinyModel("gentiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rd, err := eng.Infer(ctx, Request{Network: "disktiny", Input: tinyInput(1)})
	if err != nil || rd.Version != "v1" {
		t.Fatalf("registry infer: %v / %+v", err, rd)
	}
	rg, err := eng.Infer(ctx, Request{Network: "gentiny", Dataset: "synthetic", Input: tinyInput(1)})
	if err != nil || rg.Version != "" {
		t.Fatalf("generator infer: %v / %+v", err, rg)
	}
	var sources []string
	for _, m := range eng.Models() {
		sources = append(sources, m.Source)
	}
	if len(sources) != 2 || sources[0] != "registry" || sources[1] != "generator" {
		t.Fatalf("merged listing sources = %v", sources)
	}

	// A registry artifact must not shadow generator models of other
	// datasets: a non-empty Dataset speaks the generator protocol, so the
	// same bare name with a dataset resolves through the generator path.
	if err := eng.RegisterModel(tinyModel("disktiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	rBoth, err := eng.Infer(ctx, Request{Network: "disktiny", Dataset: "synthetic", Input: tinyInput(1)})
	if err != nil {
		t.Fatalf("dataset-qualified request fell into the registry: %v", err)
	}
	if rBoth.Version != "" || rBoth.Dataset != "synthetic" {
		t.Fatalf("dataset-qualified request served %+v, want the generator model", rBoth)
	}
}

func TestEngineReadinessStates(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	writeTinyArtifact(t, dir, "tiny", "v2", 200)
	eng, _ := registryEngine(t, dir, 0, Config{Workers: 1})
	if err := eng.RegisterModel(tinyModel("gen", "synthetic")); err != nil {
		t.Fatal(err)
	}
	rd := eng.Readiness()
	if !rd.Ready || rd.Registry == nil || !rd.Registry.InitialScan {
		t.Fatalf("readiness = %+v", rd)
	}
	states := map[string]string{}
	for _, m := range rd.Models {
		states[m.Network+"@"+m.Version] = m.State
	}
	// The generator model is compiled; both registry versions are cold (lazy)
	// — cold must not block readiness.
	if states["gen@"] != "ready" || states["tiny@v1"] != "cold" || states["tiny@v2"] != "cold" {
		t.Fatalf("states = %v", states)
	}
	if _, err := eng.Infer(context.Background(), Request{Network: "tiny@v1"}); err != nil {
		t.Fatal(err)
	}
	rd = eng.Readiness()
	for _, m := range rd.Models {
		if m.Version == "v1" && m.State != "ready" {
			t.Fatalf("loaded version state = %+v", m)
		}
	}
}

// TestLazyCompileDoesNotGateReadiness: a client-triggered compile on an
// otherwise-warm engine must not flip /readyz — only explicit warm-up work
// (Preload, RegisterModel) gates. The compile window is observed by polling
// Readiness while a slow lazy compile runs.
func TestLazyCompileDoesNotGateReadiness(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Lazy path: an uncached paper model requested by a client.
		_, _ = eng.Infer(context.Background(), Request{Network: "VGG", Dataset: "cifar10"})
	}()
	for {
		select {
		case <-done:
			if rd := eng.Readiness(); !rd.Ready {
				t.Fatalf("unready after lazy compile finished: %+v", rd)
			}
			return
		default:
		}
		rd := eng.Readiness()
		for _, m := range rd.Models {
			if m.State == "compiling" && !rd.Ready {
				t.Fatalf("lazy compile of %s/%s gated readiness: %+v", m.Network, m.Dataset, rd)
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetiredArtifactServesStragglersUnbatched pins the eviction race: a
// request that resolved an artifact just before the registry dropped it must
// still be served — outside any lane, on a fresh executor, without
// resurrecting a batcher that nobody would ever retire (which would pin the
// evicted plan stack until Close).
func TestRetiredArtifactServesStragglersUnbatched(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	eng, reg := registryEngine(t, dir, 0, Config{Workers: 2})
	ctx := context.Background()

	// Resolve the way a racing request would, holding on to the artifact.
	res, err := reg.Resolve("tiny")
	if err != nil {
		t.Fatal(err)
	}
	cm := res.Artifact.(*diskArtifact).cm
	want, err := eng.Infer(ctx, Request{Network: "tiny", Input: tinyInput(1)})
	if err != nil {
		t.Fatal(err)
	}

	// The registry drops the artifact (budget shrink → Release → retire).
	reg.SetMemoryBudget(1)
	if !cm.retired.Load() {
		t.Fatal("Release did not mark the artifact retired")
	}
	eng.mu.Lock()
	n := len(eng.batchers)
	eng.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d batchers alive after eviction", n)
	}

	// The straggler dispatches against the retired cm directly.
	in, err := cm.inputTensor(tinyInput(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.dispatch(ctx, cm, in, ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if resp.BatchSize != 1 || resp.Version != "v1" {
		t.Fatalf("straggler response: %+v", resp)
	}
	for i, v := range resp.Output {
		if v != want.Output[i] {
			t.Fatalf("straggler output[%d] = %g, want %g", i, v, want.Output[i])
		}
	}
	eng.mu.Lock()
	n = len(eng.batchers)
	eng.mu.Unlock()
	if n != 0 {
		t.Fatalf("straggler resurrected %d batcher(s) for a retired artifact", n)
	}
}

// TestRegistryConcurrencyHammer drives hot reloads, corruption, evictions,
// route changes, and inference simultaneously under the race detector.
func TestRegistryConcurrencyHammer(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	writeTinyArtifact(t, dir, "tiny", "v2", 200)
	eng, reg := registryEngine(t, dir, 0, Config{Workers: 4})
	if err := reg.SetRoute("tiny", map[string]int{"v1": 1, "v2": 1}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			specs := []string{"tiny", "tiny@v1", "tiny@v2"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := eng.Infer(context.Background(),
					Request{Network: specs[(i+g)%len(specs)], Input: tinyInput(i)})
				// A version mid-swap may briefly fail its load (truncated
				// rewrite) or vanish; those are well-formed errors, never
				// hangs or panics.
				if err != nil && !strings.Contains(err.Error(), "registry") {
					t.Errorf("infer: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			switch i % 3 {
			case 0:
				writeTinyArtifact(t, dir, "tiny", "v2", int64(1000+i))
			case 1:
				p := filepath.Join(dir, registry.FileName("tiny", "v2"))
				os.WriteFile(p, []byte("garbage"), 0o644)
				mt := time.Unix(1700005000+int64(i), 0)
				os.Chtimes(p, mt, mt)
			case 2:
				reg.SetMemoryBudget(int64(4000 + 100*i))
			}
			if err := reg.Scan(); err != nil {
				t.Error(err)
				return
			}
		}
		reg.SetMemoryBudget(0)
	}()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The last good v1 always survives, and the books still balance.
	if _, err := eng.Infer(context.Background(), Request{Network: "tiny@v1"}); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats().Registry
	var resident int64
	for _, m := range eng.Models() {
		resident += m.MemoryBytes
	}
	if resident != s.BytesInUse {
		t.Fatalf("byte accounting drifted: listing %d vs stats %d", resident, s.BytesInUse)
	}
}
