package serve

import (
	"context"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"patdnn/internal/model"
)

// tinyModel builds a small network so engine tests stay fast even under the
// race detector: conv(4→8) → relu → pool2 → conv(8→8) → relu → flatten → fc,
// served end to end by the graph executor (output [4,1,1] class scores).
func tinyModel(short, dataset string) *model.Model {
	m := &model.Model{Name: "Tiny-CNN", Short: short, Dataset: dataset,
		Classes: 4, InC: 4, InH: 12, InW: 12}
	m.Layers = []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: 4, OutH: 12, OutW: 12},
		{Name: "conv1", Kind: model.Conv, InC: 4, OutC: 8, KH: 3, KW: 3,
			Stride: 1, Pad: 1, Groups: 1, InH: 12, InW: 12, OutH: 12, OutW: 12},
		{Name: "relu1", Kind: model.ReLU, InC: 8, OutC: 8},
		{Name: "pool1", Kind: model.MaxPool, InC: 8, OutC: 8, KH: 2, KW: 2,
			Stride: 2, InH: 12, InW: 12, OutH: 6, OutW: 6},
		{Name: "conv2", Kind: model.Conv, InC: 8, OutC: 8, KH: 3, KW: 3,
			Stride: 1, Pad: 1, Groups: 1, InH: 6, InW: 6, OutH: 6, OutW: 6},
		{Name: "relu2", Kind: model.ReLU, InC: 8, OutC: 8},
		{Name: "flatten", Kind: model.Flatten, InC: 8, InH: 6, InW: 6,
			OutC: 288, OutH: 1, OutW: 1},
		{Name: "fc", Kind: model.FC, InC: 288, OutC: 4, HasBias: true},
	}
	return m
}

func tinyEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng := New(cfg)
	t.Cleanup(func() { eng.Close() })
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	return eng
}

func tinyInput(seed int) []float32 {
	in := make([]float32, 4*12*12)
	for i := range in {
		in[i] = float32((i*31+seed*17)%13) / 13
	}
	return in
}

func TestEngineCompilesExactlyOnce(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 2})
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := eng.Infer(context.Background(),
			Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.PlanCompiles != 1 {
		t.Fatalf("PlanCompiles = %d, want 1 (RegisterModel compiles once, Infer only hits)", s.PlanCompiles)
	}
	if s.PlanHits != n {
		t.Fatalf("PlanHits = %d, want %d", s.PlanHits, n)
	}
	if s.Requests != n || s.Errors != 0 {
		t.Fatalf("Requests=%d Errors=%d, want %d/0", s.Requests, s.Errors, n)
	}
}

func TestEngineConcurrentRequestsDeterministic(t *testing.T) {
	// Reference outputs from an unbatched engine.
	ref := tinyEngine(t, Config{Workers: 1, MaxBatch: 1})
	const distinct = 4
	want := make([][]float32, distinct)
	for i := 0; i < distinct; i++ {
		r, err := ref.Infer(context.Background(),
			Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(i)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Output
	}

	// 64 concurrent requests over a batching engine must each get the output
	// of exactly their own input (no scatter/gather mix-ups, race-free).
	eng := tinyEngine(t, Config{Workers: 4, MaxBatch: 8})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := eng.Infer(context.Background(),
				Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(i % distinct)})
			if err != nil {
				errs <- err
				return
			}
			if r.Shape != [3]int{4, 1, 1} {
				t.Errorf("request %d: shape %v", i, r.Shape)
				return
			}
			for j, v := range r.Output {
				if v != want[i%distinct][j] {
					t.Errorf("request %d: output[%d] = %g, want %g", i, j, v, want[i%distinct][j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Requests != n || s.Errors != 0 || s.PlanCompiles != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEngineErrors(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := eng.Infer(ctx, Request{Network: "AlexNet", Dataset: "imagenet"}); err == nil {
		t.Fatal("expected unknown-network error")
	}
	if _, err := eng.Infer(ctx, Request{Network: "tiny", Dataset: "synthetic",
		Input: make([]float32, 7)}); err == nil || !strings.Contains(err.Error(), "want 576") {
		t.Fatalf("expected input-length error, got %v", err)
	}
	// ResNet-50/ImageNet opens with a 7×7 stem the pattern compiler cannot
	// express: a descriptive rejection, not a wrong answer. (The CIFAR
	// variants of all three paper nets serve end to end now.)
	if _, err := eng.Infer(ctx, Request{Network: "RNT", Dataset: "imagenet"}); err == nil {
		t.Fatal("expected unsupported-topology error for the ImageNet ResNet stem")
	}
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err == nil {
		t.Fatal("expected duplicate-register error")
	}
	if s := eng.Stats(); s.Errors != 3 {
		t.Fatalf("Errors = %d, want 3", s.Errors)
	}
}

func TestEngineUnsupportedModelErrorIsCached(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	for i := 0; i < 3; i++ {
		if _, err := eng.Infer(context.Background(),
			Request{Network: "RNT", Dataset: "imagenet"}); err == nil {
			t.Fatal("expected unsupported-topology error for the 7x7 stem")
		}
	}
	// The failed compile is cached too: one compile, two hits on the error.
	if s := eng.Stats(); s.PlanCompiles != 1 || s.PlanHits != 2 {
		t.Fatalf("PlanCompiles=%d PlanHits=%d, want 1/2", s.PlanCompiles, s.PlanHits)
	}
}

func TestEngineContextCancel(t *testing.T) {
	// A call queued behind a running sweep gives up as soon as its caller does.
	eng := tinyEngine(t, Config{Workers: 1, MaxBatch: 4})
	release := stallLane(t, eng, ClassInteractive)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Infer(ctx, Request{Network: "tiny", Dataset: "synthetic"})
		done <- err
	}()
	waitForQueueDepth(t, eng, "interactive", 1)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Infer did not honor cancellation")
	}
}

func TestEngineCloseDrainsAndRejects(t *testing.T) {
	eng := New(Config{Workers: 2, MaxBatch: 4})
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// In-flight requests either complete or see ErrClosed; nothing hangs.
			_, err := eng.Infer(context.Background(),
				Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(i)})
			if err != nil && err != ErrClosed {
				t.Error(err)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic"}); err != ErrClosed {
		t.Fatalf("Infer after Close = %v, want ErrClosed", err)
	}
}

// poolWorkers counts runtime.Pool worker goroutines, started or not.
func poolWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by patdnn/internal/runtime.(*team).start")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestEngineCloseStopsPoolWorkers: the engine's pool keeps standing workers
// between sweeps, and Close leaves none of them behind. Other tests' pools
// only ever stop while this runs, so the counts are compared one way.
func TestEngineCloseStopsPoolWorkers(t *testing.T) {
	before := poolWorkers()
	eng := New(Config{Workers: 3})
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(context.Background(), Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(1)}); err != nil {
		t.Fatal(err)
	}
	running := poolWorkers()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	after := poolWorkers()
	if running-after < 2 || after > before {
		t.Fatalf("pool worker goroutines: %d before New, %d serving, %d after Close; want the engine's 2 gone", before, running, after)
	}
}

func TestEngineModelsListing(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 1, ConnRate: 4})
	if err := eng.RegisterModel(tinyModel("atiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	ms := eng.Models()
	if len(ms) != 2 {
		t.Fatalf("Models() = %d entries, want 2", len(ms))
	}
	if ms[0].Network != "atiny" || ms[1].Network != "tiny" {
		t.Fatalf("Models() not sorted: %v", ms)
	}
	m := ms[1]
	if m.ConvLayers != 2 || m.InputShape != [3]int{4, 12, 12} || m.OutputShape != [3]int{4, 1, 1} {
		t.Fatalf("ModelInfo = %+v", m)
	}
	if m.Compression < 2 {
		t.Fatalf("compression %.2f implausibly low for 4x connectivity pruning", m.Compression)
	}
}

func TestEngineUnknownDatasetIsErrorNotPanic(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	_, err := eng.Infer(context.Background(), Request{Network: "VGG", Dataset: "imagenet2"})
	if err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("err = %v, want unknown-dataset error", err)
	}
}

func TestEngineRejectsUnservablePool(t *testing.T) {
	m := tinyModel("badpool", "synthetic")
	m.Layers[3].Stride = 1 // 2x2 pool with stride 1: MaxPool2D cannot honor it
	eng := New(Config{Workers: 1})
	defer eng.Close()
	err := eng.RegisterModel(m)
	if err == nil || !strings.Contains(err.Error(), "stride==kernel") {
		t.Fatalf("err = %v, want unservable-pool error", err)
	}
	// The failed register must not poison the key: a corrected descriptor
	// registers cleanly.
	if err := eng.RegisterModel(tinyModel("badpool", "synthetic")); err != nil {
		t.Fatalf("re-register after failed compile: %v", err)
	}
	if _, err := eng.Infer(context.Background(),
		Request{Network: "badpool", Dataset: "synthetic"}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineInferAfterCloseDoesNotCompile(t *testing.T) {
	eng := New(Config{Workers: 1})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(context.Background(),
		Request{Network: "VGG", Dataset: "cifar10"}); err != ErrClosed {
		t.Fatalf("Infer after Close = %v, want ErrClosed", err)
	}
	if s := eng.Stats(); s.PlanCompiles != 0 {
		t.Fatalf("PlanCompiles = %d after post-Close Infer, want 0 (no wasted compile)", s.PlanCompiles)
	}
}

func TestEngineModelsDuringConcurrentCompile(t *testing.T) {
	// Models()/Stats() must be safe (and non-blocking) while other goroutines
	// are registering and lazily compiling models.
	eng := New(Config{Workers: 1})
	defer eng.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a'+i)) + "tiny"
			if err := eng.RegisterModel(tinyModel(name, "synthetic")); err != nil {
				t.Error(err)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				eng.Models()
				eng.Stats()
			}
		}()
	}
	wg.Wait()
	if got := len(eng.Models()); got != 4 {
		t.Fatalf("Models() = %d entries after all registers, want 4", got)
	}
}

func TestEngineInferAfterCloseSpawnsNoBatcher(t *testing.T) {
	// A model compiled but never inferred has no batcher; an Infer arriving
	// after Close must not create one (its channel would never be closed and
	// its goroutine would leak).
	eng := New(Config{Workers: 1})
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic"}); err != ErrClosed {
		t.Fatalf("Infer after Close = %v, want ErrClosed", err)
	}
	eng.mu.Lock()
	n := len(eng.batchers)
	eng.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d batcher(s) created after Close", n)
	}
}

func TestEngineServesVGG(t *testing.T) {
	// One real paper model end-to-end (the heavyweight path the benchmarks
	// sweep): compile once, serve a few concurrent requests.
	if testing.Short() {
		t.Skip("compiles full VGG-16")
	}
	eng := New(Config{MaxBatch: 4})
	defer eng.Close()
	if err := eng.Preload("VGG", "cifar10"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := eng.Infer(context.Background(), Request{Network: "vgg16", Dataset: "cifar10"})
			if err != nil {
				t.Error(err)
				return
			}
			if r.Shape != [3]int{10, 1, 1} {
				t.Errorf("VGG/cifar10 output shape %v, want [10,1,1] class probabilities", r.Shape)
			}
		}()
	}
	wg.Wait()
	if s := eng.Stats(); s.PlanCompiles != 1 || s.PlanHits != 4 {
		t.Fatalf("PlanCompiles=%d PlanHits=%d, want 1/4 (aliases share the cache entry)", s.PlanCompiles, s.PlanHits)
	}
}

// TestAliasRequestsHitPlanCache: every spelling model.ByName accepts for a
// paper network must resolve to the one cached plan — one compile, and every
// subsequent request (canonical or alias) counts as a plan hit. The first
// alias request memoizes the canonical key, so later alias requests skip
// descriptor construction entirely.
func TestAliasRequestsHitPlanCache(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	if _, err := eng.Infer(ctx, Request{Network: "vgg16", Dataset: "cifar10"}); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.PlanCompiles != 1 || s.PlanHits != 0 {
		t.Fatalf("after first alias request: %d compiles / %d hits, want 1 / 0",
			s.PlanCompiles, s.PlanHits)
	}
	// The alias was memoized against the canonical (Short, Dataset) key.
	eng.mu.Lock()
	canon, ok := eng.aliases[modelKey{"vgg16", "cifar10"}]
	eng.mu.Unlock()
	if !ok || canon != (modelKey{"VGG", "cifar10"}) {
		t.Fatalf("alias not memoized: %v (ok=%v)", canon, ok)
	}

	// Every other spelling — the memoized alias, new aliases, the canonical
	// name — rides the cached plan and counts as a hit.
	for _, name := range []string{"vgg16", "VGG-16", "vgg", "VGG"} {
		if _, err := eng.Infer(ctx, Request{Network: name, Dataset: "cifar10"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	s = eng.Stats()
	if s.PlanCompiles != 1 {
		t.Fatalf("alias requests recompiled the model: %d compiles", s.PlanCompiles)
	}
	if s.PlanHits != 4 {
		t.Fatalf("alias requests missed the plan cache: %d hits, want 4", s.PlanHits)
	}
}
