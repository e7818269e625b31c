package serve

// Plan-cache keying and lifecycle tests for the level-aware cache: the
// optimization level is part of the plan key, so two requests differing only
// in level must compile (and batch) independently — and the engine must stay
// correct when /infer traffic hammers it while Close drains.

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPlanCacheKeyedByLevel(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 2})
	ctx := context.Background()
	req := func(level string) Request {
		return Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(3), Level: level}
	}

	// Same model, three levels: the default (auto, compiled by RegisterModel)
	// plus two explicit ones. Each explicit level is a fresh compile — two
	// models differing only in optimization level must not share a plan.
	base, err := eng.Infer(ctx, req(""))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := eng.Infer(ctx, req("tuned"))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := eng.Infer(ctx, req("packed"))
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.PlanCompiles != 3 {
		t.Fatalf("PlanCompiles = %d, want 3 (auto + tuned + packed are distinct cache entries)", s.PlanCompiles)
	}
	// Re-request each level: all hits, no new compiles.
	for _, lv := range []string{"", "tuned", "packed", "auto"} {
		if _, err := eng.Infer(ctx, req(lv)); err != nil {
			t.Fatal(err)
		}
	}
	s = eng.Stats()
	if s.PlanCompiles != 3 {
		t.Fatalf("PlanCompiles grew to %d on re-request, want 3", s.PlanCompiles)
	}
	if s.LevelHits["auto"] < 2 || s.LevelHits["tuned"] != 1 || s.LevelHits["packed"] != 1 {
		t.Fatalf("LevelHits = %v, want auto>=2 tuned=1 packed=1", s.LevelHits)
	}

	// All levels must agree on the answer (they share one reference
	// semantics; accumulation order may differ in float32).
	for i := range base.Output {
		if d := float64(base.Output[i] - tuned.Output[i]); math.Abs(d) > 1e-4 {
			t.Fatalf("auto vs tuned differ at %d by %g", i, d)
		}
		if d := float64(base.Output[i] - packed.Output[i]); math.Abs(d) > 1e-4 {
			t.Fatalf("auto vs packed differ at %d by %g", i, d)
		}
	}

	// The cache listing shows each level as its own artifact.
	ms := eng.Models()
	if len(ms) != 3 {
		t.Fatalf("Models() = %d entries, want 3 (one per level)", len(ms))
	}
	levels := map[string]bool{}
	for _, m := range ms {
		levels[m.Level] = true
	}
	if !levels["auto"] || !levels["tuned"] || !levels["packed"] {
		t.Fatalf("Models() levels = %v, want auto/tuned/packed", levels)
	}
}

func TestInferRejectsUnknownLevel(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 1})
	_, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic", Level: "warp-speed"})
	if err == nil || !strings.Contains(err.Error(), "unknown level") {
		t.Fatalf("err = %v, want unknown-level error", err)
	}
}

func TestRegisterModelCanonicalizesLevel(t *testing.T) {
	// A non-canonical (but valid) Config.Level spelling must land the eager
	// RegisterModel compile on the same cache key Infer resolves to.
	eng := New(Config{Workers: 1, Level: "Tuned"})
	defer eng.Close()
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic"}); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.PlanCompiles != 1 || s.PlanHits != 1 {
		t.Fatalf("PlanCompiles=%d PlanHits=%d, want 1/1 (no recompile under canonical tag)", s.PlanCompiles, s.PlanHits)
	}
	if ms := eng.Models(); len(ms) != 1 || ms[0].Level != "tuned" {
		t.Fatalf("Models() = %+v, want one entry at canonical tag \"tuned\"", ms)
	}
}

func TestEngineExplicitLevelConfig(t *testing.T) {
	// A pinned-level engine compiles at exactly that level.
	eng := New(Config{Workers: 1, Level: "packed"})
	defer eng.Close()
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Models()
	if len(ms) != 1 || ms[0].Level != "packed" {
		t.Fatalf("Models() = %+v, want one packed entry", ms)
	}
}

// TestInferHammerWhileCloseDrains drives concurrent /infer traffic into the
// engine and closes it mid-stream: every call must either complete or return
// ErrClosed — no hangs, no panics, no sends on closed channels. Run under
// -race this also exercises the batcher drain against the pooled buffers.
func TestInferHammerWhileCloseDrains(t *testing.T) {
	eng := New(Config{Workers: 2, MaxBatch: 4})
	if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err != nil {
		t.Fatal(err)
	}
	const clients = 12
	var (
		wg        sync.WaitGroup
		completed atomic.Uint64
		rejected  atomic.Uint64
	)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; ; j++ {
				r, err := eng.Infer(context.Background(),
					Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(i + j)})
				if err != nil {
					if err != ErrClosed {
						t.Errorf("client %d: %v", i, err)
					}
					rejected.Add(1)
					return
				}
				if r.Shape != [3]int{4, 1, 1} {
					t.Errorf("client %d: shape %v", i, r.Shape)
					return
				}
				completed.Add(1)
			}
		}(i)
	}
	close(start)
	time.Sleep(10 * time.Millisecond) // let traffic build up
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no request completed before Close — the hammer never hit")
	}
	if rejected.Load() != clients {
		t.Fatalf("%d clients saw ErrClosed, want all %d", rejected.Load(), clients)
	}
	// The engine is fully drained: a straggler still gets a clean rejection.
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic"}); err != ErrClosed {
		t.Fatalf("post-drain Infer = %v, want ErrClosed", err)
	}
}
