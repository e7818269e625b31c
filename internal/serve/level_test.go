package serve

// Engine level and lifecycle tests: a model compiles once, at the packed
// family Config.Level names — and the engine must stay correct when /infer
// traffic hammers it while Close drains.

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineLevelConfig: Config.Level accepts auto (the default), packed and
// packedq8 in any spelling ParseLevel does; the response and the model
// listing name the kernels that ran, never "auto".
func TestEngineLevelConfig(t *testing.T) {
	for _, tc := range []struct{ level, want string }{
		{"", "packed"}, {"auto", "packed"}, {"Packed", "packed"}, {"fkw", "packed"},
		{"packedq8", "packedq8"}, {"int8", "packedq8"},
	} {
		eng := tinyEngine(t, Config{Workers: 1, Level: tc.level})
		resp, err := eng.Infer(context.Background(),
			Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(3)})
		if err != nil {
			t.Fatalf("level %q: %v", tc.level, err)
		}
		if resp.Level != tc.want {
			t.Fatalf("level %q: response level %q, want %q", tc.level, resp.Level, tc.want)
		}
		ms := eng.Models()
		if len(ms) != 1 || ms[0].Level != tc.want {
			t.Fatalf("level %q: Models() = %+v, want one entry at %q", tc.level, ms, tc.want)
		}
		if s := eng.Stats(); s.PlanCompiles != 1 || s.PlanHits != 1 {
			t.Fatalf("level %q: PlanCompiles=%d PlanHits=%d, want 1/1", tc.level, s.PlanCompiles, s.PlanHits)
		}
	}
}

// TestEngineRejectsUnservedLevel: the ablation levels are not served. New has
// no error to return, so the first compile — eager or lazy — reports it,
// naming the accepted set.
func TestEngineRejectsUnservedLevel(t *testing.T) {
	for _, level := range []string{"tuned", "noopt", "warp-speed"} {
		eng := New(Config{Workers: 1, Level: level})
		t.Cleanup(func() { eng.Close() })
		const want = "want auto, packed or packedq8"
		if err := eng.RegisterModel(tinyModel("tiny", "synthetic")); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("level %q: RegisterModel err = %v, want one naming the accepted set", level, err)
		}
		if _, err := eng.Infer(context.Background(),
			Request{Network: "VGG", Dataset: "cifar10"}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("level %q: lazy compile err = %v, want one naming the accepted set", level, err)
		}
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
