package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"patdnn"
	"patdnn/internal/registry"
	"patdnn/internal/serve"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true}, {"0", 0, true}, {"123", 123, true},
		{"64MB", 64 << 20, true}, {"64MiB", 64 << 20, true}, {"64m", 64 << 20, true},
		{"2GB", 2 << 30, true}, {"512kb", 512 << 10, true}, {"10B", 10, true},
		{" 1 GB ", 1 << 30, true},
		{"-5MB", 0, false}, {"lots", 0, false}, {"12TB", 0, false},
		{"10000000000GB", 0, false}, // int64 overflow must error, not wrap to "unlimited"
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("parseBytes(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// getJSON decodes a GET endpoint into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// postJSON posts body to url, decodes into out when non-nil, and returns the
// status code.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: %v (body %s)", url, err, raw)
		}
	}
	return resp.StatusCode
}

// emitVersion runs the patdnn-compile emission path (Compile +
// WriteModelGraph) into the models dir: the operating point doubles as the
// version's distinguishing content.
func emitVersion(t *testing.T, dir, name, version string, connRate float64) {
	t.Helper()
	c, err := patdnn.Compile("VGG", "cifar10", 8, connRate)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, registry.FileName(name, version)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := c.WriteModelGraph(f); err != nil {
		t.Fatal(err)
	}
}

// TestServerRegistryLifecycleEndToEnd is the acceptance demo: two compiled
// versions of a model in a temp models dir; the server serves name@v1, picks
// up v2 by polling (hot reload), splits traffic 90/10 under a configured
// route, and evicts the LRU model once the memory budget shrinks — with the
// eviction and reload counters visible in /stats and /registry.
func TestServerRegistryLifecycleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles VGG-16 artifacts end to end")
	}
	dir := t.TempDir()
	emitVersion(t, dir, "vgg", "v1", 3.6)

	eng := serve.New(serve.Config{Workers: 4, MaxBatch: 4})
	t.Cleanup(func() { eng.Close() })
	reg, err := eng.WithRegistry(registry.Config{Dir: dir, Poll: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(eng, reg))
	t.Cleanup(ts.Close)

	// Liveness and readiness: the initial scan is done and nothing is
	// compiling yet, so the server is immediately routable.
	if st := getJSON(t, ts.URL+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("/healthz = %d", st)
	}
	var rd serve.Readiness
	if st := getJSON(t, ts.URL+"/readyz", &rd); st != http.StatusOK || !rd.Ready {
		t.Fatalf("/readyz = %d %+v", st, rd)
	}

	infer := func(network string) serve.Response {
		t.Helper()
		var out serve.Response
		if st := postJSON(t, ts.URL+"/infer", map[string]string{"network": network}, &out); st != http.StatusOK {
			t.Fatalf("POST /infer %s = %d", network, st)
		}
		return out
	}
	if r := infer("vgg"); r.Version != "v1" || r.Shape != [3]int{10, 1, 1} {
		t.Fatalf("first infer: %+v", r)
	}

	// Hot reload: drop v2 into the watch dir; the poller must pick it up and
	// route bare-name traffic to it (the latest version) without a restart.
	emitVersion(t, dir, "vgg", "v2", 5.2)
	deadline := time.Now().Add(15 * time.Second)
	for infer("vgg").Version != "v2" {
		if time.Now().After(deadline) {
			t.Fatal("poller never promoted vgg@v2")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if r := infer("vgg@v1"); r.Version != "v1" {
		t.Fatalf("exact version pinning broken: %+v", r)
	}

	// Canary route: 90% v1, 10% v2, chosen per request by the deterministic
	// seeded picker.
	if st := postJSON(t, ts.URL+"/registry/route",
		map[string]any{"model": "vgg", "weights": map[string]int{"v1": 9, "v2": 1}}, nil); st != http.StatusOK {
		t.Fatalf("set route = %d", st)
	}
	const n = 40
	counts := make(map[string]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				v := infer("vgg").Version
				mu.Lock()
				counts[v]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if counts["v1"]+counts["v2"] != n || counts["v2"] < 1 || counts["v1"] < n/2 {
		t.Fatalf("90/10 split served %v over %d requests", counts, n)
	}

	// Registry detail: both versions resident with byte accounting, the
	// route visible.
	var rv struct {
		Models []registry.ModelInfo              `json:"models"`
		Routes map[string][]registry.RouteWeight `json:"routes"`
		Stats  registry.Stats                    `json:"stats"`
	}
	if st := getJSON(t, ts.URL+"/registry", &rv); st != http.StatusOK {
		t.Fatalf("/registry = %d", st)
	}
	if len(rv.Models) != 2 || len(rv.Routes["vgg"]) != 2 || rv.Stats.Loaded != 2 || rv.Stats.BytesInUse <= 0 {
		t.Fatalf("/registry view: %+v", rv)
	}
	for _, m := range rv.Models {
		if !m.Loaded || m.Bytes <= 0 || m.LastUsed.IsZero() {
			t.Fatalf("version %s missing residency detail: %+v", m.Version, m)
		}
	}
	// /models mirrors the registry entries with version + bytes + last-used.
	var models []serve.ModelInfo
	if st := getJSON(t, ts.URL+"/models", &models); st != http.StatusOK {
		t.Fatalf("/models = %d", st)
	}
	if len(models) != 2 || models[0].Version != "v1" || models[0].Source != "registry" ||
		models[0].MemoryBytes <= 0 || models[0].LastUsed.IsZero() {
		t.Fatalf("/models listing: %+v", models)
	}

	// Clear the route; bare names fall back to the latest version.
	if st := postJSON(t, ts.URL+"/registry/route", map[string]any{"model": "vgg"}, nil); st != http.StatusOK {
		t.Fatal("clear route failed")
	}
	if r := infer("vgg"); r.Version != "v2" {
		t.Fatalf("after clearing the route got %s, want latest v2", r.Version)
	}

	// Memory budget: shrink it below the two resident models — the LRU one
	// is evicted immediately; inferring it afterwards recompiles lazily and
	// evicts the other in turn. Counters surface in /stats and /registry.
	reg.SetMemoryBudget(rv.Stats.BytesInUse - 1)
	var es serve.Stats
	if st := getJSON(t, ts.URL+"/stats", &es); st != http.StatusOK || es.Registry == nil {
		t.Fatalf("/stats = %d %+v", st, es)
	}
	if es.Registry.Evictions != 1 || es.Registry.Loaded != 1 {
		t.Fatalf("after budget shrink: %+v", es.Registry)
	}
	if r := infer("vgg@v1"); r.Version != "v1" {
		t.Fatalf("evicted version did not recompile: %+v", r)
	}
	if getJSON(t, ts.URL+"/registry", &rv); rv.Stats.LazyReloads != 1 || rv.Stats.Evictions != 2 {
		t.Fatalf("after lazy reload: %+v", rv.Stats)
	}
}

func TestRouteEndpointValidation(t *testing.T) {
	dir := t.TempDir()
	eng := serve.New(serve.Config{Workers: 1})
	t.Cleanup(func() { eng.Close() })
	reg, err := eng.WithRegistry(registry.Config{Dir: dir, Poll: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(eng, reg))
	t.Cleanup(ts.Close)

	if st := postJSON(t, ts.URL+"/registry/route",
		map[string]any{"model": "ghost", "weights": map[string]int{"v1": 1}}, nil); st != http.StatusNotFound {
		t.Fatalf("route to unknown model = %d, want 404", st)
	}
	if st := postJSON(t, ts.URL+"/registry/route", map[string]any{"weights": map[string]int{"v1": 1}}, nil); st != http.StatusBadRequest {
		t.Fatalf("route without model = %d, want 400", st)
	}
	var out map[string]string
	if st := postJSON(t, ts.URL+"/infer", map[string]string{"network": "ghost@v1"}, &out); st != http.StatusNotFound {
		t.Fatalf("infer unknown registry version = %d (%v), want 404", st, out)
	}
}

func TestRegistryEndpointsAbsentWithoutModelsDir(t *testing.T) {
	eng := serve.New(serve.Config{Workers: 1})
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(newMux(eng, nil))
	t.Cleanup(ts.Close)
	if st := getJSON(t, ts.URL+"/registry", nil); st != http.StatusNotFound {
		t.Fatalf("/registry without models dir = %d, want 404", st)
	}
	// /readyz exists regardless of the registry.
	var rd serve.Readiness
	if st := getJSON(t, ts.URL+"/readyz", &rd); st != http.StatusOK || !rd.Ready {
		t.Fatalf("/readyz = %d %+v", st, rd)
	}
}

// TestReadyzReportsCompileInFlight pins the 503 contract: while a preload
// compile is running the server must refuse readiness, then flip to 200.
func TestReadyzReportsCompileInFlight(t *testing.T) {
	eng := serve.New(serve.Config{Workers: 2})
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(newMux(eng, nil))
	t.Cleanup(ts.Close)

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- eng.Preload("VGG", "cifar10") }()
	// Poll /readyz while the compile runs; it must report not-ready with the
	// model in "compiling" state (the compile takes far longer than one poll
	// round-trip on any plausible machine — but if it somehow finishes before
	// the first poll, the transition is unobservable and not a failure).
	sawCompiling := false
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			var rd serve.Readiness
			if st := getJSON(t, ts.URL+"/readyz", &rd); st != http.StatusOK || !rd.Ready {
				t.Fatalf("/readyz after compile = %d %+v", st, rd)
			}
			if !sawCompiling && time.Since(start) > 500*time.Millisecond {
				t.Fatal("compile ran long yet /readyz never reported compiling")
			}
			return
		default:
		}
		var rd serve.Readiness
		st := getJSON(t, ts.URL+"/readyz", &rd)
		if st == http.StatusServiceUnavailable {
			for _, m := range rd.Models {
				if m.State == "compiling" {
					sawCompiling = true
				}
			}
			if !sawCompiling {
				t.Fatalf("503 without a compiling model: %+v", rd)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// emitGraphVersion runs the patdnn-compile graph-emission path (Compile +
// WriteModelGraph, the -format graph default) into the models dir.
func emitGraphVersion(t *testing.T, dir, model, name, version string) {
	t.Helper()
	c, err := patdnn.Compile(model, "cifar10", 8, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, registry.FileName(name, version)+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteModelGraph(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Rename into place like the CLI does, so the poller never sees a
	// half-written artifact.
	if err := os.Rename(tmp, filepath.Join(dir, registry.FileName(name, version))); err != nil {
		t.Fatal(err)
	}
}

// TestServerGraphArtifactResNetEndToEnd is the graph-IR acceptance demo:
// `patdnn-compile -model resnet50 -registry-dir …` (the API the command
// wraps) emits a v2 graph artifact, a running patdnn-serve hot-loads it off
// the polled models dir, /infer returns the [10,1,1] class distribution, and
// /models reports the plan's fused-op counts (every BN folded, every residual
// add riding a conv epilogue).
func TestServerGraphArtifactResNetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a full ResNet-50/CIFAR-10 graph artifact")
	}
	dir := t.TempDir()
	eng := serve.New(serve.Config{Workers: 4, MaxBatch: 4})
	t.Cleanup(func() { eng.Close() })
	reg, err := eng.WithRegistry(registry.Config{Dir: dir, Poll: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(eng, reg))
	t.Cleanup(ts.Close)

	// The server is up and empty; the artifact lands afterwards — serving it
	// requires a hot reload, not a startup scan.
	emitGraphVersion(t, dir, "resnet50", "resnet50", "v1")
	deadline := time.Now().Add(30 * time.Second)
	for !reg.Has("resnet50") {
		if time.Now().After(deadline) {
			t.Fatal("poller never picked up the resnet50 graph artifact")
		}
		time.Sleep(20 * time.Millisecond)
	}

	var out serve.Response
	if st := postJSON(t, ts.URL+"/infer", map[string]string{"network": "resnet50"}, &out); st != http.StatusOK {
		t.Fatalf("POST /infer = %d", st)
	}
	if out.Version != "v1" || out.Shape != [3]int{10, 1, 1} {
		t.Fatalf("infer response: %+v", out)
	}
	// Softmax output: a probability distribution.
	var sum float64
	for _, v := range out.Output {
		if v < 0 || v > 1 {
			t.Fatalf("output %g outside [0,1]", v)
		}
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax outputs sum to %g", sum)
	}

	// /models reports the fused-op counts for the loaded version: ResNet-50
	// has 49 BatchNorms (one per non-projection conv, all folded) and 16
	// residual adds (all fused into bottleneck-tail conv epilogues).
	var models []serve.ModelInfo
	if st := getJSON(t, ts.URL+"/models", &models); st != http.StatusOK {
		t.Fatalf("/models = %d", st)
	}
	var found bool
	for _, m := range models {
		if m.Network != "resnet50" || m.Source != "registry" {
			continue
		}
		found = true
		if m.FusedOps.ConvBN != 49 || m.FusedOps.Residual != 16 || m.FusedOps.ConvReLU == 0 {
			t.Fatalf("fused ops: %+v", m.FusedOps)
		}
		if m.ArenaBytes <= 0 {
			t.Fatalf("missing arena accounting: %+v", m)
		}
	}
	if !found {
		t.Fatalf("resnet50 missing from /models: %+v", models)
	}
}
