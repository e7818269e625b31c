package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
)

// tinyFile builds a small valid two-conv artifact (conv 2→4 @8×8 → ReLU →
// pool 2 → conv 4→4 @4×4 → ReLU) whose weights vary with seed, so versions
// are distinguishable.
func tinyFile(seed int64) *modelfile.File {
	conv := func(name string, inC, hw int) *model.Layer {
		return &model.Layer{Name: name, Kind: model.Conv, InC: inC, OutC: 4, KH: 3, KW: 3,
			Stride: 1, Pad: 1, Groups: 1, InH: hw, InW: hw, OutH: hw, OutW: hw}
	}
	m := &model.Model{Name: "tiny", InC: 2, InH: 8, InW: 8, Layers: []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: 2, OutH: 8, OutW: 8},
		conv("c1", 2, 8),
		{Name: "relu1", Kind: model.ReLU, InC: 4, OutC: 4},
		{Name: "pool1", Kind: model.MaxPool, InC: 4, OutC: 4, KH: 2, KW: 2, Stride: 2,
			InH: 8, InW: 8, OutH: 4, OutW: 4},
		conv("c2", 4, 4),
		{Name: "relu2", Kind: model.ReLU, InC: 4, OutC: 4},
	}}
	f := &modelfile.File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	for i, name := range []string{"c1", "c2"} {
		c := pruned.Generate(m.Layer(name), pattern.Canonical(8), 2, seed+int64(i), true)
		f.Layers = append(f.Layers, modelfile.Layer{Conv: c})
	}
	return f
}

// writeArtifact writes a tiny artifact as <dir>/<name>@<ver>.patdnn and bumps
// its modtime past any previous content at the same path (filesystem modtime
// granularity must not hide the rewrite from Scan's size+modtime diff).
func writeArtifact(t *testing.T, dir, name, ver string, seed int64) string {
	t.Helper()
	path := filepath.Join(dir, FileName(name, ver))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelfile.Write(f, tinyFile(seed)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bumpModTime(t, path, seed)
	return path
}

// bumpModTime gives path a distinct deterministic modtime per seed so
// rewrites always look changed to the scanner.
func bumpModTime(t *testing.T, path string, seed int64) {
	t.Helper()
	mt := time.Unix(1700000000+seed, seed)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
}

// fakeArt is a loader artifact with fixed byte cost and release tracking.
type fakeArt struct {
	name, ver string
	bytes     int64
	released  atomic.Bool
}

func (a *fakeArt) MemoryBytes() int64 { return a.bytes }
func (a *fakeArt) Release()           { a.released.Store(true) }

// fakeLoader returns artifacts of fixed size and counts loads.
func fakeLoader(bytes int64, loads *atomic.Int64) Loader {
	return LoaderFunc(func(name, ver string, f *modelfile.File) (Artifact, error) {
		if loads != nil {
			loads.Add(1)
		}
		return &fakeArt{name: name, ver: ver, bytes: bytes}, nil
	})
}

func openTest(t *testing.T, dir string, budget int64, loader Loader) *Registry {
	t.Helper()
	r, err := Open(Config{Dir: dir, MemoryBudget: budget, Poll: -1}, loader)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestScanResolveAndAliases(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	writeArtifact(t, dir, "a", "v2", 2)
	// Bare filename means v1.
	path := filepath.Join(dir, "b"+Ext)
	src, _ := os.ReadFile(filepath.Join(dir, FileName("a", "v1")))
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-artifacts are ignored.
	os.WriteFile(filepath.Join(dir, "README.md"), []byte("docs"), 0o644)

	r := openTest(t, dir, 0, fakeLoader(10, nil))
	res, err := r.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != "v2" {
		t.Fatalf("bare name resolved to %s, want latest v2", res.Version)
	}
	if res, err = r.Resolve("a@v1"); err != nil || res.Version != "v1" {
		t.Fatalf("exact resolve = %v/%v, want v1", res, err)
	}
	if res, err = r.Resolve("b"); err != nil || res.Version != "v1" {
		t.Fatalf("bare filename resolve = %v/%v, want b@v1", res, err)
	}
	if _, err = r.Resolve("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing model: %v, want ErrNotFound", err)
	}
	if _, err = r.Resolve("a@v9"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version: %v, want ErrNotFound", err)
	}

	ms := r.Models()
	if len(ms) != 3 {
		t.Fatalf("Models() = %d entries, want 3: %+v", len(ms), ms)
	}
	if ms[0].Name != "a" || ms[0].Version != "v1" || ms[0].Default {
		t.Fatalf("ms[0] = %+v, want a@v1 non-default", ms[0])
	}
	if ms[1].Version != "v2" || !ms[1].Default {
		t.Fatalf("ms[1] = %+v, want a@v2 default", ms[1])
	}
	if ms[1].ConvLayers != 2 || ms[1].Model != "tiny" || ms[1].FileBytes == 0 {
		t.Fatalf("artifact metadata not captured: %+v", ms[1])
	}
	if s := r.Stats(); s.Models != 2 || s.Versions != 3 || s.Loaded != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestParseFileName(t *testing.T) {
	cases := []struct {
		base, name, ver string
		ok              bool
	}{
		{"vgg@v2.patdnn", "vgg", "v2", true},
		{"vgg.patdnn", "vgg", "v1", true},
		{"a@b@v3.patdnn", "a@b", "v3", false}, // name must not contain @
		{"sub/vgg@v1.patdnn", "", "", false},  // path separators never scan
		{`sub\vgg.patdnn`, "", "", false},
		{"@v1.patdnn", "", "", false},
		{"vgg@.patdnn", "", "", false},
		{"vgg.bin", "", "", false},
	}
	for _, c := range cases {
		name, ver, err := ParseFileName(c.base)
		if (err == nil) != c.ok {
			t.Fatalf("ParseFileName(%q) err=%v, want ok=%v", c.base, err, c.ok)
		}
		if c.ok && (name != c.name || ver != c.ver) {
			t.Fatalf("ParseFileName(%q) = %q@%q, want %q@%q", c.base, name, ver, c.name, c.ver)
		}
	}
}

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"v1", "v2", -1}, {"v2", "v10", -1}, {"v10", "v9", 1},
		{"v3", "v3", 0}, {"3", "v4", -1}, {"beta", "v1", -1},
		{"alpha", "beta", -1},
	}
	for _, c := range cases {
		if got := CompareVersions(c.a, c.b); got != c.want {
			t.Fatalf("CompareVersions(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestWeightedRouteDeterministicSplit(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	writeArtifact(t, dir, "a", "v2", 2)
	sequence := func(seed int64, n int) []string {
		r, err := Open(Config{Dir: dir, Poll: -1, Seed: seed}, fakeLoader(1, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.SetRoute("a", map[string]int{"v1": 3, "v2": 1}); err != nil {
			t.Fatal(err)
		}
		out := make([]string, n)
		for i := range out {
			res, err := r.Resolve("a")
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res.Version
		}
		return out
	}

	seq := sequence(7, 400)
	counts := map[string]int{}
	for _, v := range seq {
		counts[v]++
	}
	// 3:1 split over 400 picks: v2 expects 100. The picker is deterministic,
	// so these bounds never flake — they assert the hash spreads sanely.
	if counts["v2"] < 50 || counts["v2"] > 150 {
		t.Fatalf("v2 served %d/400, want ~100 under a 3:1 route", counts["v2"])
	}
	if counts["v1"]+counts["v2"] != 400 {
		t.Fatalf("route served unexpected versions: %v", counts)
	}
	// Same seed reproduces the same sequence; a different seed changes it.
	again := sequence(7, 400)
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatalf("pick %d differs across runs with equal seed: %s vs %s", i, seq[i], again[i])
		}
	}
	other := sequence(8, 400)
	same := true
	for i := range seq {
		if seq[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed does not influence the route picker")
	}
}

func TestRouteValidationAndClear(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	writeArtifact(t, dir, "a", "v2", 2)
	r := openTest(t, dir, 0, fakeLoader(1, nil))

	if err := r.SetRoute("missing", map[string]int{"v1": 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("route to missing model: %v", err)
	}
	if err := r.SetRoute("a", map[string]int{"v9": 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("route to missing version: %v", err)
	}
	if err := r.SetRoute("a", map[string]int{"v1": 0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := r.SetRoute("a", nil); err == nil {
		t.Fatal("empty route accepted")
	}
	// Single-leg route pins the bare name: the mutable alias.
	if err := r.SetRoute("a", map[string]int{"v1": 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if res, _ := r.Resolve("a"); res.Version != "v1" {
			t.Fatalf("pinned alias resolved to %s", res.Version)
		}
	}
	if rt := r.Routes(); len(rt["a"]) != 1 || rt["a"][0] != (RouteWeight{Version: "v1", Weight: 1}) {
		t.Fatalf("Routes() = %+v", rt)
	}
	r.ClearRoute("a")
	if res, _ := r.Resolve("a"); res.Version != "v2" {
		t.Fatalf("after ClearRoute resolved to %s, want latest v2", res.Version)
	}
}

func TestMemoryBudgetLRUEvictionAndLazyReload(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	writeArtifact(t, dir, "a", "v2", 2)
	writeArtifact(t, dir, "b", "v1", 3)
	var loads atomic.Int64
	r := openTest(t, dir, 250, fakeLoader(100, &loads))

	a1, _ := r.Resolve("a@v1")
	time.Sleep(2 * time.Millisecond) // order lastUsed unambiguously
	if _, err := r.Resolve("a@v2"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := r.Resolve("b@v1"); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Evictions != 1 || s.BytesInUse != 200 || s.Loaded != 2 {
		t.Fatalf("after third load: %+v, want 1 eviction, 200 bytes, 2 loaded", s)
	}
	if !a1.Artifact.(*fakeArt).released.Load() {
		t.Fatal("evicted artifact was not released")
	}
	// The evicted LRU victim must be a@v1 (oldest lastUsed); resolving it
	// again is a lazy reload that evicts the next LRU (a@v2).
	if _, err := r.Resolve("a@v1"); err != nil {
		t.Fatal(err)
	}
	s = r.Stats()
	if s.LazyReloads != 1 || s.Evictions != 2 || s.BytesInUse != 200 {
		t.Fatalf("after lazy reload: %+v", s)
	}
	if loads.Load() != 4 {
		t.Fatalf("loader ran %d times, want 4 (3 cold + 1 lazy reload)", loads.Load())
	}
	ms := r.Models()
	var av1 ModelInfo
	for _, m := range ms {
		if m.Name == "a" && m.Version == "v1" {
			av1 = m
		}
	}
	if av1.Loads != 2 || av1.Evictions != 1 || !av1.Loaded {
		t.Fatalf("a@v1 info = %+v", av1)
	}

	// Shrinking the budget at runtime evicts immediately.
	r.SetMemoryBudget(50)
	if s = r.Stats(); s.Loaded != 0 || s.BytesInUse != 0 {
		t.Fatalf("after budget shrink: %+v, want everything evicted", s)
	}
}

func TestCorruptArtifactQuarantinedKeepsLastGood(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "a", "v1", 1)
	var loads atomic.Int64
	r := openTest(t, dir, 0, fakeLoader(10, &loads))
	first, err := r.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the file in place: the scanner must quarantine it and keep the
	// resident artifact serving.
	if err := os.WriteFile(path, []byte("PATDNN garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	bumpModTime(t, path, 50)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.BadFiles != 1 || len(s.Quarantined) != 1 || !strings.Contains(s.Quarantined[0].Error, "modelfile") {
		t.Fatalf("quarantine state: %+v", s)
	}
	res, err := r.Resolve("a")
	if err != nil || res.Artifact != first.Artifact {
		t.Fatalf("corrupt rewrite displaced the good artifact: %v, %v", res, err)
	}
	// An unchanged corrupt file is not re-parsed every scan.
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	if s = r.Stats(); s.BadFiles != 1 {
		t.Fatalf("unchanged corrupt file re-quarantined: %+v", s)
	}

	// A corrupt NEW version must not become the alias target.
	if err := os.WriteFile(filepath.Join(dir, FileName("a", "v2")), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	if res, _ = r.Resolve("a"); res.Version != "v1" {
		t.Fatalf("corrupt v2 became alias target (%s)", res.Version)
	}

	// Fixing the file hot-swaps it in: old artifact released, loader reruns.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelfile.Write(f, tinyFile(9)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	bumpModTime(t, path, 60)
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	if s = r.Stats(); len(s.Quarantined) != 1 || s.Reloads != 1 {
		t.Fatalf("after fix: %+v, want v2 still quarantined and one reload", s)
	}
	if _, err := r.Resolve("a"); err != nil {
		t.Fatal(err)
	}
	if !first.Artifact.(*fakeArt).released.Load() {
		t.Fatal("replaced artifact was not released")
	}
	if loads.Load() != 2 {
		t.Fatalf("loader ran %d times, want 2 (original + hot-swapped)", loads.Load())
	}
}

// TestBareAndExplicitTwinFilesAreStable: `a.patdnn` and `a@v1.patdnn` both
// mean a@v1; the explicit file must win deterministically and steady-state
// rescans must not thrash the entry between the two paths (each swap would
// release the compiled artifact and force a recompile).
func TestBareAndExplicitTwinFilesAreStable(t *testing.T) {
	dir := t.TempDir()
	explicit := writeArtifact(t, dir, "a", "v1", 1)
	src, _ := os.ReadFile(explicit)
	if err := os.WriteFile(filepath.Join(dir, "a"+Ext), src, 0o644); err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int64
	r := openTest(t, dir, 0, fakeLoader(10, &loads))
	first, err := r.Resolve("a")
	if err != nil || first.Version != "v1" {
		t.Fatalf("resolve: %v/%v", first, err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Scan(); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.Reloads != 0 || s.Versions != 1 {
		t.Fatalf("steady-state scans thrashed the twin files: %+v", s)
	}
	if len(s.Quarantined) != 1 || !strings.Contains(s.Quarantined[0].Error, "duplicates") {
		t.Fatalf("shorthand twin not quarantined: %+v", s.Quarantined)
	}
	if ms := r.Models(); ms[0].Path != explicit {
		t.Fatalf("explicit file did not win: %+v", ms[0])
	}
	// No swap happened, so the resident artifact was never released.
	if res, _ := r.Resolve("a"); res.Artifact != first.Artifact || loads.Load() != 1 {
		t.Fatalf("artifact churned across scans (loads=%d)", loads.Load())
	}
}

func TestRemovedFileDropsVersion(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	path2 := writeArtifact(t, dir, "a", "v2", 2)
	r := openTest(t, dir, 0, fakeLoader(10, nil))
	v2, err := r.Resolve("a") // loads v2 (latest)
	if err != nil || v2.Version != "v2" {
		t.Fatal(err)
	}
	if err := os.Remove(path2); err != nil {
		t.Fatal(err)
	}
	if err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	if res, err := r.Resolve("a"); err != nil || res.Version != "v1" {
		t.Fatalf("after removal resolve = %v/%v, want v1", res, err)
	}
	if !v2.Artifact.(*fakeArt).released.Load() {
		t.Fatal("removed version's artifact was not released")
	}
	if s := r.Stats(); s.Removed != 1 || s.BytesInUse != 10 {
		t.Fatalf("stats after removal: %+v", s)
	}
}

func TestLoadErrorSurfacedPerRequest(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "a", "v1", 1)
	r := openTest(t, dir, 0, fakeLoader(10, nil))
	// Delete the file without rescanning: the lazy load must error, not
	// panic, and the failure shows up in Models().
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve("a"); err == nil {
		t.Fatal("resolve of vanished file succeeded")
	}
	if ms := r.Models(); len(ms) != 1 || ms[0].Error == "" {
		t.Fatalf("load error not surfaced: %+v", ms)
	}
}

func TestPollerHotReload(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	r, err := Open(Config{Dir: dir, Poll: 10 * time.Millisecond}, fakeLoader(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	writeArtifact(t, dir, "a", "v2", 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if res, err := r.Resolve("a"); err == nil && res.Version == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poller never picked up a@v2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := r.Stats(); s.Reloads != 1 {
		t.Fatalf("stats after poll reload: %+v", s)
	}
}

func TestLocate(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	writeArtifact(t, dir, "a", "v10", 2)
	writeArtifact(t, dir, "a", "v9", 3)
	loc, err := Locate(dir, "a")
	if err != nil || loc.Version != "v10" {
		t.Fatalf("Locate latest = %+v/%v, want v10", loc, err)
	}
	// A bare twin of v1 must lose to the explicit file, matching the
	// serving registry's resolution.
	src, _ := os.ReadFile(filepath.Join(dir, FileName("a", "v1")))
	if err := os.WriteFile(filepath.Join(dir, "a"+Ext), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if loc, err = Locate(dir, "a@v1"); err != nil || loc.Path != filepath.Join(dir, "a@v1.patdnn") {
		t.Fatalf("Locate twin v1 = %+v/%v, want the explicit file", loc, err)
	}
	os.Remove(filepath.Join(dir, "a"+Ext))
	if loc, err = Locate(dir, "a@v9"); err != nil || loc.Path != filepath.Join(dir, "a@v9.patdnn") {
		t.Fatalf("Locate exact = %+v/%v", loc, err)
	}
	if _, err = Locate(dir, "a@v2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Locate missing version: %v", err)
	}
	if _, err = Locate(dir, "zzz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Locate missing name: %v", err)
	}
}

func TestConcurrencyHammer(t *testing.T) {
	// Resolve + Scan + SetRoute + SetMemoryBudget under the race detector:
	// versions are rewritten, corrupted, and evicted while traffic flows.
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	writeArtifact(t, dir, "a", "v2", 2)
	writeArtifact(t, dir, "b", "v1", 3)
	var loads atomic.Int64
	r := openTest(t, dir, 25, fakeLoader(10, &loads))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			specs := []string{"a", "a@v1", "a@v2", "b"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := r.Resolve(specs[(i+g)%len(specs)])
				if err != nil && !errors.Is(err, ErrNotFound) && !strings.Contains(err.Error(), "load") {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			// Alternate rewriting a good v2 and corrupting it.
			if i%2 == 0 {
				writeArtifact(t, dir, "a", "v2", int64(100+i))
			} else {
				p := filepath.Join(dir, FileName("a", "v2"))
				os.WriteFile(p, []byte("garbage"), 0o644)
				bumpModTime(t, p, int64(200+i))
			}
			if err := r.Scan(); err != nil {
				t.Error(err)
				return
			}
			if i%5 == 0 {
				_ = r.SetRoute("a", map[string]int{"v1": 9, "v2": 1})
				r.SetMemoryBudget(int64(15 + i))
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Whatever interleaving happened, the books must balance: resident bytes
	// equal 10× loaded versions and the last good v1 still serves.
	s := r.Stats()
	if int64(s.Loaded)*10 != s.BytesInUse {
		t.Fatalf("byte accounting drifted: %+v", s)
	}
	if _, err := r.Resolve("a@v1"); err != nil {
		t.Fatal(err)
	}
}

func TestReadinessAndClose(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "a", "v1", 1)
	r := openTest(t, dir, 0, fakeLoader(10, nil))
	if rd := r.Readiness(); !rd.Ready || !rd.InitialScan || rd.Loading != 0 {
		t.Fatalf("readiness after Open = %+v", rd)
	}
	res, err := r.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !res.Artifact.(*fakeArt).released.Load() {
		t.Fatal("Close did not release resident artifacts")
	}
	if _, err := r.Resolve("a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Resolve after Close = %v", err)
	}
	if err := r.Scan(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after Close = %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	_ = fmt.Sprintf("%v", res) // keep res alive past the release assertions
}
