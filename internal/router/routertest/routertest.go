// Package routertest is the in-process fleet harness behind the router's
// fault-injection and fleet-SLO tests: it stands up K *real* patdnn-serve
// replicas — full engines with compiled plans, class lanes, and optional
// shared-directory model registries — on ephemeral localhost ports, each
// wrapped in a scriptable fault gate (hang, TCP reset, 503, slow replies,
// slow /readyz) and an optional capacity gate.
//
// The capacity gate (MaxInflight + ServiceDelay) exists because scaling
// tests must be machine-independent: on a one-core CI runner, K in-process
// engines cannot exhibit CPU-parallel speedup, so "4 replicas ≈ 4× one
// replica" would silently depend on the host. Gating each replica to a
// deterministic service rate (MaxInflight slots × ServiceDelay per request)
// makes per-replica capacity a constant, so fleet throughput measures the
// one thing actually under test — whether the router spreads, spills, and
// fails over correctly — not how many cores the host happens to have.
package routertest

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/registry"
	"patdnn/internal/serve"
)

// Fault is a scriptable failure mode injected in front of a replica's real
// serve handler.
type Fault int32

const (
	// FaultNone serves normally.
	FaultNone Fault = iota
	// FaultHang holds every request open until the client (or the router's
	// deadline) gives up — the stuck-process failure mode.
	FaultHang
	// FaultReset kills every connection with a TCP RST (SO_LINGER 0) — the
	// crashed-process / dropped-conntrack failure mode.
	FaultReset
	// Fault503 answers everything with 503 — the "engine closing" mode.
	Fault503
	// FaultSlowReply delays every response by the fleet's SlowDelay — the
	// degraded-but-alive mode (slow enough to trip probe timeouts).
	FaultSlowReply
	// FaultSlowReadyz delays only /readyz by SlowDelay: inference still
	// works, but health probes time out — the partial-failure mode that
	// distinguishes probe-driven ejection from data-path failures.
	FaultSlowReadyz
)

// Options configures a fleet.
type Options struct {
	// Replicas is the fleet size (default 3).
	Replicas int
	// Serve is the base engine config for every replica (zero value gets
	// Workers: 2).
	Serve serve.Config
	// WithRegistry attaches a shared models directory (one artifact store,
	// one registry per replica over it — the multi-reader deployment
	// shape). Required for RegisterTiny and rollout tests.
	WithRegistry bool
	// MaxInflight caps concurrent /infer requests inside each replica's
	// capacity gate (0 = no gate).
	MaxInflight int
	// ServiceDelay is the artificial minimum service time per gated /infer
	// (0 = none). With MaxInflight it fixes a replica's max throughput at
	// MaxInflight/ServiceDelay requests per second.
	ServiceDelay time.Duration
	// SlowDelay is the delay the Slow* faults inject (default 500ms).
	SlowDelay time.Duration
}

// Replica is one fleet member: a real serve engine behind a fault gate,
// listening on its own ephemeral port.
type Replica struct {
	Name     string
	Engine   *serve.Engine
	Registry *registry.Registry // nil without Options.WithRegistry

	t            testing.TB
	addr         string // host:port, stable across Kill/Restart
	inner        http.Handler
	fault        atomic.Int32
	slowDelay    time.Duration
	served       atomic.Uint64
	sem          chan struct{}
	serviceDelay time.Duration

	srv atomic.Pointer[http.Server]
}

// URL returns the replica's base URL.
func (rp *Replica) URL() string { return "http://" + rp.addr }

// SetFault scripts the replica's failure mode; FaultNone heals it.
func (rp *Replica) SetFault(f Fault) { rp.fault.Store(int32(f)) }

// Served reports how many /infer requests passed the gates and reached the
// real engine handler — the "zero traffic to an ejected replica" assertions
// diff this counter.
func (rp *Replica) Served() uint64 { return rp.served.Load() }

// Kill hard-stops the replica: the listener closes and every open
// connection is torn down, so new dials get connection-refused — the
// process-death failure mode. The engine itself stays alive (its stats
// remain readable in-process).
func (rp *Replica) Kill() {
	if srv := rp.srv.Swap(nil); srv != nil {
		srv.Close()
	}
}

// Restart brings a killed replica back on its original address.
func (rp *Replica) Restart() {
	if rp.srv.Load() != nil {
		return
	}
	ln, err := net.Listen("tcp", rp.addr)
	if err != nil {
		rp.t.Fatalf("routertest: restart %s: %v", rp.Name, err)
	}
	rp.start(ln)
}

func (rp *Replica) start(ln net.Listener) {
	srv := &http.Server{Handler: rp}
	rp.srv.Store(srv)
	go srv.Serve(ln)
}

// ServeHTTP is the gate chain: fault gate, then capacity gate (on /infer),
// then the real serve handler.
func (rp *Replica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch Fault(rp.fault.Load()) {
	case FaultHang:
		<-r.Context().Done()
		return
	case FaultReset:
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("routertest: ResponseWriter is not a Hijacker")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0) // unsent-data discard => RST on close
		}
		conn.Close()
		return
	case Fault503:
		http.Error(w, `{"error":"routertest: injected 503"}`, http.StatusServiceUnavailable)
		return
	case FaultSlowReply:
		sleepOrDone(r, rp.slowDelay)
	case FaultSlowReadyz:
		if r.URL.Path == "/readyz" {
			sleepOrDone(r, rp.slowDelay)
		}
	}
	if r.URL.Path == "/infer" {
		if rp.sem != nil {
			select {
			case rp.sem <- struct{}{}:
				defer func() { <-rp.sem }()
			case <-r.Context().Done():
				// The caller's deadline died while queued at the gate; the
				// engine would answer 504 for the same reason.
				http.Error(w, `{"error":"routertest: deadline at capacity gate"}`, http.StatusGatewayTimeout)
				return
			}
			if rp.serviceDelay > 0 {
				sleepOrDone(r, rp.serviceDelay)
			}
		}
		rp.served.Add(1)
	}
	rp.inner.ServeHTTP(w, r)
}

func sleepOrDone(r *http.Request, d time.Duration) {
	select {
	case <-time.After(d):
	case <-r.Context().Done():
	}
}

// Fleet is K replicas plus the shared model store.
type Fleet struct {
	T         testing.TB
	Replicas  []*Replica
	ModelsDir string // shared artifact directory ("" without registries)
}

// NewFleet stands up the replicas (and their registries) and tears
// everything down in t.Cleanup.
func NewFleet(t testing.TB, opts Options) *Fleet {
	t.Helper()
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.Serve.Workers == 0 {
		opts.Serve.Workers = 2
	}
	if opts.SlowDelay <= 0 {
		opts.SlowDelay = 500 * time.Millisecond
	}
	f := &Fleet{T: t}
	if opts.WithRegistry {
		f.ModelsDir = t.TempDir()
	}
	for i := 0; i < opts.Replicas; i++ {
		rp := &Replica{
			Name:         fmt.Sprintf("replica-%d", i),
			t:            t,
			slowDelay:    opts.SlowDelay,
			serviceDelay: opts.ServiceDelay,
		}
		if opts.MaxInflight > 0 {
			rp.sem = make(chan struct{}, opts.MaxInflight)
		}
		rp.Engine = serve.New(opts.Serve)
		t.Cleanup(func() { rp.Engine.Close() })
		if opts.WithRegistry {
			reg, err := rp.Engine.WithRegistry(registry.Config{Dir: f.ModelsDir, Poll: -1})
			if err != nil {
				t.Fatalf("routertest: registry for %s: %v", rp.Name, err)
			}
			rp.Registry = reg
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("routertest: listen: %v", err)
		}
		rp.addr = ln.Addr().String()
		rp.inner = serve.NewHandler(rp.Engine, rp.Registry, rp.Name)
		rp.start(ln)
		t.Cleanup(rp.Kill)
		f.Replicas = append(f.Replicas, rp)
	}
	return f
}

// URLs returns every replica's base URL in fleet order.
func (f *Fleet) URLs() []string {
	urls := make([]string, len(f.Replicas))
	for i, rp := range f.Replicas {
		urls[i] = rp.URL()
	}
	return urls
}

// Replica returns the fleet member listening at url (as reported by URLs).
func (f *Fleet) Replica(url string) *Replica {
	for _, rp := range f.Replicas {
		if rp.URL() == url {
			return rp
		}
	}
	f.T.Fatalf("routertest: no replica at %s", url)
	return nil
}

// RegisterTiny writes a tiny two-conv artifact (version ver) into the
// shared store under each name and rescans every live replica's registry,
// so the names become servable fleet-wide. Registry-backed names (rather
// than the generator's fixed set) let tests pick names that hash wherever
// the ring needs them.
func (f *Fleet) RegisterTiny(ver string, names ...string) {
	f.T.Helper()
	if f.ModelsDir == "" {
		f.T.Fatal("routertest: RegisterTiny needs Options.WithRegistry")
	}
	for i, name := range names {
		WriteTinyArtifact(f.T, f.ModelsDir, name, ver, int64(1000+i))
	}
	for _, rp := range f.Replicas {
		if err := rp.Registry.Scan(); err != nil {
			f.T.Fatalf("routertest: scan %s: %v", rp.Name, err)
		}
	}
}

// TinyInput returns a deterministic input for the tiny artifact (and the
// generator's tiny test model): 4 channels of 12x12.
func TinyInput(seed int) []float32 {
	in := make([]float32, 4*12*12)
	for i := range in {
		in[i] = float32((i*31+seed*17)%13) / 13
	}
	return in
}

// WriteTinyArtifact writes a tiny two-conv .patdnn artifact (4x12x12 input →
// conv 4→8 → ReLU → pool 2 → conv 8→8 → ReLU, output 8x6x6) named name@ver
// into dir. Seed varies the weights, so two versions of one model genuinely
// differ.
func WriteTinyArtifact(t testing.TB, dir, name, ver string, seed int64) string {
	t.Helper()
	conv := func(name string, inC, hw int) *model.Layer {
		return &model.Layer{Name: name, Kind: model.Conv, InC: inC, OutC: 8, KH: 3, KW: 3,
			Stride: 1, Pad: 1, Groups: 1, InH: hw, InW: hw, OutH: hw, OutW: hw}
	}
	m := &model.Model{Name: "tiny-cnn", InC: 4, InH: 12, InW: 12, Layers: []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: 4, OutH: 12, OutW: 12},
		conv("c1", 4, 12),
		{Name: "relu1", Kind: model.ReLU, InC: 8, OutC: 8},
		{Name: "pool1", Kind: model.MaxPool, InC: 8, OutC: 8, KH: 2, KW: 2, Stride: 2,
			InH: 12, InW: 12, OutH: 6, OutW: 6},
		conv("c2", 8, 6),
		{Name: "relu2", Kind: model.ReLU, InC: 8, OutC: 8},
	}}
	rng := rand.New(rand.NewSource(seed))
	file := &modelfile.File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	for i, cname := range []string{"c1", "c2"} {
		c := pruned.Generate(m.Layer(cname), pattern.Canonical(8), 2, seed+int64(i), true)
		bias := make([]float32, c.OutC)
		for j := range bias {
			bias[j] = float32(rng.NormFloat64()) * 0.1
		}
		file.Layers = append(file.Layers, modelfile.Layer{Conv: c, Bias: bias})
	}
	path := filepath.Join(dir, registry.FileName(name, ver))
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelfile.Write(fh, file); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	mt := time.Unix(1700000000+seed, seed)
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	return path
}

// WaitReady polls every live replica's /readyz until it answers 200 or the
// deadline passes — tests call it after RegisterTiny plus a warming request
// set so measurements never include compile latency.
func (f *Fleet) WaitReady(timeout time.Duration) {
	f.T.Helper()
	deadline := time.Now().Add(timeout)
	for _, rp := range f.Replicas {
		for {
			resp, err := http.Get(rp.URL() + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				f.T.Fatalf("routertest: %s not ready after %v", rp.Name, timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
