package main

// One workload, end to end: compile the network to a .patdnn artifact, serve
// it through the shipped defaults, drive a closed loop against it, check every
// output, and fold the requests into the end-to-end metrics. The timed path
// uses only the patdnn facade, serve.NewHandler and router.New.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"patdnn"
	"patdnn/internal/router"
	"patdnn/internal/serve"
)

// workload is one traffic mix. The reasons for each are in README.md and, a
// sentence each, in BENCHMARK.json.
type workload struct {
	Name    string
	Network string // the paper network patdnn.Compile lowers
	Model   string // the name it is registered and requested under
	// Callers is how many closed-loop callers wait for replies at once.
	Callers int
	// HTTP sends tensor-in/tensor-out JSON over loopback through the router
	// and two replicas instead of calling Engine.Infer.
	HTTP bool
	// TailPct is the percentile loadgen.latency_tail_ms reports, fixed per
	// workload: the highest that keeps ten samples beyond it in a traced run's
	// untraced half.
	TailPct float64
	// Inputs is how many distinct input tensors the seed generates. Each costs
	// one dense reference pass per run (0.5 s for VGG-16, 6 s for ResNet-50,
	// two at a time on two cores), which the driver's time cap pays for on
	// every run in place of measuring, so the heavy networks get fewer.
	Inputs int
}

var workloads = []workload{
	{Name: "vgg_stream", Network: "VGG", Model: "vgg16", Callers: 1, TailPct: 95, Inputs: 4},
	{Name: "rnt_stream", Network: "RNT", Model: "resnet50", Callers: 1, TailPct: 90, Inputs: 2},
	{Name: "vgg_batch", Network: "VGG", Model: "vgg16", Callers: 8, TailPct: 95, Inputs: 4},
	{Name: "sr_http", Network: "SR", Model: "srgen", Callers: 1, HTTP: true, TailPct: 95, Inputs: 16},
}

const (
	dataset     = "cifar10"
	numReplicas = 2
	checkEvery  = 16 // sr_http decodes and checks every 16th response of a caller
	// Each half of set-up, the offline one (compile + write) and the serving
	// one (cold start to first checked reply), is repeated while the
	// repetitions so far took less than setupRepeatBudget together, up to
	// setupRepeatMax times, and reported as the median. The serving half runs
	// at least setupRepeatMin times. A set-up of milliseconds (the SR net) is
	// so taken fifteen times, one of seconds once.
	setupRepeatMin    = 3
	setupRepeatMax    = 15
	setupRepeatBudget = time.Second
	// Relative tolerance of the output check against the dense reference.
	checkTol = 1e-3
	// latency_floor_ms is the mean of the fastest floorShare of a run's right
	// replies, and of at least floorAtLeast of them (see floorMean).
	floorShare   = 0.02
	floorAtLeast = 3
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one run of one workload.
type runConfig struct {
	Workload workload
	Seed     int64
	Seconds  float64       // the measured time
	Warmup   time.Duration // discarded traffic before it
	Trace    bool          // half the measured time traced, then the layer ledger
	// CorruptReference perturbs one reference value, to prove the output
	// check is live: the run must then fail.
	CorruptReference bool
	OutDir           string
	Log              io.Writer
}

// result is everything one run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	MeasuredS float64                `json:"measured_s"` // untraced; a traced run measures as long again traced
	WarmupS   float64                `json:"warmup_s"`
	Callers   int                    `json:"callers"`
	TailPct   float64                `json:"tail_percentile"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Env       environment            `json:"env"`
}

// generateInputs makes the workload's input tensors from the seed alone.
func generateInputs(seed int64, n, size int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, size)
		for j := range inputs[i] {
			inputs[i][j] = float32(rng.NormFloat64())
		}
	}
	return inputs
}

// system is the program under test as one workload sees it: one engine, or
// two replicas behind the router on loopback.
type system struct {
	engines  []*patdnn.Engine
	router   *router.Router
	servers  []*http.Server
	serving  sync.WaitGroup
	client   *http.Client
	frontURL string
	// rec is the traced phase's recorder, nil while tracing is off.
	rec atomic.Pointer[recorder]
}

// startSystem brings the artifact in dir up the way patdnn-serve -models
// does: zero-value engine config, the registry attached, and for HTTP
// workloads the default router in front of numReplicas handlers.
func startSystem(w workload, dir string, callers int) (*system, error) {
	s := &system{}
	newEngine := func() (*patdnn.Engine, *patdnn.Registry, error) {
		eng := patdnn.NewEngine(patdnn.EngineConfig{})
		reg, err := eng.WithRegistry(patdnn.RegistryConfig{Dir: dir})
		if err != nil {
			eng.Close()
			return nil, nil, fmt.Errorf("attach registry: %w", err)
		}
		s.engines = append(s.engines, eng)
		return eng, reg, nil
	}
	if !w.HTTP {
		_, _, err := newEngine()
		return s, err
	}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		s.servers = append(s.servers, srv)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			srv.Serve(ln) // returns when close() closes the server
		}()
		return "http://" + ln.Addr().String(), nil
	}
	var urls []string
	for i := 0; i < numReplicas; i++ {
		eng, reg, err := newEngine()
		if err != nil {
			s.close()
			return nil, err
		}
		h := serve.NewHandler(eng, reg, "replica-"+strconv.Itoa(i))
		url, err := listen(s.spanHandler(h, spanReplica, 2))
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = rt
	if s.frontURL, err = listen(s.spanHandler(rt.Handler(), spanRouter, 1)); err != nil {
		s.close()
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConns: callers, MaxIdleConnsPerHost: callers}}
	return s, nil
}

// spanHandler wraps next so that a request carrying a request ID records a
// span while tracing is on. An untraced request pays one atomic load.
func (s *system) spanHandler(next http.Handler, name string, depth int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		id, ok := requestIDOf(r)
		start := time.Now()
		next.ServeHTTP(w, r)
		if ok {
			rec.add(name, id, depth, start, time.Now())
		}
	})
}

func (s *system) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	s.serving.Wait()
	if s.router != nil {
		s.router.Close()
	}
	for _, eng := range s.engines {
		eng.Close()
	}
}

// runner holds one run's fixed state.
type runner struct {
	cfg     runConfig
	w       workload
	callers int
	inputs  [][]float32
	refs    [][]float32
	bodies  [][]byte // the marshalled requests of an HTTP workload
	sys     *system
}

// sample is one completed request of a phase.
type sample struct {
	end   time.Time
	latMs float64
	ok    bool
}

// caller is one closed-loop caller's private state.
type caller struct {
	id      int
	n       int // requests issued so far, over all phases
	body    bytes.Buffer
	samples []sample
	fields  fieldSums
}

// fieldSums accumulates what the replies themselves report.
type fieldSums struct {
	n                         int // replies whose fields were read
	queueMs, runMs, batchSize float64
	replies                   int // replies whose sizes were counted
	reqBytes, respBytes       float64
}

func (f *fieldSums) add(o fieldSums) {
	f.n += o.n
	f.queueMs += o.queueMs
	f.runMs += o.runMs
	f.batchSize += o.batchSize
	f.replies += o.replies
	f.reqBytes += o.reqBytes
	f.respBytes += o.respBytes
}

// request sends input idx once and reports when the reply was complete and
// whether it was right. The check runs after that instant, so it is part of
// the caller's span but not of the request's latency.
func (r *runner) request(c *caller, idx int, rid uint64, rec *recorder) (done time.Time, ok bool) {
	var resp *patdnn.InferResponse
	if r.w.HTTP {
		req, err := http.NewRequest(http.MethodPost, r.sys.frontURL+"/infer", bytes.NewReader(r.bodies[idx]))
		if err != nil {
			return time.Now(), false
		}
		req.Header.Set("Content-Type", jsonType)
		if rec != nil {
			req.Header.Set("Content-Type", tracedContentType(rid))
		}
		hr, err := r.sys.client.Do(req)
		if err != nil {
			return time.Now(), false
		}
		c.body.Reset()
		_, err = c.body.ReadFrom(hr.Body)
		hr.Body.Close()
		done = time.Now()
		if err != nil || hr.StatusCode != http.StatusOK {
			return done, false
		}
		c.fields.replies++
		c.fields.reqBytes += float64(len(r.bodies[idx]))
		c.fields.respBytes += float64(c.body.Len())
		if c.n%checkEvery != 0 {
			return done, true
		}
		resp = new(patdnn.InferResponse)
		if err := json.Unmarshal(c.body.Bytes(), resp); err != nil {
			return done, false
		}
	} else {
		start := time.Now()
		var err error
		resp, err = r.sys.engines[0].Infer(context.Background(),
			patdnn.InferRequest{Network: r.w.Model, Input: r.inputs[idx]})
		done = time.Now()
		if rec != nil {
			rec.add(spanInfer, rid, 1, start, done)
		}
		if err != nil {
			return done, false
		}
	}
	c.fields.n++
	c.fields.queueMs += resp.QueueMs
	c.fields.runMs += resp.RunMs
	c.fields.batchSize += float64(resp.BatchSize)
	return done, checkOutput(resp, r.refs[idx]) == nil
}

// checkOutput compares a reply with the dense reference: every element within
// checkTol of it, relative to the reference's largest magnitude (at least 1),
// and for a classifier the same arg-max.
func checkOutput(resp *patdnn.InferResponse, ref []float32) error {
	if len(resp.Output) != len(ref) {
		return fmt.Errorf("output has %d values, reference %d", len(resp.Output), len(ref))
	}
	scale, refMax := 1.0, 0
	for i, v := range ref {
		scale = math.Max(scale, math.Abs(float64(v)))
		if v > ref[refMax] {
			refMax = i
		}
	}
	for i, v := range resp.Output {
		if d := math.Abs(float64(v) - float64(ref[i])); !(d <= checkTol*scale) {
			return fmt.Errorf("output[%d] = %g, reference %g", i, v, ref[i])
		}
	}
	if resp.Shape[1] == 1 && resp.Shape[2] == 1 && resp.ArgMax != refMax {
		return fmt.Errorf("argmax %d, reference %d", resp.ArgMax, refMax)
	}
	return nil
}

// drive is one caller's closed loop: the next request goes out only when the
// previous reply is in, until end.
func (r *runner) drive(c *caller, end time.Time, rec *recorder) {
	for {
		start := time.Now()
		if !start.Before(end) {
			return
		}
		// Callers start on different inputs and step one further each
		// checkEvery requests, so the replies sr_http checks walk through
		// every input instead of landing on the same one each time.
		idx := (c.id*5 + c.n + c.n/checkEvery) % len(r.inputs)
		rid := uint64(c.n)*uint64(r.callers) + uint64(c.id) + 1
		done, ok := r.request(c, idx, rid, rec)
		if rec != nil {
			rec.add(spanCaller, rid, 0, start, time.Now())
		}
		c.samples = append(c.samples, sample{end: done, latMs: float64(done.Sub(start).Nanoseconds()) / 1e6, ok: ok})
		c.n++
	}
}

// usage is the process's resource use at one instant.
type usage struct {
	at         time.Time
	cpuMs      float64 // user + system CPU of the whole process, generator included
	allocBytes float64 // cumulative heap allocation
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		at:         time.Now(),
		cpuMs:      float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6,
		allocBytes: float64(s[0].Value.Uint64()),
	}
}

// phaseResult is one phase's raw material.
type phaseResult struct {
	samples     []sample
	first, last usage // before the first request went out, after the last reply came in
	fields      fieldSums
	spans       []span
}

// runPhase drives all callers for dur. No request is in flight at either
// end, so the resource use between the two readings belongs to the phase's
// requests and to nothing else.
func (r *runner) runPhase(callers []*caller, dur time.Duration, traced bool) phaseResult {
	var rec *recorder
	if traced {
		rec = newRecorder()
		r.sys.rec.Store(rec)
		defer r.sys.rec.Store(nil)
	}
	for _, c := range callers {
		c.samples, c.fields = c.samples[:0], fieldSums{}
	}
	res := phaseResult{first: readUsage()}
	end := res.first.at.Add(dur)
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			r.drive(c, end, rec)
		}(c)
	}
	wg.Wait()
	res.last = readUsage()
	for _, c := range callers {
		res.samples = append(res.samples, c.samples...)
		res.fields.add(c.fields)
	}
	if rec != nil {
		res.spans = rec.snapshot()
	}
	return res
}

// okLatencies returns the latencies of the phase's right replies.
func (p phaseResult) okLatencies() []float64 {
	var lat []float64
	for _, s := range p.samples {
		if s.ok {
			lat = append(lat, s.latMs)
		}
	}
	return lat
}

// phaseStats is a phase folded into numbers. The floor is what the driver
// gates on; the four below it describe the whole phase, follow the neighbours
// on a shared machine, and are reported beside it ungated.
type phaseStats struct {
	attempted, ok int
	floorMs       float64 // mean latency of the fastest floorShare of the right replies
	floorSpread   float64 // the floors of the phase's two halves, apart, as a share of floorMs
	p50Ms, tailMs float64
	rps           float64 // right replies per second of the phase
	cpuMsPerReq   float64 // process user+sys CPU, generator included
	allocKBPerReq float64
}

func summarize(p phaseResult, tailPct float64) phaseStats {
	lat := p.okLatencies()
	st := phaseStats{attempted: len(p.samples), ok: len(lat)}
	if st.ok == 0 {
		return st
	}
	st.floorMs = floorMean(lat, floorShare)
	mid := p.first.at.Add(p.last.at.Sub(p.first.at) / 2)
	var early, late []float64
	for _, s := range p.samples {
		switch {
		case !s.ok:
		case s.end.Before(mid):
			early = append(early, s.latMs)
		default:
			late = append(late, s.latMs)
		}
	}
	if len(early) > 0 && len(late) > 0 {
		st.floorSpread = math.Abs(floorMean(early, floorShare)-floorMean(late, floorShare)) / st.floorMs
	}
	st.p50Ms, st.tailMs = percentile(lat, 50), percentile(lat, tailPct)
	n := float64(st.ok)
	st.rps = n / p.last.at.Sub(p.first.at).Seconds()
	st.cpuMsPerReq = (p.last.cpuMs - p.first.cpuMs) / n
	st.allocKBPerReq = (p.last.allocBytes - p.first.allocBytes) / 1024 / n
	return st
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// setupTimes is what set-up cost, each the median over its repetitions.
type setupTimes struct {
	compileS, writeS, loadS float64
	offlineReps, loadReps   int
}

// buildArtifact is the offline half of set-up, patdnn-compile's work: lower
// the network at the paper's operating point and encode the graph artifact.
func buildArtifact(w workload) (artifact []byte, inputSize int, st setupTimes, err error) {
	var compile, write []float64
	for start := time.Now(); len(compile) == 0 || (len(compile) < setupRepeatMax && time.Since(start) < setupRepeatBudget); {
		t0 := time.Now()
		c, err := patdnn.Compile(w.Network, dataset, 8, 3.6)
		if err != nil {
			return nil, 0, st, fmt.Errorf("compile %s: %w", w.Network, err)
		}
		t1 := time.Now()
		var buf bytes.Buffer
		if err := c.WriteModelGraph(&buf); err != nil {
			return nil, 0, st, fmt.Errorf("write %s artifact: %w", w.Network, err)
		}
		compile = append(compile, t1.Sub(t0).Seconds())
		write = append(write, time.Since(t1).Seconds())
		artifact, inputSize = buf.Bytes(), c.Model.InC*c.Model.InH*c.Model.InW
	}
	st = setupTimes{compileS: median(compile), writeS: median(write), offlineReps: len(compile)}
	return artifact, inputSize, st, nil
}

// run executes one workload and returns its result. A wrong output is
// reported in the result (Correct false), not as an error.
func run(cfg runConfig) (*result, error) {
	w := cfg.Workload
	nproc := runtime.NumCPU()
	r := &runner{cfg: cfg, w: w, callers: w.Callers}
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.Log, format+"\n", args...) }

	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.OutDir, "models-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	artifact, inputSize, st, err := buildArtifact(w)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, w.Model+"@v1.patdnn"), artifact, 0o644); err != nil {
		return nil, err
	}

	r.inputs = generateInputs(cfg.Seed, w.Inputs, inputSize)
	runtime.GC() // the reference pass, like each cold start below, begins from a collected heap
	refStart := time.Now()
	if r.refs, err = referenceOutputs(w.Model, artifact, r.inputs, nproc); err != nil {
		return nil, err
	}
	referenceS := time.Since(refStart).Seconds()
	if cfg.CorruptReference {
		// The last input: the set-up probes below use the first, and must
		// still pass for the run to reach its timed phase.
		r.refs[w.Inputs-1][0] += 1
	}
	if w.HTTP {
		for _, in := range r.inputs {
			body, err := json.Marshal(serve.Request{Network: w.Model, Input: in})
			if err != nil {
				return nil, err
			}
			r.bodies = append(r.bodies, body)
		}
	}

	// The serving half of set-up, patdnn-serve's work, from a cold start to
	// the first checked reply; the last system started stays up.
	callers := make([]*caller, r.callers)
	for i := range callers {
		callers[i] = &caller{id: i}
	}
	probe := &caller{} // n stays 0, so even sr_http decodes and checks its replies
	firstOK := true
	var load []float64
	for start := time.Now(); len(load) < setupRepeatMin || (len(load) < setupRepeatMax && time.Since(start) < setupRepeatBudget); {
		if r.sys != nil {
			r.sys.close()
			r.sys = nil
		}
		// Each cold start begins from a collected heap. What the compile, the
		// reference pass and the previous start left behind is this process's
		// garbage, not the program's footprint, and whether the collector has
		// got to it yet would otherwise decide peak_rss_mb.
		runtime.GC()
		t0 := time.Now()
		if r.sys, err = startSystem(w, dir, r.callers); err != nil {
			return nil, err
		}
		_, ok := r.request(probe, 0, 0, nil)
		load = append(load, time.Since(t0).Seconds())
		firstOK = firstOK && ok
	}
	defer r.sys.close()
	if !firstOK {
		return nil, errors.New("the first inference after set-up failed or was wrong")
	}
	st.loadS, st.loadReps = median(load), len(load)

	e2e := newMetricSet(endToEndSpecs)
	e2e.set("setup_s", st.compileS+st.writeS+st.loadS, st.loadReps)
	e2e.set("artifact_bytes", float64(len(artifact)), 1)
	for _, eng := range r.sys.engines {
		for _, mi := range eng.Models() {
			if mi.Loaded && mi.MemoryBytes > 0 {
				e2e.set("plan_bytes", float64(mi.MemoryBytes), 1)
			}
		}
	}
	measured := time.Duration(cfg.Seconds * float64(time.Second))
	shape := ""
	if cfg.Trace {
		measured /= 2
		shape = ", then as long again traced"
	}
	logf("# %s: seed %d, %d caller(s), warm-up %.1fs, %.1fs measured%s", w.Name, cfg.Seed, r.callers,
		cfg.Warmup.Seconds(), measured.Seconds(), shape)
	logf("# set-up: compile %.3fs + write %.3fs (x%d) + serve start to first checked reply %.3fs (x%d)",
		st.compileS, st.writeS, st.offlineReps, st.loadS, st.loadReps)
	logf("# dense reference for %d inputs took %.1fs, outside set-up", len(r.inputs), referenceS)

	// Collect what set-up left behind before the warm-up. A collection empties
	// the program's buffer pools, and where the last one of set-up fell decided
	// whether the measured phase paid for refilling them: alloc_kb_per_req of
	// vgg_batch read 13.7 or 17.9 KB. From here the three VGG and ResNet
	// phases allocate less than the collected heap allows before its next
	// collection, so they measure the steady state.
	runtime.GC()
	r.runPhase(callers, cfg.Warmup, false)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	timed := r.runPhase(callers, measured, false)
	runtime.ReadMemStats(&after)
	plain := summarize(timed, w.TailPct)
	e2e.put("latency_floor_ms", metricValue{Value: plain.floorMs, Spread: plain.floorSpread, Samples: plain.ok})
	share := 0.0
	if plain.attempted > 0 {
		share = float64(plain.ok) / float64(plain.attempted)
	}
	e2e.set("ok_share", share, plain.attempted)
	e2e.set("alloc_kb_per_req", plain.allocKBPerReq, plain.ok)
	logf("# whole run, not gated: p50 %.4g ms, p%g %.4g ms, %.4g req/s, cpu %.4g ms/req (n=%d); on a shared machine these follow the neighbours",
		plain.p50Ms, w.TailPct, plain.tailMs, plain.rps, plain.cpuMsPerReq, plain.ok)

	res := &result{
		Workload: w.Name, Seed: cfg.Seed, MeasuredS: measured.Seconds(), WarmupS: cfg.Warmup.Seconds(),
		Callers: r.callers, TailPct: w.TailPct, Env: readEnvironment(),
	}
	attempted, ok := plain.attempted, plain.ok
	if cfg.Trace {
		traced := r.runPhase(callers, measured, true)
		withTrace := summarize(traced, w.TailPct)
		attempted, ok = attempted+withTrace.attempted, ok+withTrace.ok
		layers, err := r.layerMetrics(st, artifact, plain, withTrace, traced, &before, &after)
		if err != nil {
			return nil, err
		}
		res.PerLayer = layers.values
	}
	e2e.set("peak_rss_mb", peakRSSMB(), 1)
	if miss := e2e.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("no value for %s", strings.Join(miss, ", "))
	}
	res.EndToEnd = e2e.values
	res.Attempted, res.Failed = attempted, attempted-ok
	res.Correct = res.Failed == 0 && attempted > 0
	return res, nil
}

// layerMetrics assembles the per-layer metrics of a traced run: the request
// spans and reply fields of the traced phase, the program's own counters, the
// set-up steps, and the ledger from layers.go.
func (r *runner) layerMetrics(st setupTimes, artifact []byte, plain, withTrace phaseStats, traced phaseResult, before, after *runtime.MemStats) (*metricSet, error) {
	out := newMetricSet(perLayerSpecs)
	nodes, err := takeLedger(r.w.Model, artifact, r.cfg.Seed, runtime.NumCPU(), out)
	if err != nil {
		return nil, err
	}

	dur, self, count := spanMeans(traced.spans)
	f := traced.fields
	perReply := func(sum float64) float64 {
		if f.n == 0 {
			return 0
		}
		return sum / float64(f.n)
	}
	queue, runMs := perReply(f.queueMs), perReply(f.runMs)
	var infer, decode, encode, reqBytes, respBytes float64
	codecReps := 0
	if r.w.HTTP {
		// encoding/json on the wire types, timed here: the handler's decode
		// and encode cannot be told apart from outside it.
		var req serve.Request
		decode, codecReps = timeMedian(20*time.Millisecond, func() { json.Unmarshal(r.bodies[0], &req) })
		resp := serve.Response{Network: r.w.Model, Shape: [3]int{1, 1, len(r.refs[0])}, Output: r.refs[0]}
		encode, _ = timeMedian(20*time.Millisecond, func() { json.NewEncoder(io.Discard).Encode(&resp) })
		infer = dur[spanReplica] - decode - encode
		if f.replies > 0 {
			reqBytes, respBytes = f.reqBytes/float64(f.replies), f.respBytes/float64(f.replies)
		}
	} else {
		infer = dur[spanInfer]
	}
	out.set("serve.infer_ms", infer, max(count[spanInfer], count[spanReplica]))
	out.set("serve.queue_ms", queue, f.n)
	out.set("serve.run_ms", runMs, f.n)
	out.set("serve.batch_size", perReply(f.batchSize), f.n)
	out.set("serve.overhead_ms", infer-queue-runMs, f.n)
	out.set("serve.handler_ms", dur[spanReplica], count[spanReplica])
	out.set("serve.decode_ms", decode, codecReps)
	out.set("serve.encode_ms", encode, codecReps)
	out.set("serve.req_bytes", reqBytes, f.replies)
	out.set("serve.resp_bytes", respBytes, f.replies)

	var stats patdnn.EngineStats
	for _, eng := range r.sys.engines {
		s := eng.Stats()
		stats.Shed += s.Shed
		stats.DeadlineSheds += s.DeadlineSheds
		stats.Errors += s.Errors
		// Engine.PlanCompiles counts generator-path compiles only; an artifact
		// compiles when the registry loads it.
		stats.PlanCompiles += s.PlanCompiles + s.Registry.Loads + s.Registry.LazyReloads
		stats.Requests += s.Requests
	}
	n := int(stats.Requests)
	out.set("serve.shed", float64(stats.Shed), n)
	out.set("serve.deadline_sheds", float64(stats.DeadlineSheds), n)
	out.set("serve.errors", float64(stats.Errors), n)
	out.set("serve.plan_compiles", float64(stats.PlanCompiles), n)

	var spills, noEligible, ownerShare float64
	proxied := 0
	if r.sys.router != nil {
		fv := r.sys.router.Fleet()
		proxied = int(fv.Proxied)
		spills, noEligible = float64(fv.Spills), float64(fv.NoEligible)
		if fv.Proxied > 0 {
			// Every proxied request goes to its ring owner first; the spilled
			// and the refused are the ones the owner did not serve.
			ownerShare = 1 - (spills+noEligible)/float64(fv.Proxied)
		}
	}
	out.set("router.hop_ms", self[spanRouter], count[spanRouter])
	out.set("router.spills", spills, proxied)
	out.set("router.no_eligible", noEligible, proxied)
	out.set("router.owner_share", ownerShare, proxied)

	out.set("patdnn.compile_s", st.compileS, st.offlineReps)
	out.set("modelfile.write_s", st.writeS, st.offlineReps)
	out.set("registry.load_s", st.loadS, st.loadReps)

	// The untraced phase as a whole: what a caller saw, neighbours included.
	out.set("loadgen.latency_p50_ms", plain.p50Ms, plain.ok)
	out.set("loadgen.latency_tail_ms", plain.tailMs, plain.ok)
	out.set("loadgen.throughput_rps", plain.rps, plain.ok)
	out.set("loadgen.cpu_ms_per_req", plain.cpuMsPerReq, plain.ok)
	out.set("loadgen.client_ms", self[spanCaller], count[spanCaller])
	out.set("go.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	out.set("go.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	// Floor against floor: the two phases run one after the other, and their
	// medians differ by whatever the neighbours did in between.
	overhead := 0.0
	if plain.floorMs > 0 {
		overhead = withTrace.floorMs/plain.floorMs - 1
	}
	out.set("trace.overhead_share", overhead, withTrace.ok)
	if miss := out.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("no value for %s", strings.Join(miss, ", "))
	}

	sort.Slice(traced.spans, func(i, j int) bool { return traced.spans[i].StartNs < traced.spans[j].StartNs })
	return out, writeJSON(filepath.Join(r.cfg.OutDir, "trace_"+r.w.Name+".json"), traceFile{
		Workload: r.w.Name,
		Note: "node times are medians of repeated calls into each node's public executor, one worker, batch 1; " +
			"computed_bytes are computed from tensor sizes, not measured",
		Nodes: nodes,
		Spans: traced.spans,
	})
}

// traceFile is what a traced run leaves in out/trace_<workload>.json.
type traceFile struct {
	Workload string    `json:"workload"`
	Note     string    `json:"note"`
	Nodes    []nodeRow `json:"nodes"`
	Spans    []span    `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
