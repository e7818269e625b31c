package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramQuantilesBoundedError(t *testing.T) {
	// Against an exact sorted-sample quantile, the log-bucketed histogram
	// must stay within one bucket's relative width (~9%) at every checked
	// quantile, across a heavy-tailed distribution.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var exact []float64
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.NormFloat64()*1.5) * 5 // lognormal ms, median 5ms
		h.Add(v)
		exact = append(exact, v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > histGrowth-1 {
			t.Fatalf("q%.3f: hist %.3fms vs exact %.3fms (rel err %.3f > bucket width)", q, got, want, rel)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Add(3.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 3.5 {
			t.Fatalf("single-sample q%g = %g, want the sample", q, got)
		}
	}
	h.Add(-1) // clamped to 0
	h.Add(1e12)
	if h.Quantile(1) <= 0 {
		t.Fatal("overflow bucket lost the max")
	}
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets %v, want 3 non-empty", bs)
	}
	var n uint64
	for _, b := range bs {
		n += b.Count
	}
	if n != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", n, h.Count())
	}

	h2 := NewHistogram()
	h2.Add(10)
	h2.Merge(h)
	if h2.Count() != 4 {
		t.Fatalf("merged count %d, want 4", h2.Count())
	}
}

// stubServe fakes patdnn-serve's /infer: per-class behavior is programmable
// so outcome classification and per-class measurement are testable without
// compiling a model.
func stubServe(t *testing.T, handler func(class string) (status int, delay time.Duration)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body inferBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("bad loadgen body: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		status, delay := handler(body.Class)
		if delay > 0 {
			time.Sleep(delay)
		}
		w.WriteHeader(status)
		w.Write([]byte(`{"argmax":0,"level":"packedq8"}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestClosedLoopCountsAndClassification(t *testing.T) {
	var n atomic.Int64
	ts := stubServe(t, func(class string) (int, time.Duration) {
		switch n.Add(1) % 4 {
		case 0:
			return http.StatusTooManyRequests, 0
		case 1:
			return http.StatusGatewayTimeout, 0
		case 2:
			return http.StatusInternalServerError, 0
		default:
			return http.StatusOK, time.Millisecond
		}
	})
	r, err := Run(context.Background(), Spec{
		URL: ts.URL, Network: "tiny", Dataset: "synthetic",
		Mode: "closed", Clients: 4, Requests: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent != 40 || r.OK+r.Shed+r.Expired+r.Failed != 40 {
		t.Fatalf("outcome counts don't partition: %+v", r)
	}
	if r.OK != 10 || r.Shed != 10 || r.Expired != 10 || r.Failed != 10 {
		t.Fatalf("classification off: %+v", r)
	}
	if r.FirstError == "" {
		t.Fatal("500s must surface an error message")
	}
	if int(r.Hist.Count()) != r.OK {
		t.Fatalf("histogram has %d samples, want OK=%d (sheds must not pollute latency)", r.Hist.Count(), r.OK)
	}
	if r.P99Ms < 0.5 || r.ThroughputRPS <= 0 {
		t.Fatalf("latency/throughput implausible: p99=%.3f rps=%.1f", r.P99Ms, r.ThroughputRPS)
	}
}

func TestClientSideTimeoutCountsExpired(t *testing.T) {
	ts := stubServe(t, func(string) (int, time.Duration) { return http.StatusOK, 200 * time.Millisecond })
	r, err := Run(context.Background(), Spec{
		URL: ts.URL, Network: "tiny", Mode: "closed", Clients: 2, Requests: 4,
		Timeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Expired != 4 || r.OK != 0 {
		t.Fatalf("want all 4 expired: %+v", r)
	}
	if err := r.CheckP99(time.Second); err == nil {
		t.Fatal("SLO over zero completed requests must not pass")
	}
}

func TestOpenLoopPoissonArrivals(t *testing.T) {
	ts := stubServe(t, func(string) (int, time.Duration) { return http.StatusOK, 0 })
	const rate, n = 2000.0, 200
	start := time.Now()
	r, err := Run(context.Background(), Spec{
		URL: ts.URL, Network: "tiny", Mode: "open", Rate: rate, Requests: n,
		Duration: 30 * time.Second, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	if r.Sent != n {
		t.Fatalf("sent %d, want %d", r.Sent, n)
	}
	// 200 arrivals at 2000/s ≈ 100ms expected; allow wide scheduler slack but
	// catch a broken arrival process (e.g. sleeping 1/rate seconds per loop
	// would take 100x longer, a zero gap would finish instantly on 0 elapsed).
	if elapsed > 5 {
		t.Fatalf("open loop took %.2fs for what should be ~0.1s of arrivals", elapsed)
	}
	if r.OK != n {
		t.Fatalf("ok %d, want %d: %+v", r.OK, n, r)
	}
}

func TestOpenLoopInFlightCapDropsNotBlocks(t *testing.T) {
	ts := stubServe(t, func(string) (int, time.Duration) { return http.StatusOK, 300 * time.Millisecond })
	r, err := Run(context.Background(), Spec{
		URL: ts.URL, Network: "tiny", Mode: "open", Rate: 1000, Requests: 50,
		Clients: 2, Duration: 10 * time.Second, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 50 arrivals in ~50ms against 300ms service and 2 in-flight slots: the
	// vast majority must be dropped client-side, not queued into a blocking
	// arrival process.
	if r.Failed < 40 {
		t.Fatalf("in-flight cap absorbed arrivals: %+v", r)
	}
	if r.Sent != 50 {
		t.Fatalf("sent %d, want 50", r.Sent)
	}
}

func TestRunAllAndReport(t *testing.T) {
	ts := stubServe(t, func(class string) (int, time.Duration) {
		if class == "batch" {
			return http.StatusTooManyRequests, 0
		}
		return http.StatusOK, time.Millisecond
	})
	results, err := RunAll(context.Background(), []Spec{
		{URL: ts.URL, Network: "tiny", Class: "interactive", Mode: "closed", Clients: 2, Requests: 20},
		{URL: ts.URL, Network: "tiny", Class: "batch", Mode: "closed", Clients: 2, Requests: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].OK != 20 || results[1].Shed != 20 {
		t.Fatalf("per-class streams mixed up: %+v / %+v", results[0], results[1])
	}
	if err := results[0].CheckP99(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := results[0].CheckP99(time.Nanosecond); err == nil {
		t.Fatal("violated SLO must error")
	}

	path := filepath.Join(t.TempDir(), "LOADGEN.json")
	if err := WriteReport(path, "tiny/synthetic", results); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || len(rep.Cases) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	c := rep.Cases[0]
	if c.Class != "interactive" || c.OK != 20 || c.ThroughputRPS <= 0 || len(c.Hist) == 0 {
		t.Fatalf("case 0: %+v", c)
	}
	// The report labels which kernel generation served the OK stream; a
	// stream with no OK responses has no level to attribute.
	if c.ServedLevel != "packedq8" {
		t.Fatalf("case 0 served_level %q, want packedq8", c.ServedLevel)
	}
	if rep.Cases[1].Shed != 20 || len(rep.Cases[1].Hist) != 0 {
		t.Fatalf("case 1: %+v", rep.Cases[1])
	}
	if rep.Cases[1].ServedLevel != "" {
		t.Fatalf("all-shed stream has served_level %q, want empty", rep.Cases[1].ServedLevel)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},                                  // no URL
		{URL: "x"},                          // no network
		{URL: "x", Network: "n"},            // unbounded
		{URL: "x", Network: "n", Mode: "o"}, // bad mode
		{URL: "x", Network: "n", Mode: "open", Requests: 1}, // open without rate
	}
	for i, s := range bad {
		if _, err := Run(context.Background(), s); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestMultiTargetRoundRobinPerTarget(t *testing.T) {
	a := stubServe(t, func(string) (int, time.Duration) { return http.StatusOK, 0 })
	b := stubServe(t, func(string) (int, time.Duration) { return http.StatusTooManyRequests, 0 })
	r, err := Run(context.Background(), Spec{
		URLs: []string{a.URL, b.URL}, Network: "tiny",
		Mode: "closed", Clients: 4, Requests: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent != 40 || r.OK != 20 || r.Shed != 20 {
		t.Fatalf("totals off: %+v", r)
	}
	// Round-robin over two targets splits an even budget exactly in half,
	// and outcomes attribute to the target that produced them.
	if len(r.PerTarget) != 2 {
		t.Fatalf("PerTarget has %d entries, want 2: %+v", len(r.PerTarget), r.PerTarget)
	}
	if o := r.PerTarget[a.URL]; o.Sent != 20 || o.OK != 20 || o.Shed != 0 {
		t.Fatalf("target a: %+v", o)
	}
	if o := r.PerTarget[b.URL]; o.Sent != 20 || o.Shed != 20 || o.OK != 0 {
		t.Fatalf("target b: %+v", o)
	}
}

func TestReplicaHeaderAttribution(t *testing.T) {
	// A router-fronted run has one target URL but many serving replicas: the
	// response header, not the URL, is the attribution key.
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n.Add(1)%2 == 0 {
			w.Header().Set("X-Patdnn-Replica", "replica-even")
		} else {
			w.Header().Set("X-Patdnn-Replica", "replica-odd")
		}
		w.Write([]byte(`{"argmax":0}`))
	}))
	t.Cleanup(ts.Close)
	r, err := Run(context.Background(), Spec{
		URL: ts.URL, Network: "tiny", Mode: "closed", Clients: 2, Requests: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 30 {
		t.Fatalf("totals off: %+v", r)
	}
	if len(r.PerTarget) != 2 {
		t.Fatalf("PerTarget has %d entries, want 2 replicas: %+v", len(r.PerTarget), r.PerTarget)
	}
	if got := r.PerTarget["replica-even"].OK + r.PerTarget["replica-odd"].OK; got != 30 {
		t.Fatalf("replica attribution lost requests: %+v", r.PerTarget)
	}
}

// TestLatencyIncludesTheBody: a reply whose headers arrive at once and whose
// body arrives 50 ms later takes at least 50 ms.
func TestLatencyIncludesTheBody(t *testing.T) {
	const bodyDelay = 50 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(bodyDelay)
		w.Write([]byte(`{"argmax":0,"level":"packed"}`))
	}))
	t.Cleanup(ts.Close)
	r, err := Run(context.Background(), Spec{
		URL: ts.URL, Network: "tiny", Mode: "closed", Clients: 1, Requests: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.OK != 2 {
		t.Fatalf("want 2 OK: %+v", r)
	}
	if fastest, minMs := r.Hist.Quantile(0), float64(bodyDelay.Milliseconds()); fastest < minMs {
		t.Fatalf("latency %.2f ms is under the %.0f ms the body took to arrive", fastest, minMs)
	}
}

func TestSingleTargetOmitsPerTarget(t *testing.T) {
	ts := stubServe(t, func(string) (int, time.Duration) { return http.StatusOK, 0 })
	r, err := Run(context.Background(), Spec{
		URL: ts.URL, Network: "tiny", Mode: "closed", Clients: 2, Requests: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.PerTarget != nil {
		t.Fatalf("plain single-target run should omit PerTarget, got %+v", r.PerTarget)
	}
}
