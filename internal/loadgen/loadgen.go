// Package loadgen is the serving engine's load-generation and SLO harness:
// open-loop (Poisson-arrival) and closed-loop request generators against a
// running patdnn-serve, per-class latency histograms with p50/p95/p99, and
// SLO assertions — the tooling that turns "real-time execution" (the paper's
// headline) from a claim into a continuously checked contract. The
// cmd/patdnn-loadgen binary is a thin flag front-end over Run/RunAll.
//
// Open loop models independent users: arrivals fire on a Poisson process at
// Rate regardless of how the server is doing, so queueing delay and shedding
// under overload are actually observable (a closed loop self-throttles and
// hides them — the coordinated-omission trap). Closed loop models a fixed
// worker fleet and is the right shape for throughput sweeps.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spec describes one generated request stream.
type Spec struct {
	Name string // case label; defaulted from class/mode when empty
	URL  string // serve base URL, e.g. http://localhost:8080
	// URLs lists multiple target base URLs — serve replicas hit directly, or
	// several front doors. Requests rotate round-robin across them, and the
	// result's PerTarget breakdown classifies outcomes per endpoint. When
	// empty, URL is the single target. Fleet runs use this to tell "replica 3
	// is shedding" apart from "the fleet is shedding".
	URLs    []string
	Network string // model name ("VGG", "resnet50", "vgg@v2", ...)
	Dataset string // dataset ("cifar10"); empty for registry models
	Class   string // scheduling class: "interactive" (default) or "batch"
	// Mode selects the arrival process: "open" (Poisson arrivals at Rate,
	// independent of completions) or "closed" (Clients workers, each sending
	// the next request when the previous completes). Default "closed".
	Mode string
	// Rate is the open-loop mean arrival rate in requests/second.
	Rate float64
	// Clients is the closed-loop concurrency, and the open-loop in-flight
	// cap (arrivals beyond it are dropped and counted as failures — the
	// client ran out of capacity, which is itself a measurement).
	// Defaults: 4 closed, 1024 open.
	Clients int
	// Requests stops the stream after this many arrivals (0 = unlimited,
	// Duration must bound the run instead).
	Requests int
	// Duration stops the stream after this wall-clock time (0 = unlimited,
	// Requests must bound the run instead).
	Duration time.Duration
	// Timeout is the per-request deadline, enforced client-side through the
	// request context and server-side via the request's timeout_ms field.
	Timeout time.Duration
	Seed    int64 // arrival-process RNG seed (default 1)
}

func (s Spec) withDefaults() (Spec, error) {
	if len(s.URLs) == 0 {
		if s.URL == "" {
			return s, errors.New("loadgen: missing URL")
		}
		s.URLs = []string{s.URL}
	}
	for i, u := range s.URLs {
		if u == "" {
			return s, fmt.Errorf("loadgen: empty target URL at index %d", i)
		}
		s.URLs[i] = strings.TrimSuffix(u, "/")
	}
	if s.Network == "" {
		return s, errors.New("loadgen: missing network")
	}
	if s.Mode == "" {
		s.Mode = "closed"
	}
	if s.Mode != "open" && s.Mode != "closed" {
		return s, fmt.Errorf("loadgen: unknown mode %q (want open or closed)", s.Mode)
	}
	if s.Mode == "open" && s.Rate <= 0 {
		return s, errors.New("loadgen: open-loop mode needs Rate > 0")
	}
	if s.Class == "" {
		s.Class = "interactive"
	}
	if s.Clients <= 0 {
		if s.Mode == "open" {
			s.Clients = 1024
		} else {
			s.Clients = 4
		}
	}
	if s.Requests <= 0 && s.Duration <= 0 {
		return s, errors.New("loadgen: need Requests or Duration to bound the run")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Name == "" {
		s.Name = s.Class + "_" + s.Mode
		if s.Mode == "open" {
			s.Name += fmt.Sprintf("_%grps", s.Rate)
		} else {
			s.Name += fmt.Sprintf("_%dclients", s.Clients)
		}
	}
	return s, nil
}

// Result is the measured outcome of one request stream.
type Result struct {
	Name       string  `json:"name"`
	Class      string  `json:"class"`
	Mode       string  `json:"mode"`
	OfferedRPS float64 `json:"offered_rps,omitempty"` // open-loop configured arrival rate
	Clients    int     `json:"clients"`
	// Outcome counts: Sent = OK + Shed + Expired + Failed.
	Sent    int `json:"sent"`
	OK      int `json:"ok"`
	Shed    int `json:"shed"`    // 429s: the server's admission control said no
	Expired int `json:"expired"` // deadline exceeded (client- or server-side)
	Failed  int `json:"failed"`  // transport errors, non-latency HTTP errors, in-flight overflow
	// ServedLevel is the optimization-level tag the server reported executing
	// ("packed", "packedq8", ...), from the first OK /infer response — so a
	// latency report is attributable to the kernel generation that produced
	// it, and a quantized-serving run is distinguishable from an FP32 one.
	ServedLevel string `json:"served_level,omitempty"`
	// FirstError preserves the first failure's message for diagnosis.
	FirstError    string        `json:"first_error,omitempty"`
	Elapsed       time.Duration `json:"-"`
	ElapsedMs     float64       `json:"elapsed_ms"`
	ThroughputRPS float64       `json:"throughput_rps"` // completed OK / elapsed
	// Latency distribution over OK requests only (sheds fail in microseconds
	// and would flatter every percentile they pollute).
	Hist   *Histogram `json:"-"`
	MeanMs float64    `json:"mean_ms"`
	P50Ms  float64    `json:"p50_ms"`
	P95Ms  float64    `json:"p95_ms"`
	P99Ms  float64    `json:"p99_ms"`
	// PerTarget breaks the outcome counts down by serving endpoint: the
	// replica named in the response's X-Patdnn-Replica header when present
	// (router passthrough — attribution by who actually served), else the
	// target URL the request was sent to. Only populated when it would say
	// more than the totals (multiple targets, or replica-attributed
	// responses).
	PerTarget map[string]Outcomes `json:"per_target,omitempty"`
}

// Outcomes is one target's share of a stream's outcome counts.
type Outcomes struct {
	Sent    int `json:"sent"`
	OK      int `json:"ok"`
	Shed    int `json:"shed,omitempty"`
	Expired int `json:"expired,omitempty"`
	Failed  int `json:"failed,omitempty"`
}

// CheckP99 returns an error when the stream's p99 latency violates the
// target, or when the stream completed nothing (an SLO met by serving zero
// requests is not met).
func (r *Result) CheckP99(target time.Duration) error {
	if r.OK == 0 {
		return fmt.Errorf("loadgen: %s: SLO unverifiable, 0 requests completed (%d sent, first error: %s)",
			r.Name, r.Sent, r.FirstError)
	}
	targetMs := float64(target) / 1e6
	if r.P99Ms > targetMs {
		return fmt.Errorf("loadgen: %s: p99 %.2fms exceeds SLO %.2fms (n=%d ok=%d shed=%d expired=%d)",
			r.Name, r.P99Ms, targetMs, r.Sent, r.OK, r.Shed, r.Expired)
	}
	return nil
}

// outcome classifies one request's fate.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
	outcomeExpired
	outcomeFailed
)

// recorder aggregates outcomes across generator workers.
type recorder struct {
	mu        sync.Mutex
	hist      *Histogram
	sent      int
	counts    [4]int
	perTarget map[string]*[4]int // serving endpoint → outcome counts
	level     string             // first served level an OK response reported
	firstErr  string
}

func (rec *recorder) record(target string, o outcome, latMs float64, level string, err error) {
	rec.mu.Lock()
	rec.sent++
	rec.counts[o]++
	if rec.level == "" && level != "" {
		rec.level = level
	}
	if rec.perTarget == nil {
		rec.perTarget = make(map[string]*[4]int)
	}
	tc := rec.perTarget[target]
	if tc == nil {
		tc = new([4]int)
		rec.perTarget[target] = tc
	}
	tc[o]++
	if o == outcomeOK {
		rec.hist.Add(latMs)
	}
	if err != nil && rec.firstErr == "" {
		rec.firstErr = err.Error()
	}
	rec.mu.Unlock()
}

// client is the shared HTTP transport: keep-alive sized for the generator's
// concurrency so connection churn doesn't pollute the latency measurement.
var client = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        2048,
	MaxIdleConnsPerHost: 2048,
	IdleConnTimeout:     30 * time.Second,
}}

// inferBody is the POST /infer request payload.
type inferBody struct {
	Network   string  `json:"network"`
	Dataset   string  `json:"dataset,omitempty"`
	Class     string  `json:"class,omitempty"`
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// replicaHeader matches serve.ReplicaHeader: the serving replica's identity,
// preserved across the router's proxy hop. (A string literal keeps loadgen
// free of an engine dependency.)
const replicaHeader = "X-Patdnn-Replica"

// doRequest issues one inference against target and classifies the outcome.
// Latency is measured around the full HTTP round trip — what a client
// experiences. servedBy names the endpoint the outcome is attributed to: the
// replica the response's header identifies when present, else the target.
// level is the optimization-level tag an OK response reported executing.
func doRequest(ctx context.Context, spec *Spec, target string, body []byte) (latMs float64, o outcome, servedBy, level string, err error) {
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		target+"/infer", bytes.NewReader(body))
	if err != nil {
		return 0, outcomeFailed, target, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		latMs = float64(time.Since(start).Nanoseconds()) / 1e6
		if errors.Is(err, context.DeadlineExceeded) {
			return latMs, outcomeExpired, target, "", nil
		}
		return latMs, outcomeFailed, target, "", err
	}
	if resp.StatusCode == http.StatusOK {
		// The response names the plan stack that served it; the rest of the
		// payload (probabilities) is drained without decoding.
		var served struct {
			Level string `json:"level"`
		}
		json.NewDecoder(resp.Body).Decode(&served)
		level = served.Level
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The clock stops at the body's last byte: a large reply's transfer is
	// part of what the client waits for.
	latMs = float64(time.Since(start).Nanoseconds()) / 1e6
	servedBy = resp.Header.Get(replicaHeader)
	if servedBy == "" {
		servedBy = target
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return latMs, outcomeOK, servedBy, level, nil
	case http.StatusTooManyRequests:
		return latMs, outcomeShed, servedBy, "", nil
	case 499, http.StatusGatewayTimeout:
		return latMs, outcomeExpired, servedBy, "", nil
	default:
		return latMs, outcomeFailed, servedBy, "", fmt.Errorf("loadgen: HTTP %d from /infer", resp.StatusCode)
	}
}

// Run executes one request stream to completion and returns its measurements.
// ctx cancellation stops the stream early (the partial result is returned).
func Run(ctx context.Context, spec Spec) (*Result, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(inferBody{
		Network: spec.Network, Dataset: spec.Dataset,
		Class: spec.Class, TimeoutMs: float64(spec.Timeout) / 1e6,
	})
	if err != nil {
		return nil, err
	}
	rec := &recorder{hist: NewHistogram()}
	if spec.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Duration)
		defer cancel()
	}
	start := time.Now()
	if spec.Mode == "open" {
		runOpen(ctx, &spec, body, rec)
	} else {
		runClosed(ctx, &spec, body, rec)
	}
	elapsed := time.Since(start)

	r := &Result{
		Name: spec.Name, Class: spec.Class, Mode: spec.Mode,
		Clients: spec.Clients,
		Sent:    rec.sent,
		OK:      rec.counts[outcomeOK],
		Shed:    rec.counts[outcomeShed],
		Expired: rec.counts[outcomeExpired],
		Failed:  rec.counts[outcomeFailed],
		Elapsed: elapsed, ElapsedMs: float64(elapsed.Nanoseconds()) / 1e6,
		ServedLevel: rec.level,
		FirstError:  rec.firstErr,
		Hist:        rec.hist,
	}
	if spec.Mode == "open" {
		r.OfferedRPS = spec.Rate
	}
	// Per-target attribution is only informative beyond the totals when the
	// stream had several targets or responses named their serving replica.
	if len(rec.perTarget) > 1 || len(spec.URLs) > 1 ||
		(len(rec.perTarget) == 1 && rec.perTarget[spec.URLs[0]] == nil) {
		r.PerTarget = make(map[string]Outcomes, len(rec.perTarget))
		for target, tc := range rec.perTarget {
			r.PerTarget[target] = Outcomes{
				Sent: tc[0] + tc[1] + tc[2] + tc[3],
				OK:   tc[outcomeOK], Shed: tc[outcomeShed],
				Expired: tc[outcomeExpired], Failed: tc[outcomeFailed],
			}
		}
	}
	if elapsed > 0 {
		r.ThroughputRPS = float64(r.OK) / elapsed.Seconds()
	}
	r.MeanMs = rec.hist.Mean()
	r.P50Ms = rec.hist.Quantile(0.50)
	r.P95Ms = rec.hist.Quantile(0.95)
	r.P99Ms = rec.hist.Quantile(0.99)
	return r, nil
}

// runClosed: Clients workers, each issuing the next request as soon as the
// previous one completes, until the request budget or deadline runs out.
func runClosed(ctx context.Context, spec *Spec, body []byte, rec *recorder) {
	var next int64
	var mu sync.Mutex
	take := func() bool {
		if ctx.Err() != nil {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if spec.Requests > 0 && int(next) >= spec.Requests {
			return false
		}
		next++
		return true
	}
	var rr atomic.Uint64 // round-robin cursor over spec.URLs
	var wg sync.WaitGroup
	for w := 0; w < spec.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for take() {
				target := spec.URLs[int((rr.Add(1)-1)%uint64(len(spec.URLs)))]
				lat, o, servedBy, level, err := doRequest(ctx, spec, target, body)
				if truncated(ctx, o) {
					return
				}
				rec.record(servedBy, o, lat, level, err)
			}
		}()
	}
	wg.Wait()
}

// truncated reports whether a non-OK outcome was caused by the run's own
// bounding context (Duration elapsed / caller cancelled) rather than by the
// request: such in-flight casualties are end-of-run truncation, not
// measurements, and recording them would inflate the expired/failed columns
// with events the server never saw.
func truncated(runCtx context.Context, o outcome) bool {
	return runCtx.Err() != nil && (o == outcomeExpired || o == outcomeFailed)
}

// runOpen: Poisson arrivals at spec.Rate — exponential inter-arrival gaps,
// each arrival fired in its own goroutine regardless of completions, bounded
// only by the in-flight cap (overflow counts as client-side failure, never
// silently absorbed into the arrival process).
func runOpen(ctx context.Context, spec *Spec, body []byte, rec *recorder) {
	rng := rand.New(rand.NewSource(spec.Seed))
	sem := make(chan struct{}, spec.Clients)
	var wg sync.WaitGroup
	sent := 0
	for spec.Requests <= 0 || sent < spec.Requests {
		gap := time.Duration(rng.ExpFloat64() / spec.Rate * float64(time.Second))
		select {
		case <-ctx.Done():
			goto done
		case <-time.After(gap):
		}
		sent++
		target := spec.URLs[(sent-1)%len(spec.URLs)]
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				lat, o, servedBy, level, err := doRequest(ctx, spec, target, body)
				if truncated(ctx, o) {
					return
				}
				rec.record(servedBy, o, lat, level, err)
			}()
		default:
			rec.record(target, outcomeFailed, 0, "", errors.New("loadgen: in-flight cap reached, arrival dropped client-side"))
		}
	}
done:
	wg.Wait()
}

// RunAll executes the specs concurrently (one stream each) and returns the
// results in spec order. This is how an SLO scenario drives foreground
// interactive traffic and saturating background batch traffic at once.
func RunAll(ctx context.Context, specs []Spec) ([]*Result, error) {
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(ctx, specs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
