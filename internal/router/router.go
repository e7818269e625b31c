package router

// The front-door proxy. POST /infer is the hot path: hash the request's
// (network, dataset) key onto the ring, forward to the primary replica, and
// — because /infer is idempotent (pure function of the request body) — retry
// exactly once on the ring sibling when the primary sheds (429), is closing
// (503), or the connection dies, provided enough of the request's own
// deadline budget remains to make the second attempt worth issuing.
// Everything else is control plane: fleet-wide /stats and /models
// aggregation, per-replica drain/undrain, and a rolling canary-weight
// rollout that drains each replica before shifting its registry routes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"patdnn/internal/serve"
)

// Config configures a Router.
type Config struct {
	// Replicas lists the backend base URLs ("http://host:port"). Required.
	Replicas []string
	// VNodes is the virtual nodes per replica on the hash ring (default 128).
	VNodes int
	// ProbeInterval is the active /readyz check period (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 250ms); a hung
	// /readyz counts as a failure when it fires.
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive-failure threshold that opens a
	// replica's breaker (default 3).
	EjectAfter int
	// RecoverAfter is how long an ejected replica cools off before a
	// half-open probe may close the breaker again (default 2s).
	RecoverAfter time.Duration
	// RetryBudget is the minimum remaining request deadline required to
	// attempt a spill retry (default 5ms): with less left than this, the
	// retry would expire in flight and only add load.
	RetryBudget time.Duration
	// Logf receives router events (ejections, recoveries, rollout steps).
	// Nil disables logging.
	Logf func(format string, args ...any)
	// Transport overrides the forwarding transport (tests inject faults
	// here); nil uses a keep-alive transport sized for fan-out.
	Transport http.RoundTripper
}

func (cfg Config) withDefaults() (Config, error) {
	if len(cfg.Replicas) == 0 {
		return cfg, errors.New("router: no replicas configured")
	}
	seen := map[string]bool{}
	for _, r := range cfg.Replicas {
		if r == "" {
			return cfg, errors.New("router: empty replica URL")
		}
		if seen[r] {
			return cfg, fmt.Errorf("router: duplicate replica %q", r)
		}
		seen[r] = true
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 128
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 250 * time.Millisecond
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 2 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 5 * time.Millisecond
	}
	return cfg, nil
}

// Router fronts a fleet of patdnn-serve replicas.
type Router struct {
	cfg         Config
	ring        *Ring
	replicas    map[string]*replica
	replicaList []*replica // ring-member order (sorted URLs)

	client      *http.Client // forwards; per-request deadlines via context
	probeClient *http.Client // probes; ProbeTimeout built in

	spills      atomic.Uint64 // spill retries attempted
	spillServed atomic.Uint64 // spill retries that produced a 200
	noEligible  atomic.Uint64 // requests refused: no routable replica
	proxied     atomic.Uint64 // total /infer requests through the front door
	closeOnce   sync.Once
	stop        chan struct{}
	wg          sync.WaitGroup
}

// New validates cfg, builds the ring, and starts the health prober.
func New(cfg Config) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        2048,
			MaxIdleConnsPerHost: 2048,
			IdleConnTimeout:     30 * time.Second,
		}
	}
	rt := &Router{
		cfg:         cfg,
		ring:        NewRing(cfg.Replicas, cfg.VNodes),
		replicas:    make(map[string]*replica, len(cfg.Replicas)),
		client:      &http.Client{Transport: transport},
		probeClient: &http.Client{Transport: transport, Timeout: cfg.ProbeTimeout},
		stop:        make(chan struct{}),
	}
	for _, url := range rt.ring.Members() {
		rp := &replica{url: url}
		rt.replicas[url] = rp
		rt.replicaList = append(rt.replicaList, rp)
	}
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the prober and closes the idle connections to the replicas.
// In-flight forwards finish on their own deadlines.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Handler returns the router's HTTP API.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", rt.handleInfer)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /models", rt.handleModels)
	mux.HandleFunc("GET /fleet", rt.handleFleet)
	mux.HandleFunc("POST /fleet/drain", rt.handleDrain(true))
	mux.HandleFunc("POST /fleet/undrain", rt.handleDrain(false))
	mux.HandleFunc("POST /fleet/rollout", rt.handleRollout)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The front door is ready when it can place traffic somewhere.
		n := 0
		for _, rp := range rt.replicaList {
			if rp.eligible() {
				n++
			}
		}
		status := http.StatusOK
		if n == 0 {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{"ready": n > 0, "eligible_replicas": n})
	})
	return mux
}

// handleInfer is the hot path: hash, forward, spill once if shed. The body is
// forwarded verbatim — the router never rewrites requests; it reads the hash
// key (model identity) and the deadline budget through serve's own parser.
func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	rt.proxied.Add(1)
	buf, err := serve.ReadBody(w, r)
	if err != nil {
		httpError(w, serve.InferStatus(err), fmt.Errorf("read request: %w", err))
		return
	}
	body := &sharedBody{buf: buf}
	body.refs.Store(1)
	defer body.release()
	key, err := serve.PeekRequest(buf.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if key.Network == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing \"network\""))
		return
	}

	// The ring key pins a model (and dataset variant) to one replica so its
	// plan cache and batch lanes stay warm; version tags ride inside
	// Network ("name@version") and hash with it.
	ringKey := key.Network + "\x00" + key.Dataset
	var deadline time.Time
	ctx := r.Context()
	if key.TimeoutMs > 0 {
		timeout := time.Duration(key.TimeoutMs * float64(time.Millisecond))
		deadline = time.Now().Add(timeout)
		var cancel func()
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	candidates := rt.eligibleCandidates(ringKey)
	if len(candidates) == 0 {
		rt.noEligible.Add(1)
		httpError(w, http.StatusServiceUnavailable, errors.New("router: no eligible replica"))
		return
	}

	// Attempt 1: the key's owner. Attempt 2 (at most): the ring sibling —
	// one hop bounds the worst case to two backend timeouts and avoids
	// retry storms under fleet-wide overload.
	for attempt, rp := range candidates {
		if attempt > 1 {
			break
		}
		spill := attempt > 0
		if spill {
			// Only spend a second attempt when the request still has budget
			// to finish it; otherwise return the shed verbatim.
			if !deadline.IsZero() && time.Until(deadline) < rt.cfg.RetryBudget {
				break
			}
			rt.spills.Add(1)
			rp.spilled.Add(1)
		} else {
			rp.routed.Add(1)
		}
		rp.inflight.Add(1)
		resp, err := rt.forward(ctx, rp.url, r, body)
		if err != nil {
			rp.inflight.Add(-1)
			// Transport-level death (refused, reset, proxy-side deadline):
			// passive health signal. The prober will confirm, but counting
			// it here ejects a dead replica within EjectAfter requests
			// instead of waiting out probe intervals.
			if ctx.Err() == nil {
				if rp.recordFailure(rt.cfg.EjectAfter, time.Now()) {
					rt.logf("router: replica %s ejected (forward error: %v)", rp.url, err)
				}
				continue
			}
			// The request's own deadline died mid-flight: not the replica's
			// fault, and the client's answer is 504 either way.
			httpError(w, http.StatusGatewayTimeout, fmt.Errorf("router: deadline exceeded forwarding to %s", rp.url))
			return
		}
		if rt.shouldSpill(resp, spill) {
			drainBody(resp)
			rp.inflight.Add(-1)
			if resp.StatusCode == http.StatusServiceUnavailable {
				// 503 = engine closing/unready: a health signal, unlike 429.
				if rp.recordFailure(rt.cfg.EjectAfter, time.Now()) {
					rt.logf("router: replica %s ejected (503 on /infer)", rp.url)
				}
			}
			continue
		}
		rp.recordSuccess()
		// Counted before the reply goes out, so a client that reads the
		// counters after its answer sees its own spill.
		if spill && resp.StatusCode == http.StatusOK {
			rt.spillServed.Add(1)
		}
		err = copyResponse(w, resp)
		rp.inflight.Add(-1)
		if err != nil {
			// A chunked reply cut off mid-body would otherwise reach the
			// client as a cleanly terminated short one: abort the connection
			// instead, as httputil.ReverseProxy does.
			panic(http.ErrAbortHandler)
		}
		return
	}
	// Both attempts shed or died. 429 tells the client the fleet is
	// saturated — the same contract a single replica's shed has.
	httpError(w, http.StatusTooManyRequests, errors.New("router: all candidate replicas shed or unreachable"))
}

// shouldSpill reports whether resp justifies burning the one spill hop:
// sheds (429) and closing engines (503) do; everything else — including
// hard errors — is the model's real answer and proxies through. A response
// on the spill attempt itself never spills again.
func (rt *Router) shouldSpill(resp *http.Response, alreadySpilled bool) bool {
	if alreadySpilled {
		return false
	}
	return resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable
}

// eligibleCandidates walks the key's ring order keeping routable replicas.
func (rt *Router) eligibleCandidates(ringKey string) []*replica {
	var out []*replica
	for _, url := range rt.ring.Candidates(ringKey) {
		if rp := rt.replicas[url]; rp != nil && rp.eligible() {
			out = append(out, rp)
		}
	}
	return out
}

// sharedBody is one request's pooled body buffer and the count of parties
// still reading it: the handler, and each body handed to the transport. The
// transport may go on reading a request body after Do has returned (a reply
// that overtook the upload, a cancelled context) and closes the body when it
// is done with it, so the buffer goes back to the pool on the last release,
// not when the handler returns.
type sharedBody struct {
	buf  *bytes.Buffer
	refs atomic.Int32
}

func (s *sharedBody) release() {
	if s.refs.Add(-1) == 0 {
		serve.PutBuffer(s.buf)
	}
}

// reader returns a fresh reader over the whole body that holds one reference
// until it is closed.
func (s *sharedBody) reader() io.ReadCloser {
	s.refs.Add(1)
	rd := &bodyReader{body: s}
	rd.Reset(s.buf.Bytes())
	return rd
}

type bodyReader struct {
	bytes.Reader
	body   *sharedBody
	closed atomic.Bool
}

func (b *bodyReader) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.body.release()
	}
	return nil
}

// forward proxies one /infer body to a replica.
func (rt *Router) forward(ctx context.Context, url string, orig *http.Request, body *sharedBody) (*http.Response, error) {
	rd := body.reader()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/infer", rd)
	if err != nil {
		rd.Close()
		return nil, err
	}
	// What NewRequest works out by itself for a *bytes.Reader: the length, and
	// a way to replay the body when the transport retries on a keep-alive
	// connection the replica had already closed.
	req.ContentLength = int64(body.buf.Len())
	req.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	if ct := orig.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.client.Do(req)
}

// copyResponse relays a backend response — status, content type, length, the
// replica-attribution header, body — to the client. Passing the length on
// keeps this hop from re-framing a large reply as chunks. The error is the
// body copy's: the reply reached the client cut short.
func copyResponse(w http.ResponseWriter, resp *http.Response) error {
	defer resp.Body.Close()
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if id := resp.Header.Get(serve.ReplicaHeader); id != "" {
		w.Header().Set(serve.ReplicaHeader, id)
	}
	w.WriteHeader(resp.StatusCode)
	_, err := io.Copy(w, resp.Body)
	return err
}

// maxDrain bounds what drainBody reads of a reply the router discards.
const maxDrain = 64 << 10

// drainBody discards a reply (a shed before a spill, a probe answer). A short
// body is read to the end so its connection goes back to the pool; past
// maxDrain the connection is closed instead, so a replica that streams an
// endless body cannot hold the request.
func drainBody(resp *http.Response) {
	// A failed drain costs only the connection's reuse.
	_, _ = io.CopyN(io.Discard, resp.Body, maxDrain)
	resp.Body.Close()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// --- fleet view -----------------------------------------------------------

// ReplicaView is one replica's row in GET /fleet.
type ReplicaView struct {
	URL            string `json:"url"`
	State          string `json:"state"`
	Drained        bool   `json:"drained"`
	Failures       int    `json:"consecutive_failures"`
	Inflight       int64  `json:"inflight"`
	Routed         uint64 `json:"routed"`
	Spilled        uint64 `json:"spilled"`
	Probes         uint64 `json:"probes"`
	HalfOpenProbes uint64 `json:"half_open_probes"`
	Ejections      uint64 `json:"ejections"`
	Recoveries     uint64 `json:"recoveries"`
}

// FleetView is the GET /fleet response.
type FleetView struct {
	Replicas    []ReplicaView `json:"replicas"`
	Proxied     uint64        `json:"proxied"`
	Spills      uint64        `json:"spills"`
	SpillServed uint64        `json:"spill_served"`
	NoEligible  uint64        `json:"no_eligible"`
}

// Fleet snapshots the router's per-replica routing state.
func (rt *Router) Fleet() FleetView {
	fv := FleetView{
		Proxied:     rt.proxied.Load(),
		Spills:      rt.spills.Load(),
		SpillServed: rt.spillServed.Load(),
		NoEligible:  rt.noEligible.Load(),
	}
	for _, rp := range rt.replicaList {
		state, drained, failures := rp.snapshot()
		fv.Replicas = append(fv.Replicas, ReplicaView{
			URL:            rp.url,
			State:          state.String(),
			Drained:        drained,
			Failures:       failures,
			Inflight:       rp.inflight.Load(),
			Routed:         rp.routed.Load(),
			Spilled:        rp.spilled.Load(),
			Probes:         rp.probes.Load(),
			HalfOpenProbes: rp.halfOpenProbes.Load(),
			Ejections:      rp.ejections.Load(),
			Recoveries:     rp.recoveries.Load(),
		})
	}
	return fv
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Fleet())
}

// --- fleet-wide stats & models -------------------------------------------

// ReplicaStats is one replica's slice of the fleet /stats aggregate.
type ReplicaStats struct {
	URL     string       `json:"url"`
	State   string       `json:"state"`
	Drained bool         `json:"drained,omitempty"`
	Error   string       `json:"error,omitempty"` // stats fetch failure
	Stats   *serve.Stats `json:"stats,omitempty"`
}

// FleetStats is the GET /stats response: per-replica snapshots plus
// fleet-level sums of the engine counters that are meaningful added up.
// Because serve.Stats.Admitted is monotonic across each replica's
// hot-reload swaps, the fleet totals here are monotonic too (modulo
// unreachable replicas, which are reported rather than silently zeroed).
type FleetStats struct {
	Replicas []ReplicaStats `json:"replicas"`
	// Aggregates over reachable replicas:
	Requests        uint64            `json:"requests"`
	Errors          uint64            `json:"errors"`
	Shed            uint64            `json:"shed"`
	DeadlineSheds   uint64            `json:"deadline_sheds"`
	ExpiredExecuted uint64            `json:"expired_executed"`
	Admitted        map[string]uint64 `json:"admitted,omitempty"`
	ShedByClass     map[string]uint64 `json:"shed_by_class,omitempty"`
	Unreachable     int               `json:"unreachable"`
	// Router-level counters:
	Proxied     uint64 `json:"proxied"`
	Spills      uint64 `json:"spills"`
	SpillServed uint64 `json:"spill_served"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	fs := FleetStats{
		Admitted:    map[string]uint64{},
		ShedByClass: map[string]uint64{},
		Proxied:     rt.proxied.Load(),
		Spills:      rt.spills.Load(),
		SpillServed: rt.spillServed.Load(),
	}
	rows := rt.fanout(r, "/stats")
	for i, rp := range rt.replicaList {
		state, drained, _ := rp.snapshot()
		row := ReplicaStats{URL: rp.url, State: state.String(), Drained: drained}
		if rows[i].err != nil {
			row.Error = rows[i].err.Error()
			fs.Unreachable++
		} else {
			var s serve.Stats
			if err := json.Unmarshal(rows[i].body, &s); err != nil {
				row.Error = fmt.Sprintf("decode stats: %v", err)
				fs.Unreachable++
			} else {
				row.Stats = &s
				fs.Requests += s.Requests
				fs.Errors += s.Errors
				fs.Shed += s.Shed
				fs.DeadlineSheds += s.DeadlineSheds
				fs.ExpiredExecuted += s.ExpiredExecuted
				for k, n := range s.Admitted {
					fs.Admitted[k] += n
				}
				for k, n := range s.ShedByClass {
					fs.ShedByClass[k] += n
				}
			}
		}
		fs.Replicas = append(fs.Replicas, row)
	}
	writeJSON(w, http.StatusOK, fs)
}

// FleetModel is one model as seen fleet-wide: the serve.ModelInfo plus
// which replicas report it.
type FleetModel struct {
	serve.ModelInfo
	Replicas []string `json:"replicas"`
}

func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	rows := rt.fanout(r, "/models")
	merged := map[string]*FleetModel{}
	var unreachable []string
	for i, rp := range rt.replicaList {
		if rows[i].err != nil {
			unreachable = append(unreachable, rp.url)
			continue
		}
		var models []serve.ModelInfo
		if err := json.Unmarshal(rows[i].body, &models); err != nil {
			unreachable = append(unreachable, rp.url)
			continue
		}
		for _, m := range models {
			// Identity excludes volatile per-replica fields (residency,
			// last-used): the fleet view is "what is servable where".
			key := m.Network + "\x00" + m.Dataset + "\x00" + m.Version + "\x00" + m.Level + "\x00" + m.Source
			fm := merged[key]
			if fm == nil {
				fm = &FleetModel{ModelInfo: m}
				merged[key] = fm
			}
			fm.Replicas = append(fm.Replicas, rp.url)
		}
	}
	out := make([]FleetModel, 0, len(merged))
	for _, fm := range merged {
		sort.Strings(fm.Replicas)
		out = append(out, *fm)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		return a.Version < b.Version
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"models": out, "unreachable": unreachable,
	})
}

// fanoutRow is one replica's raw response in a control-plane fan-out.
type fanoutRow struct {
	body []byte
	err  error
}

// fanout GETs path on every replica concurrently (2s cap per call) and
// returns rows in replicaList order. Ejected replicas are still asked —
// control-plane reads are cheap and an unreachable one reports as such.
func (rt *Router) fanout(r *http.Request, path string) []fanoutRow {
	rows := make([]fanoutRow, len(rt.replicaList))
	var wg sync.WaitGroup
	for i, rp := range rt.replicaList {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+path, nil)
			if err != nil {
				rows[i].err = err
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rows[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				rows[i].err = fmt.Errorf("%s%s: HTTP %d: %s", url, path, resp.StatusCode, bytes.TrimSpace(body))
				return
			}
			rows[i].body, rows[i].err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		}(i, rp.url)
	}
	wg.Wait()
	return rows
}

// --- drain / rollout ------------------------------------------------------

// maxControlBytes bounds an operator request body (/fleet/drain, /undrain,
// /rollout); a larger one is refused with 413, like an oversized /infer body.
const maxControlBytes = 1 << 20

// decodeControl decodes an operator request body into v, answering 413 or
// 400 itself when it cannot.
func decodeControl(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		httpError(w, serve.InferStatus(err), fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

type drainRequest struct {
	Replica string `json:"replica"`
}

func (rt *Router) handleDrain(drain bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req drainRequest
		if !decodeControl(w, r, &req) {
			return
		}
		rp := rt.replicas[req.Replica]
		if rp == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("router: unknown replica %q", req.Replica))
			return
		}
		rp.setDrained(drain)
		rt.logf("router: replica %s drained=%v", rp.url, drain)
		writeJSON(w, http.StatusOK, map[string]any{"replica": rp.url, "drained": drain})
	}
}

// rolloutRequest is the POST /fleet/rollout body: shift model's canary
// weights on every replica, one replica at a time, draining each first so
// in-flight requests finish on the old routing before the shift.
type rolloutRequest struct {
	Model   string         `json:"model"`
	Weights map[string]int `json:"weights"`
	// DrainTimeoutMs bounds the wait for a replica's in-flight requests to
	// finish (default 5000).
	DrainTimeoutMs float64 `json:"drain_timeout_ms"`
}

// rolloutStep is one replica's outcome in the rollout response.
type rolloutStep struct {
	Replica string `json:"replica"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	Skipped bool   `json:"skipped,omitempty"` // ejected replica: no route shift possible
}

func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) {
	var req rolloutRequest
	if !decodeControl(w, r, &req) {
		return
	}
	if req.Model == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing \"model\""))
		return
	}
	drainTimeout := 5 * time.Second
	if req.DrainTimeoutMs > 0 {
		drainTimeout = time.Duration(req.DrainTimeoutMs * float64(time.Millisecond))
	}
	routeBody, err := json.Marshal(map[string]any{"model": req.Model, "weights": req.Weights})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	steps := make([]rolloutStep, 0, len(rt.replicaList))
	allOK := true
	for _, rp := range rt.replicaList {
		step := rolloutStep{Replica: rp.url}
		if state, _, _ := rp.snapshot(); state == StateEjected {
			// An ejected replica can't take the route update; it re-joins
			// with stale weights, which the operator must re-apply. Failing
			// the whole rollout for one dead box would block the fleet.
			step.Skipped = true
			step.Error = "replica ejected; weights not applied"
			allOK = false
			steps = append(steps, step)
			continue
		}
		step.OK, step.Error = rt.rolloutOne(r, rp, routeBody, drainTimeout)
		if !step.OK {
			allOK = false
		}
		steps = append(steps, step)
	}
	status := http.StatusOK
	if !allOK {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, map[string]any{"ok": allOK, "model": req.Model, "steps": steps})
}

// rolloutOne performs drain → wait-idle → shift-route → undrain on one
// replica. The drain is always lifted, even on failure — leaving a replica
// silently out of rotation is worse than a failed weight shift.
func (rt *Router) rolloutOne(r *http.Request, rp *replica, routeBody []byte, drainTimeout time.Duration) (ok bool, errMsg string) {
	rp.setDrained(true)
	rt.logf("router: rollout draining %s", rp.url)
	defer func() {
		rp.setDrained(false)
		rt.logf("router: rollout undrained %s", rp.url)
	}()

	idleBy := time.Now().Add(drainTimeout)
	for rp.inflight.Load() > 0 {
		if time.Now().After(idleBy) {
			return false, fmt.Sprintf("drain timed out with %d in flight", rp.inflight.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rp.url+"/registry/route", bytes.NewReader(routeBody))
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Sprintf("route shift: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	drainBody(resp)
	rt.logf("router: rollout shifted weights on %s", rp.url)
	return true, ""
}
