package main

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The request spans of the traced phase. They are recorded by the benchmark's
// own wrappers around the calls into each layer (Engine.Infer, the replica
// http.Handler, the router http.Handler), kept in memory, and written out
// when the run ends. Spans inside the program are a later change.

// Span names, one per layer boundary. A request's spans nest in this order,
// so a span's ID and its parent's follow from the request ID alone and the
// wrappers share no state but the recorder.
const (
	spanCaller  = "caller.request" // one closed-loop iteration: build, call, read, check
	spanInfer   = "serve.infer"    // Engine.Infer, in-process workloads
	spanRouter  = "router.handler" // front-door handler, HTTP workloads
	spanReplica = "serve.handler"  // replica handler, HTTP workloads
)

// span is one timed interval of one request at one layer boundary.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"` // 0 for a root span
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder started
	EndNs   int64  `json:"end_ns"`
}

func (s span) durMs() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// spanID derives a span's ID from its request and its depth below the root
// (0 = caller); the parent is the same request one level up.
func spanID(request uint64, depth int) uint64 { return request<<2 | uint64(depth) }

// recorder collects spans from callers and server goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// add records one finished span of request at depth.
func (r *recorder) add(name string, request uint64, depth int, start, end time.Time) {
	s := span{ID: spanID(request, depth), Request: request, Name: name,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds()}
	if depth > 0 {
		s.Parent = spanID(request, depth-1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// The router forwards an /infer body verbatim and, of the request headers,
// only Content-Type. A traced request therefore carries its ID as a media-type
// parameter, "application/json; rid=17", which reaches the replica handler
// unchanged and which neither handler looks at.
const jsonType = "application/json"

func tracedContentType(request uint64) string {
	return jsonType + "; rid=" + strconv.FormatUint(request, 10)
}

func requestIDOf(r *http.Request) (uint64, bool) {
	_, param, ok := strings.Cut(r.Header.Get("Content-Type"), "rid=")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(strings.TrimSpace(param), 10, 64)
	return id, err == nil
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once), in nanoseconds.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			from, to := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// spanMeans returns the mean duration and mean self time in milliseconds of
// the spans of each name, and how many there were.
func spanMeans(spans []span) (dur, self map[string]float64, count map[string]int) {
	st := selfTimes(spans)
	dur, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, s := range spans {
		dur[s.Name] += s.durMs()
		self[s.Name] += float64(st[s.ID]) / 1e6
		count[s.Name]++
	}
	for name, n := range count {
		dur[name] /= float64(n)
		self[name] /= float64(n)
	}
	return dur, self, count
}
