package serve

// HTTP front-end: the routing table cmd/patdnn-serve mounts, factored into
// the package so other processes can stand up a real serving replica — the
// router's in-process fleet harness (internal/router/routertest) spawns K of
// these on ephemeral ports and fault-injects around them. The handler is the
// single source of truth for the serve wire protocol: every status mapping
// (429 shed, 504 deadline, 499 cancel) and every endpoint the router's health
// checker and aggregators depend on (/readyz, /stats, /models) lives here.
//
// ReplicaHeader identifies which replica served a response; the front door
// (cmd/patdnn-router) preserves it across the proxy hop so clients — and the
// loadgen harness's per-replica outcome classification — can attribute every
// response to the process that produced it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"

	"patdnn/internal/registry"
)

// ReplicaHeader is the response header naming the serving replica. The serve
// handler stamps it with the instance's self-reported name (Handler's
// replica argument, typically its listen address); the router passes it
// through, so a client behind the front door still sees which replica ran
// its inference.
const ReplicaHeader = "X-Patdnn-Replica"

// maxControlBytes bounds a POST /registry/route body; a larger one is
// refused with 413, like an oversized /infer body.
const maxControlBytes = 1 << 20

// NewHandler builds the serve HTTP API over an engine (and its optional
// registry; reg may be nil). replica, when non-empty, is stamped on every
// response as the ReplicaHeader value.
//
// Endpoints: POST /infer, GET /models, GET /stats, GET /healthz, GET /readyz,
// and — when reg is non-nil — GET /registry and POST /registry/route.
func NewHandler(eng *Engine, reg *registry.Registry, replica string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", func(w http.ResponseWriter, r *http.Request) {
		body, err := ReadBody(w, r)
		if err != nil {
			httpError(w, InferStatus(err), fmt.Errorf("read request: %w", err))
			return
		}
		// The parse copies every field out of the buffer, so it goes back to
		// the pool before the request queues.
		req, err := ParseRequest(body.Bytes())
		PutBuffer(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		resp, err := eng.Infer(r.Context(), req)
		if err != nil {
			httpError(w, InferStatus(err), err)
			return
		}
		writeInferResponse(w, resp)
	})
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		models := eng.Models()
		if models == nil {
			models = []ModelInfo{}
		}
		writeJSON(w, http.StatusOK, models)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, eng.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: the process is up and the mux is serving. Routability
		// (compiles done, registry warm) is /readyz's job.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := eng.Readiness()
		status := http.StatusOK
		if !rd.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, rd)
	})
	if reg != nil {
		mux.HandleFunc("GET /registry", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, registryView{
				Models: reg.Models(), Routes: reg.Routes(), Stats: reg.Stats(),
			})
		})
		mux.HandleFunc("POST /registry/route", func(w http.ResponseWriter, r *http.Request) {
			var req routeRequest
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
			if err == nil {
				err = json.Unmarshal(body, &req)
			}
			if err != nil {
				httpError(w, InferStatus(err), fmt.Errorf("bad request body: %w", err))
				return
			}
			if req.Model == "" {
				httpError(w, http.StatusBadRequest, errors.New("missing \"model\""))
				return
			}
			if len(req.Weights) == 0 {
				reg.ClearRoute(req.Model)
			} else if err := reg.SetRoute(req.Model, req.Weights); err != nil {
				status := http.StatusBadRequest
				if errors.Is(err, registry.ErrNotFound) {
					status = http.StatusNotFound
				}
				httpError(w, status, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"routes": reg.Routes()})
		})
	}
	if replica == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ReplicaHeader, replica)
		mux.ServeHTTP(w, r)
	})
}

// InferStatus maps an Engine.Infer error to its HTTP status. The mapping is
// part of the wire protocol the router's spill logic keys on: 429 means "shed
// at admission, a sibling replica may have room", 504/499 mean the deadline
// or caller died (retrying cannot help), 503 means the engine is closed, 413
// means the body ran past MaxRequestBytes.
func InferStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		// Load shed: the class queue is full. 429 tells well-behaved clients
		// (and the router) to go elsewhere; nothing was computed.
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		// The request's deadline (ctx or timeout_ms) passed before a sweep
		// could serve it; the batcher shed it without compute.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusBadRequest
	}
}

// registryView is the GET /registry response body.
type registryView struct {
	Models []registry.ModelInfo              `json:"models"`
	Routes map[string][]registry.RouteWeight `json:"routes"`
	Stats  registry.Stats                    `json:"stats"`
}

// routeRequest is the POST /registry/route body: weights map version →
// weight; empty weights clear the route.
type routeRequest struct {
	Model   string         `json:"model"`
	Weights map[string]int `json:"weights"`
}

// writeJSON pretty-prints the small operator-facing endpoints (/stats,
// /models, ...); /infer responses go through writeInferResponse because their
// payload scales with the model's output tensor.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("serve: encode response: %v", err)
	}
}

// writeInferResponse encodes the reply into a pooled buffer before it writes
// the status, so an output encoding/json refuses (NaN or ±Inf from an
// overflowing input) is a 500 with an error body rather than a 200 with none,
// and the reply carries its Content-Length instead of going out in chunks.
// The encoding is compact: an image-to-image reply carries the whole output
// feature map (12288 floats for the ×2 SR head on CIFAR-sized input), and the
// indent writer would more than double it.
func writeInferResponse(w http.ResponseWriter, resp *Response) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer PutBuffer(buf)
	if err := json.NewEncoder(buf).Encode(resp); err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("serve: write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
