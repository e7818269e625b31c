// Command patdnn-serve fronts the concurrent inference engine with an
// HTTP/JSON API: models compile once into the plan cache, and each /infer
// request runs as one layer sweep over the worker pool, concurrent requests
// queueing per model and class (the compile-once / execute-many deployment
// the paper's offline compiler implies, exposed as a server).
//
// With -models-dir the server additionally serves the disk-backed model
// registry: versioned .patdnn artifacts (written by `patdnn-compile
// -registry-dir`) become addressable as "name" or "name@version", hot-reload
// when files change, split bare-name traffic across versions by configured
// weights (canary rollouts), and are bounded by -memory-budget with LRU
// eviction of compiled plans.
//
// Every model compiles once, at the packed kernel family: -level packed
// (the default, with quantized artifacts served at packedq8) or packedq8.
// Responses and /models name the level that ran.
//
// Endpoints:
//
//	POST /infer    {"network":"VGG","dataset":"cifar10","input":[...]}
//	               input is the flattened [C,H,W] image and may be omitted
//	               for a deterministic synthetic input. network may also be a
//	               registry model ("vgg" or "vgg@v2"); the response's
//	               "version" reports the version that served and "level" the
//	               kernels that ran. Responds with the output feature map,
//	               argmax, and queue/run latency.
//	               Scheduling: "class" ("interactive" default, or "batch")
//	               picks the bounded per-model lane the request queues on —
//	               batch-class sweeps run on a width-limited worker slice so
//	               background traffic can't starve interactive requests. A
//	               full lane sheds immediately with 429. "timeout_ms" sets a
//	               server-side deadline: if it expires while the request is
//	               queued the lane drops it before compute (504).
//	               A body holds one request and at most 64 MiB (413 beyond);
//	               an output that JSON cannot carry (NaN, ±Inf) is a 500.
//	GET  /models   compiled models: plan-cache entries plus every registry
//	               version with residency, byte footprint, and last-used time
//	GET  /stats    engine counters (requests, errors, plan-cache hits,
//	               sheds by class, deadline sheds, the executed-expired
//	               tripwire, and per-lane bounded queue depth/capacity/peak)
//	               plus registry counters (scans, reloads, evictions,
//	               resident bytes)
//	GET  /registry registry detail: versions, routes, quarantined files, stats
//	POST /registry/route  {"model":"vgg","weights":{"v1":90,"v2":10}}
//	               sets the weighted traffic split for bare-name requests;
//	               empty/omitted weights clear the route
//	GET  /healthz  liveness probe (process up)
//	GET  /readyz   readiness probe: 503 with per-model compile/load states
//	               while preload compiles or the registry's initial scan are
//	               in flight, 200 once traffic can be served without paying
//	               warm-up latency (steady-state work — lazy compiles,
//	               hot-reload rescans — never flaps it)
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting,
// drains in-flight requests, then closes the engine (and its registry).
//
// Models lower through the graph executor (internal/compiler/execgraph):
// BatchNorm folds into conv weights at compile time, residual adds fuse into
// conv epilogues, and the paper's full CIFAR evaluation suite — VGG-16,
// ResNet-50, MobileNet-V2 — serves end to end, from generator specs and from
// format-v2 graph artifacts alike.
//
// Quickstart:
//
//	patdnn-compile -model resnet50 -dataset cifar10 -registry-dir models -name resnet50 -version v1
//	patdnn-serve -addr :8080 -models-dir models -memory-budget 512MB -preload ""
//	curl -s -X POST localhost:8080/infer -d '{"network":"resnet50"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"patdnn/internal/registry"
	"patdnn/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	patterns := flag.Int("patterns", 8, "pattern-set size")
	connRate := flag.Float64("connrate", 3.6, "connectivity pruning rate")
	level := flag.String("level", serve.LevelAuto,
		"kernel family: packed, packedq8, or auto (packed; quantized artifacts at packedq8)")
	queueDepth := flag.Int("queue-depth", 0,
		"per-model, per-class request queue bound; a full queue sheds with 429 (0 = 64)")
	queueBytes := flag.String("queue-bytes", "",
		"per-model, per-class bound on queued response-tensor bytes, e.g. 64MB; feature-map "+
			"models (SR) commit ~48KB per request where classifiers commit ~40B, so the byte "+
			"budget sheds what a slot count alone would admit (empty = 64MB)")
	batchWorkers := flag.Int("batch-workers", 0,
		"worker-pool width granted to batch-class sweeps so background traffic can't crowd out interactive (0 = workers/4)")
	preload := flag.String("preload", "VGG/cifar10",
		"comma-separated network/dataset pairs to compile at startup (empty = compile lazily)")
	modelsDir := flag.String("models-dir", "",
		"serve versioned .patdnn artifacts from this directory (enables /registry and name@version resolution)")
	memBudget := flag.String("memory-budget", "",
		"memory budget over compiled registry models, e.g. 512MB or 2GB (empty = unlimited); LRU-evicted models recompile lazily")
	regPoll := flag.Duration("registry-poll", 2*time.Second,
		"models-dir polling period for hot reload (negative disables)")
	flag.Parse()

	qBytes, err := parseBytes(*queueBytes)
	if err != nil {
		log.Fatalf("bad -queue-bytes: %v", err)
	}
	eng := serve.New(serve.Config{
		Workers: *workers, Patterns: *patterns, ConnRate: *connRate, Level: *level,
		QueueDepth: *queueDepth, QueueBytes: qBytes, BatchWorkers: *batchWorkers,
	})
	var reg *registry.Registry
	if *modelsDir != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			log.Fatalf("bad -memory-budget: %v", err)
		}
		reg, err = eng.WithRegistry(registry.Config{
			Dir: *modelsDir, MemoryBudget: budget, Poll: *regPoll, Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("registry: %v", err)
		}
		s := reg.Stats()
		log.Printf("registry: %d models / %d versions in %s (budget %s)",
			s.Models, s.Versions, *modelsDir, *memBudget)
	}
	for _, spec := range strings.Split(*preload, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		network, dataset, ok := strings.Cut(spec, "/")
		if !ok {
			log.Fatalf("bad -preload entry %q: want network/dataset", spec)
		}
		start := time.Now()
		if err := eng.Preload(network, dataset); err != nil {
			log.Fatalf("preload %s: %v", spec, err)
		}
		log.Printf("compiled %s in %v", spec, time.Since(start).Round(time.Millisecond))
	}

	// Responses carry the replica's identity (serve.ReplicaHeader) so fleet
	// tooling behind cmd/patdnn-router can attribute them to this instance.
	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(eng, reg, *addr)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// ListenAndServe returns as soon as Shutdown closes the listeners, while
	// in-flight requests are still draining — main must wait for the drain to
	// finish before closing the engine and exiting.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Print("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s (workers=%d)", *addr, *workers)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-shutdownDone
	eng.Close() // drain the lanes (and close the registry) after the HTTP server has quiesced
}

// newMux builds the server's routing table (the serve package's canonical
// handler); reg may be nil (no models dir).
func newMux(eng *serve.Engine, reg *registry.Registry) http.Handler {
	return serve.NewHandler(eng, reg, "")
}

// parseBytes parses a human byte size: a plain integer (bytes) or an
// integer with a K/M/G suffix (binary multiples; a trailing B/iB is
// accepted). Empty means 0 (unlimited).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	mult := int64(1)
	for _, suf := range []struct {
		tag string
		m   int64
	}{{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"B", 1}} {
		if strings.HasSuffix(upper, suf.tag) {
			mult = suf.m
			upper = strings.TrimSuffix(upper, suf.tag)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a byte size (want e.g. 512MB, 2GB)", s)
	}
	// An overflowing product would wrap negative, which the registry treats
	// as "unlimited" — the opposite of what the operator asked for.
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("%q overflows the byte-size range", s)
	}
	return n * mult, nil
}
