package main

// The -serve-json mode measures the serving engine end to end (compile-once
// plan cache, request batching, batched layer sweeps) and writes the result
// as a stable, versioned JSON artifact. CI uploads BENCH_serve.json on every
// run, so the serving-path perf trajectory — throughput and tail latency —
// is comparable across PRs without digging through test -bench logs.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"patdnn/internal/serve"
)

// serveBenchSchema versions the BENCH_serve.json format; bump it when the
// fields change meaning so trajectory tooling can tell runs apart. v2 adds
// the per-network sweep (-serve-net): CI uploads one artifact per paper
// network, each self-describing via the "model" field.
const serveBenchSchema = "patdnn/bench-serve/v2"

type serveBenchCase struct {
	Name          string  `json:"name"`
	Level         string  `json:"level,omitempty"` // engine level the sweep served at ("" = auto)
	MaxBatch      int     `json:"max_batch"`
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	AvgBatch      float64 `json:"avg_batch"`
}

type serveBenchReport struct {
	Schema    string           `json:"schema"`
	Model     string           `json:"model"`
	Go        string           `json:"go"`
	Workers   int              `json:"workers"`
	Timestamp time.Time        `json:"timestamp"`
	Cases     []serveBenchCase `json:"cases"`
}

// writeServeBench runs the serve benchmark sweep for one paper network
// (CIFAR-10 variant through the real engine — graph-compiled end to end —
// batching settings swept, fixed concurrent client count) and writes the
// JSON artifact to path. network is any spelling model.ByName accepts
// ("VGG", "RNT", "MBNT", "resnet50", ...). level pins the engine's
// optimization level for the whole sweep ("packedq8" benchmarks quantized
// serving); empty keeps the engine default and the historical case names,
// so existing baselines keep matching.
func writeServeBench(path string, requests int, network, level string) error {
	if requests < 8 {
		requests = 8
	}
	const clients = 16
	report := serveBenchReport{
		Schema:    serveBenchSchema,
		Model:     network + "/cifar10",
		Go:        runtime.Version(),
		Workers:   runtime.GOMAXPROCS(0),
		Timestamp: time.Now().UTC(),
	}
	for _, maxBatch := range []int{1, 4, 8} {
		c, err := runServeBenchCase(network, level, maxBatch, clients, requests)
		if err != nil {
			return err
		}
		report.Cases = append(report.Cases, c)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	// A write-back failure surfaced at close would otherwise leave a
	// truncated artifact behind a success exit code.
	return f.Close()
}

func runServeBenchCase(network, level string, maxBatch, clients, requests int) (serveBenchCase, error) {
	eng := serve.New(serve.Config{MaxBatch: maxBatch, Level: level})
	defer eng.Close()
	if err := eng.Preload(network, "cifar10"); err != nil {
		return serveBenchCase{}, err
	}

	// Warm the batching path before timing.
	if _, err := eng.Infer(context.Background(), serve.Request{Network: network, Dataset: "cifar10"}); err != nil {
		return serveBenchCase{}, err
	}

	latencies := make([]float64, requests)
	var next int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	var firstErr error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				if i >= requests {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				t0 := time.Now()
				_, err := eng.Infer(context.Background(), serve.Request{Network: network, Dataset: "cifar10"})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				latencies[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return serveBenchCase{}, firstErr
	}
	elapsed := time.Since(start).Seconds()
	sort.Float64s(latencies)
	s := eng.Stats()
	return serveBenchCase{
		Name:          caseName(network, level, maxBatch, clients),
		Level:         level,
		MaxBatch:      maxBatch,
		Clients:       clients,
		Requests:      requests,
		ThroughputRPS: float64(requests) / elapsed,
		P50Ms:         percentile(latencies, 0.50),
		P99Ms:         percentile(latencies, 0.99),
		AvgBatch:      s.AvgBatch,
	}, nil
}

// caseName keys one sweep row for the benchgate baseline matcher. A pinned
// level becomes part of the name ("vgg_cifar10_packedq8_batch4_clients16"),
// so level-specific baselines (e.g. BENCH_serve_VGGQ8.json) never collide
// with the historical default-level names.
func caseName(network, level string, maxBatch, clients int) string {
	name := strings.ToLower(network) + "_cifar10"
	if level != "" {
		name += "_" + strings.ToLower(level)
	}
	return name + "_batch" + strconv.Itoa(maxBatch) + "_clients" + strconv.Itoa(clients)
}

// percentile reads the q-quantile from sorted values (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
