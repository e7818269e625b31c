// Command patdnn-loadgen drives a running patdnn-serve with generated
// traffic and reports per-class latency histograms — the SLO harness that
// makes the repo's real-time claims testable from outside the process.
//
// A primary stream (open-loop Poisson arrivals or a closed client loop) is
// optionally accompanied by a background batch-class stream, so the
// scheduler's core promise — interactive latency holds while batch traffic
// saturates and sheds — can be exercised in one invocation:
//
//	# 200 rps of Poisson interactive traffic with a 50ms p99 SLO, while
//	# 16 closed-loop batch clients saturate the batch lane for 10s:
//	patdnn-loadgen -url http://localhost:8080 -network VGG -dataset cifar10 \
//	    -mode open -rate 200 -duration 10s -timeout 500ms \
//	    -bg-clients 16 -slo-p99 50ms -json LOADGEN_vgg.json
//
// Exit status: 0 on success, 1 when -slo-p99 is violated, 2 on run errors.
// -json writes the per-class results and histograms as a JSON report
// (internal/loadgen's Report) for CI artifacts and jq assertions.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"patdnn/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	url := flag.String("url", "http://localhost:8080", "patdnn-serve base URL")
	urls := flag.String("urls", "",
		"comma-separated list of target base URLs (replicas hit round-robin, or router front doors); overrides -url and enables the per-target outcome breakdown")
	network := flag.String("network", "VGG", "model to request (generator name or registry name[@version])")
	dataset := flag.String("dataset", "cifar10", "dataset for generator models (empty for registry models)")
	class := flag.String("class", "interactive", "scheduling class of the primary stream: interactive or batch")
	mode := flag.String("mode", "closed", "primary arrival process: open (Poisson at -rate) or closed (-clients loop)")
	rate := flag.Float64("rate", 100, "open-loop mean arrival rate, requests/second")
	clients := flag.Int("clients", 0, "closed-loop concurrency / open-loop in-flight cap (0 = mode default: 4 closed, 1024 open)")
	requests := flag.Int("requests", 0, "stop the primary stream after N arrivals (0 = run for -duration)")
	duration := flag.Duration("duration", 10*time.Second,
		"stop streams after this wall-clock time (ignored for a -requests-bounded primary stream unless set explicitly)")
	timeout := flag.Duration("timeout", 0, "per-request deadline, enforced client- and server-side (0 = none)")
	seed := flag.Int64("seed", 1, "arrival-process RNG seed")
	bgClients := flag.Int("bg-clients", 0, "background batch-class closed-loop clients (0 = no background stream)")
	bgTimeout := flag.Duration("bg-timeout", 0, "background stream per-request deadline (0 = none)")
	sloP99 := flag.Duration("slo-p99", 0, "assert the primary stream's p99 <= this; exit 1 on violation (0 = off)")
	jsonPath := flag.String("json", "", "write the per-class histogram report (JSON) to this file")
	flag.Parse()

	// A request-bounded primary stream runs to completion: the -duration
	// default only bounds it when the operator explicitly asked for both.
	durationSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "duration" {
			durationSet = true
		}
	})
	primaryDuration := *duration
	if *requests > 0 && !durationSet {
		primaryDuration = 0
	}

	var targets []string
	for _, u := range strings.Split(*urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targets = append(targets, u)
		}
	}

	specs := []loadgen.Spec{{
		Name: "primary_" + *class, URL: *url, URLs: targets,
		Network: *network, Dataset: *dataset, Class: *class,
		Mode: *mode, Rate: *rate, Clients: *clients,
		Requests: *requests, Duration: primaryDuration, Timeout: *timeout, Seed: *seed,
	}}
	if *bgClients > 0 {
		specs = append(specs, loadgen.Spec{
			Name: "background_batch", URL: *url, URLs: targets,
			Network: *network, Dataset: *dataset, Class: "batch",
			Mode: "closed", Clients: *bgClients,
			Duration: *duration, Timeout: *bgTimeout, Seed: *seed + 1,
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := loadgen.RunAll(ctx, specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "patdnn-loadgen:", err)
		return 2
	}
	for _, r := range results {
		fmt.Printf("%-20s class=%-11s mode=%-6s sent=%-6d ok=%-6d shed=%-5d expired=%-5d failed=%-4d %.1f rps  p50=%.2fms p95=%.2fms p99=%.2fms\n",
			r.Name, r.Class, r.Mode, r.Sent, r.OK, r.Shed, r.Expired, r.Failed,
			r.ThroughputRPS, r.P50Ms, r.P95Ms, r.P99Ms)
		if r.FirstError != "" {
			fmt.Printf("%-20s first error: %s\n", r.Name, r.FirstError)
		}
		// Fleet breakdown: who actually served (replica header when routed,
		// else the target URL), so per-replica shedding is visible.
		byTarget := make([]string, 0, len(r.PerTarget))
		for target := range r.PerTarget {
			byTarget = append(byTarget, target)
		}
		sort.Strings(byTarget)
		for _, target := range byTarget {
			o := r.PerTarget[target]
			fmt.Printf("%-20s   @ %-28s sent=%-6d ok=%-6d shed=%-5d expired=%-5d failed=%d\n",
				r.Name, target, o.Sent, o.OK, o.Shed, o.Expired, o.Failed)
		}
	}
	if *jsonPath != "" {
		model := *network
		if *dataset != "" {
			model += "/" + *dataset
		}
		if err := loadgen.WriteReport(*jsonPath, model, results); err != nil {
			fmt.Fprintln(os.Stderr, "patdnn-loadgen: write report:", err)
			return 2
		}
		fmt.Println("wrote", *jsonPath)
	}
	if *sloP99 > 0 {
		if err := results[0].CheckP99(*sloP99); err != nil {
			fmt.Fprintln(os.Stderr, "SLO VIOLATION:", err)
			return 1
		}
		fmt.Printf("SLO OK: %s p99 %.2fms <= %v\n", results[0].Name, results[0].P99Ms, *sloP99)
	}
	return 0
}
