package router_test

// Fleet SLO end-to-end, loadgen-driven:
//
//  1. Scaling: aggregate fleet throughput through the router reaches >= 3x
//     a single-replica baseline at 4 replicas.
//  2. Chaos: killing one replica mid-run costs zero failed (non-shed)
//     requests — the router's passive ejection plus one-hop spill absorbs
//     the loss — while interactive p99 stays inside the SLO bound and no
//     replica ever executes an expired request.
//
// Both tests run the replicas behind routertest's capacity gate
// (MaxInflight=1, ServiceDelay=12ms => 83 rps per replica, deterministic).
// That choice is what makes the scaling assertion machine-independent: on a
// one-core CI runner, K in-process engines cannot speed up with CPU
// parallelism, so an ungated test would measure the host's core count.
// Gated, per-replica capacity is a constant and aggregate throughput
// measures exactly the router's contribution — whether it spreads models
// across the ring and fails over without dropping traffic. The gate sleeps
// while holding the replica's single slot, so the core stays free for the
// other replicas — the same concurrency shape as a real multi-host fleet.
// That only holds while the gate's sleep dwarfs a request's CPU (two HTTP
// hops and the JSON codec, several times dearer under -race). At 4ms, plus
// the 2ms every request then idled in the serve engine's gather window, four
// replicas on two cores under -race next to another package's tests reached
// 3.1-3.4x; without the window they were CPU-bound below 3x. 12ms keeps the
// fleet's CPU need under one core there.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"patdnn/internal/loadgen"
	"patdnn/internal/router"
	"patdnn/internal/router/routertest"
)

const (
	e2eServiceDelay = 12 * time.Millisecond
	e2eStreams      = 4
	e2eRequests     = 40 // per stream, request-bounded scaling runs
)

// pickCoveringModels returns one registry-legal model name per replica,
// each owned (on the router's ring) by a distinct replica — the workload
// shape that lets a consistent-hashing fleet scale, since one model alone
// is pinned to one replica by design.
func pickCoveringModels(t *testing.T, urls []string, vnodes int) []string {
	t.Helper()
	ring := router.NewRing(urls, vnodes)
	byOwner := map[string]string{}
	for i := 0; len(byOwner) < len(urls) && i < 65536; i++ {
		name := fmt.Sprintf("m%05d", i)
		owner := ring.Pick(name + "\x00")
		if _, ok := byOwner[owner]; !ok {
			byOwner[owner] = name
		}
	}
	if len(byOwner) < len(urls) {
		t.Fatalf("could not find names covering all %d replicas", len(urls))
	}
	names := make([]string, 0, len(urls))
	for _, u := range urls {
		names = append(names, byOwner[u])
	}
	return names
}

// e2eFleet stands up n gated replicas with the e2eStreams workload models
// registered and warmed, plus a router front door; returns the front URL
// and the model names.
func e2eFleet(t *testing.T, n int, routerCfg router.Config) (*routertest.Fleet, *router.Router, string, []string) {
	t.Helper()
	fleet := routertest.NewFleet(t, routertest.Options{
		Replicas:     n,
		WithRegistry: true,
		MaxInflight:  1,
		ServiceDelay: e2eServiceDelay,
	})
	var names []string
	if n >= e2eStreams {
		names = pickCoveringModels(t, fleet.URLs(), routerCfg.VNodes)
	} else {
		// Baseline fleets: same stream count, any names (all co-located).
		for i := 0; i < e2eStreams; i++ {
			names = append(names, fmt.Sprintf("b%05d", i))
		}
	}
	fleet.RegisterTiny("v1", names...)
	fleet.WaitReady(15 * time.Second)

	routerCfg.Replicas = fleet.URLs()
	rt, err := router.New(routerCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// Warm every model through the router so measurements exclude first
	// -request compile latency.
	for _, name := range names {
		body, _ := json.Marshal(map[string]any{
			"network": name, "input": routertest.TinyInput(1),
		})
		resp, err := http.Post(front.URL+"/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm %s: HTTP %d", name, resp.StatusCode)
		}
	}
	return fleet, rt, front.URL, names
}

// runStreams drives one closed-loop interactive stream per model through
// the router and returns (results, aggregate throughput over wall time).
func runStreams(t *testing.T, frontURL string, names []string, requests int, duration, timeout time.Duration) ([]*loadgen.Result, float64) {
	t.Helper()
	specs := make([]loadgen.Spec, len(names))
	for i, name := range names {
		specs[i] = loadgen.Spec{
			Name: "stream_" + name, URL: frontURL, Network: name,
			Mode: "closed", Clients: 2,
			Requests: requests, Duration: duration, Timeout: timeout,
			Seed: int64(i + 1),
		}
	}
	start := time.Now()
	results, err := loadgen.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	totalOK := 0
	for _, r := range results {
		totalOK += r.OK
	}
	return results, float64(totalOK) / wall.Seconds()
}

func TestFleetThroughputScalesNearLinearly(t *testing.T) {
	cfg := router.Config{VNodes: 64, ProbeInterval: 100 * time.Millisecond, Logf: t.Logf}

	_, _, front1, names1 := e2eFleet(t, 1, cfg)
	res1, agg1 := runStreams(t, front1, names1, e2eRequests, 0, 0)
	for _, r := range res1 {
		if r.Failed != 0 || r.OK != e2eRequests {
			t.Fatalf("baseline stream %s: %+v", r.Name, r)
		}
	}

	_, _, front4, names4 := e2eFleet(t, 4, cfg)
	res4, agg4 := runStreams(t, front4, names4, e2eRequests, 0, 0)
	for _, r := range res4 {
		if r.Failed != 0 || r.OK != e2eRequests {
			t.Fatalf("fleet stream %s: %+v", r.Name, r)
		}
	}

	// Per-replica capacity is gated at 1/e2eServiceDelay rps, so with the 4
	// streams' models covering all 4 replicas, the fleet ceiling is 4x the
	// baseline's. >=3x leaves room for router hop + loopback overhead while
	// still proving near-linear spreading; anything near 1x would mean the
	// ring piled every model onto one replica.
	ratio := agg4 / agg1
	t.Logf("aggregate throughput: 1 replica %.0f rps, 4 replicas %.0f rps (%.2fx)", agg1, agg4, ratio)
	if ratio < 3.0 {
		t.Fatalf("4-replica fleet reached only %.2fx single-replica throughput (%.0f vs %.0f rps), want >= 3x",
			ratio, agg4, agg1)
	}
}

func TestKillOneReplicaMidRunZeroFailures(t *testing.T) {
	cfg := router.Config{
		VNodes:        64,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  20 * time.Millisecond,
		EjectAfter:    2,
		RecoverAfter:  time.Hour, // the dead replica stays dead
		Logf:          t.Logf,
	}
	fleet, rt, front, names := e2eFleet(t, 4, cfg)
	victim := fleet.Replica(router.NewRing(fleet.URLs(), cfg.VNodes).Pick(names[0] + "\x00"))

	// Duration-bounded streams with a real per-request deadline: the SLO
	// harness shape. The kill lands ~25% in.
	killTimer := time.AfterFunc(300*time.Millisecond, victim.Kill)
	defer killTimer.Stop()
	results, _ := runStreams(t, front, names, 0, 1200*time.Millisecond, 500*time.Millisecond)

	targets := map[string]bool{}
	for _, r := range results {
		// Zero failed: every non-shed request got an answer. The victim's
		// in-flight and subsequent requests must have spilled to the ring
		// sibling or been rerouted after ejection — never dropped.
		if r.Failed != 0 {
			t.Fatalf("stream %s: %d failed requests (first error: %s)", r.Name, r.Failed, r.FirstError)
		}
		if r.OK == 0 {
			t.Fatalf("stream %s completed nothing: %+v", r.Name, r)
		}
		// Interactive SLO holds through the chaos: generous against the
		// 12ms gated service time, but far below the 500ms deadline — a
		// router that stalled on the dead replica would blow it.
		if err := r.CheckP99(150 * time.Millisecond); err != nil {
			t.Fatalf("stream %s: %v", r.Name, err)
		}
		for target := range r.PerTarget {
			targets[target] = true
		}
	}
	// The victim's stream kept flowing, so >= 2 distinct replicas must
	// appear in the per-target attribution.
	if len(targets) < 2 {
		t.Fatalf("all traffic attributed to %v — failover invisible", targets)
	}

	// The router noticed: the victim is ejected with zero inflight.
	found := false
	for _, rv := range rt.Fleet().Replicas {
		if rv.URL == victim.URL() {
			found = true
			if rv.State != "ejected" || rv.Ejections < 1 {
				t.Fatalf("victim not ejected: %+v", rv)
			}
		}
	}
	if !found {
		t.Fatal("victim missing from fleet view")
	}

	// The deadline contract holds fleet-wide: no engine — including the
	// killed replica's, still readable in-process — ever executed an
	// expired request.
	var expiredExecuted uint64
	for _, rp := range fleet.Replicas {
		expiredExecuted += rp.Engine.Stats().ExpiredExecuted
	}
	if expiredExecuted != 0 {
		t.Fatalf("fleet executed %d expired requests, want 0", expiredExecuted)
	}
}
