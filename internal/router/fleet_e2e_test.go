package router_test

// Fleet SLO end-to-end, loadgen-driven:
//
//  1. Scaling: four streams whose models the ring assigns to four replicas
//     are served by four distinct replicas, each stream by exactly one — what
//     lets a consistent-hashing fleet's throughput scale with its size.
//  2. Chaos: killing one replica mid-run costs zero failed (non-shed)
//     requests — the router's passive ejection plus one-hop spill absorbs
//     the loss — while interactive p99 stays inside the SLO bound and no
//     replica ever executes an expired request.
//
// Both tests run the replicas behind routertest's capacity gate
// (MaxInflight=1, ServiceDelay=12ms => 83 rps per replica, deterministic).
// The gate sleeps while holding the replica's single slot, so the core stays
// free for the other replicas — the same concurrency shape as a real
// multi-host fleet. The scaling test counts where requests landed and needs
// no clock; the chaos test's p99 bound is written against the 12ms service
// time, which dwarfs a request's CPU (two HTTP hops and the JSON codec,
// several times dearer under -race) so the fleet stays sleep-bound on two
// cores.

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
	e2eRequests     = 40 // per stream, request-bounded scaling run
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

// e2eFleet stands up e2eStreams gated replicas, each owning one registered
// and warmed workload model, plus a router front door; returns the front URL
// and the model names.
func e2eFleet(t *testing.T, routerCfg router.Config) (*routertest.Fleet, *router.Router, string, []string) {
	t.Helper()
	fleet := routertest.NewFleet(t, routertest.Options{
		Replicas:     e2eStreams,
		WithRegistry: true,
		MaxInflight:  1,
		ServiceDelay: e2eServiceDelay,
	})
	names := pickCoveringModels(t, fleet.URLs(), routerCfg.VNodes)
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
// the router.
func runStreams(t *testing.T, frontURL string, names []string, requests int, duration, timeout time.Duration) []*loadgen.Result {
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
	results, err := loadgen.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestFleetThroughputScalesNearLinearly(t *testing.T) {
	cfg := router.Config{VNodes: 64, ProbeInterval: 100 * time.Millisecond, Logf: t.Logf}

	_, _, front, names := e2eFleet(t, cfg)
	results := runStreams(t, front, names, e2eRequests, 0, 0)

	// Per-replica capacity is gated at 1/e2eServiceDelay rps, so the fleet
	// runs at e2eStreams times one replica's rate exactly when each stream has
	// a replica to itself: every stream's requests land on one replica, and
	// no two streams share one. A ring that piled models onto one replica, or
	// a router that sprayed a model across replicas, fails here.
	servedBy := map[string]string{}
	for _, r := range results {
		if r.Failed != 0 || r.OK != e2eRequests {
			t.Fatalf("fleet stream %s: %+v", r.Name, r)
		}
		if len(r.PerTarget) != 1 {
			t.Fatalf("stream %s was served by %d replicas, want 1: %v", r.Name, len(r.PerTarget), r.PerTarget)
		}
		for target := range r.PerTarget {
			if other, taken := servedBy[target]; taken {
				t.Fatalf("streams %s and %s share replica %s", other, r.Name, target)
			}
			servedBy[target] = r.Name
		}
	}
	if len(servedBy) != e2eStreams {
		t.Fatalf("%d streams landed on %d replicas: %v", e2eStreams, len(servedBy), servedBy)
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
	fleet, rt, front, names := e2eFleet(t, cfg)
	victim := fleet.Replica(router.NewRing(fleet.URLs(), cfg.VNodes).Pick(names[0] + "\x00"))

	// Duration-bounded streams with a real per-request deadline: the SLO
	// harness shape. The kill lands ~25% in.
	killTimer := time.AfterFunc(300*time.Millisecond, victim.Kill)
	defer killTimer.Stop()
	results := runStreams(t, front, names, 0, 1200*time.Millisecond, 500*time.Millisecond)

	targets := map[string]bool{}
	for _, r := range results {
		// Zero failed: every non-shed request got an answer. The victim's
		// in-flight and subsequent requests must have spilled to the ring
		// sibling or been rerouted after ejection — never dropped. A router
		// that stalled on the dead replica fails here too: each request
		// carries the 500 ms deadline, so no latency assertion is needed.
		if r.Failed != 0 {
			t.Fatalf("stream %s: %d failed requests (first error: %s)", r.Name, r.Failed, r.FirstError)
		}
		if r.OK == 0 {
			t.Fatalf("stream %s completed nothing: %+v", r.Name, r)
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
