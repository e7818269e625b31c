package router_test

// Fleet-level control plane: operator drain/undrain shifts traffic off a
// replica without ejecting it, and /fleet/rollout extends the registry's
// canary weights fleet-wide — drain a replica, wait for its in-flight
// requests to finish, shift its registry route, undrain, next replica.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"patdnn/internal/router"
	"patdnn/internal/router/routertest"
)

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// inferVersion posts one inference and returns (status, replica, version).
func inferVersion(t *testing.T, routerURL, model string) (int, string, string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"network": model, "input": routertest.TinyInput(1), "timeout_ms": 2000,
	})
	resp, err := http.Post(routerURL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r struct {
		Version string `json:"version"`
	}
	json.NewDecoder(resp.Body).Decode(&r)
	return resp.StatusCode, resp.Header.Get("X-Patdnn-Replica"), r.Version
}

func TestDrainShiftsTrafficWithoutEjection(t *testing.T) {
	fleet := routertest.NewFleet(t, routertest.Options{Replicas: 2, WithRegistry: true})
	owner := fleet.Replicas[0]
	model := pickOwnedModel(t, fleet.URLs(), 64, owner.URL())
	fleet.RegisterTiny("v1", model)
	fleet.WaitReady(10 * time.Second)

	rt, err := router.New(router.Config{
		Replicas: fleet.URLs(), VNodes: 64,
		ProbeInterval: 20 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	if _, by, _ := inferVersion(t, front.URL, model); by != owner.Name {
		t.Fatalf("pre-drain served by %q, want owner %s", by, owner.Name)
	}

	status, _ := postJSON(t, front.URL+"/fleet/drain", map[string]string{"replica": owner.URL()})
	if status != 200 {
		t.Fatalf("drain: HTTP %d", status)
	}
	for i := 0; i < 10; i++ {
		if _, by, _ := inferVersion(t, front.URL, model); by == owner.Name {
			t.Fatalf("request %d served by drained replica", i)
		}
	}
	// Drain is operator intent, not failure: the replica stays healthy.
	for _, rv := range rt.Fleet().Replicas {
		if rv.URL == owner.URL() {
			if rv.State != "healthy" || !rv.Drained || rv.Ejections != 0 {
				t.Fatalf("drained replica state: %+v", rv)
			}
		}
	}

	status, _ = postJSON(t, front.URL+"/fleet/undrain", map[string]string{"replica": owner.URL()})
	if status != 200 {
		t.Fatalf("undrain: HTTP %d", status)
	}
	if _, by, _ := inferVersion(t, front.URL, model); by != owner.Name {
		t.Fatalf("post-undrain served by %q, want owner back", by)
	}

	// Unknown replica is a client error, not a silent no-op.
	if status, _ := postJSON(t, front.URL+"/fleet/drain", map[string]string{"replica": "http://nope:1"}); status != 404 {
		t.Fatalf("drain of unknown replica: HTTP %d, want 404", status)
	}
}

func TestFleetRolloutShiftsCanaryWeightsEverywhere(t *testing.T) {
	fleet := routertest.NewFleet(t, routertest.Options{Replicas: 2, WithRegistry: true})
	fleet.RegisterTiny("v1", "roll")
	fleet.RegisterTiny("v2", "roll")
	fleet.WaitReady(10 * time.Second)

	rt, err := router.New(router.Config{
		Replicas: fleet.URLs(), VNodes: 64,
		ProbeInterval: 20 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Unrouted, the bare name resolves to the latest version.
	if status, _, ver := inferVersion(t, front.URL, "roll"); status != 200 || ver != "v2" {
		t.Fatalf("pre-rollout: status=%d version=%q, want 200/v2", status, ver)
	}

	status, out := postJSON(t, front.URL+"/fleet/rollout", map[string]any{
		"model": "roll", "weights": map[string]int{"v1": 1},
	})
	if status != 200 || out["ok"] != true {
		t.Fatalf("rollout: HTTP %d body %v", status, out)
	}

	// Every replica's registry now routes "roll" to v1 — including replicas
	// that don't currently own the model's ring slot.
	for _, rp := range fleet.Replicas {
		routes := rp.Registry.Routes()
		if len(routes["roll"]) == 0 {
			t.Fatalf("%s has no route for \"roll\" after rollout: %v", rp.Name, routes)
		}
	}
	for i := 0; i < 5; i++ {
		if status, _, ver := inferVersion(t, front.URL, "roll"); status != 200 || ver != "v1" {
			t.Fatalf("post-rollout request %d: status=%d version=%q, want 200/v1", i, status, ver)
		}
	}

	// Rolling back to "latest" (empty weights clears the route) works too.
	status, out = postJSON(t, front.URL+"/fleet/rollout", map[string]any{
		"model": "roll", "weights": map[string]int{},
	})
	if status != 200 || out["ok"] != true {
		t.Fatalf("rollback: HTTP %d body %v", status, out)
	}
	if status, _, ver := inferVersion(t, front.URL, "roll"); status != 200 || ver != "v2" {
		t.Fatalf("post-rollback: status=%d version=%q, want 200/v2", status, ver)
	}
}

func TestFleetRolloutSkipsEjectedReplica(t *testing.T) {
	fleet := routertest.NewFleet(t, routertest.Options{Replicas: 2, WithRegistry: true})
	fleet.RegisterTiny("v1", "roll")
	fleet.RegisterTiny("v2", "roll")
	fleet.WaitReady(10 * time.Second)

	rt, err := router.New(router.Config{
		Replicas: fleet.URLs(), VNodes: 64,
		ProbeInterval: 15 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		EjectAfter:    2,
		RecoverAfter:  time.Hour,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	dead := fleet.Replicas[1]
	dead.SetFault(routertest.Fault503)
	waitFleet(t, rt, dead.URL(), 5*time.Second, "ejected",
		func(rv router.ReplicaView) bool { return rv.State == "ejected" })

	// The rollout reports partial failure (502, ok=false) but still shifts
	// the live replica — one dead box must not block the fleet.
	status, out := postJSON(t, front.URL+"/fleet/rollout", map[string]any{
		"model": "roll", "weights": map[string]int{"v1": 1},
	})
	if status != http.StatusBadGateway || out["ok"] != false {
		t.Fatalf("rollout with ejected replica: HTTP %d body %v, want 502/ok=false", status, out)
	}
	if routes := fleet.Replicas[0].Registry.Routes(); len(routes["roll"]) == 0 {
		t.Fatal("live replica's route was not shifted")
	}
	if routes := dead.Registry.Routes(); len(routes["roll"]) != 0 {
		t.Fatal("ejected replica unexpectedly received the route shift")
	}
}

// TestControlBodiesOverLimitAre413: a /fleet/drain, /fleet/undrain or
// /fleet/rollout body past the control limit is refused with 413 and leaves
// drain state and routes as they were, though its JSON is a valid request.
func TestControlBodiesOverLimitAre413(t *testing.T) {
	fleet := routertest.NewFleet(t, routertest.Options{Replicas: 2, WithRegistry: true})
	fleet.RegisterTiny("v1", "roll")
	fleet.RegisterTiny("v2", "roll")
	fleet.WaitReady(10 * time.Second)
	rt, err := router.New(router.Config{Replicas: fleet.URLs(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h := rt.Handler()
	post := func(path string, body map[string]any) int {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		return rec.Code
	}
	target := fleet.Replicas[0].URL()
	drained := func() bool {
		for _, rv := range rt.Fleet().Replicas {
			if rv.URL == target {
				return rv.Drained
			}
		}
		t.Fatalf("replica %s missing from the fleet view", target)
		return false
	}
	pad := strings.Repeat("x", 2<<20)

	if st := post("/fleet/drain", map[string]any{"replica": target, "pad": pad}); st != http.StatusRequestEntityTooLarge || drained() {
		t.Fatalf("oversized drain: HTTP %d, drained=%v; want 413 and no drain", st, drained())
	}
	if st := post("/fleet/drain", map[string]any{"replica": target}); st != http.StatusOK || !drained() {
		t.Fatalf("honest drain: HTTP %d, drained=%v", st, drained())
	}
	if st := post("/fleet/undrain", map[string]any{"replica": target, "pad": pad}); st != http.StatusRequestEntityTooLarge || !drained() {
		t.Fatalf("oversized undrain: HTTP %d, drained=%v; want 413 and still drained", st, drained())
	}
	rollout := map[string]any{"model": "roll", "weights": map[string]int{"v1": 1}, "pad": pad}
	if st := post("/fleet/rollout", rollout); st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized rollout: HTTP %d, want 413", st)
	}
	for _, rp := range fleet.Replicas {
		if routes := rp.Registry.Routes(); len(routes["roll"]) != 0 {
			t.Fatalf("oversized rollout shifted %s's routes: %v", rp.Name, routes)
		}
	}
}
