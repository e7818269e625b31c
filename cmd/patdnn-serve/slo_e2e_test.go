package main

// The scheduler's acceptance harness: patdnn-loadgen's generator (the exact
// Run/RunAll calls the binary wraps) drives a live patdnn-serve HTTP stack
// with more batch-class load than its bounded lane admits, and the run must
// show — asserted, not printed — what the scheduler itself can see:
//
//   1. zero expired-deadline requests executed (Stats.ExpiredExecuted == 0
//      while Stats.DeadlineSheds > 0 proves the deadline path actually ran),
//   2. bounded queue depth in /stats (every lane's depth and peak within the
//      configured capacity, with batch-class shedding proving the bound was
//      reached),
//   3. the interactive class untouched by the saturated batch class: every
//      interactive request answered, none shed.
//
// No assertion reads a latency. The pressure is structural rather than timed:
// one batch-lane sweep of the model below takes several times the batch
// stream's 2ms deadline, so whatever queues behind a running sweep expires
// there, and six clients against a depth-2 queue overflow it whenever a sweep
// is running.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"patdnn/internal/loadgen"
	"patdnn/internal/model"
	"patdnn/internal/serve"
)

// sloModel is a small end-to-end-servable network, heavy enough (~42M dense
// MACs: about 2ms per request on the batch lane's one worker here, 8ms for a
// full sweep) that a batch-lane sweep outlasts the batch stream's 2ms deadline
// on a machine several times faster, and by more on a slower one or under the
// race detector.
func sloModel() *model.Model {
	m := &model.Model{Name: "SLO-CNN", Short: "slo", Dataset: "synthetic",
		Classes: 4, InC: 8, InH: 32, InW: 32}
	m.Layers = []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: 8, OutH: 32, OutW: 32},
		{Name: "conv1", Kind: model.Conv, InC: 8, OutC: 64, KH: 3, KW: 3,
			Stride: 1, Pad: 1, Groups: 1, InH: 32, InW: 32, OutH: 32, OutW: 32},
		{Name: "relu1", Kind: model.ReLU, InC: 64, OutC: 64},
		{Name: "conv2", Kind: model.Conv, InC: 64, OutC: 64, KH: 3, KW: 3,
			Stride: 1, Pad: 1, Groups: 1, InH: 32, InW: 32, OutH: 32, OutW: 32},
		{Name: "relu2", Kind: model.ReLU, InC: 64, OutC: 64},
		{Name: "pool", Kind: model.MaxPool, InC: 64, OutC: 64, KH: 2, KW: 2,
			Stride: 2, InH: 32, InW: 32, OutH: 16, OutW: 16},
		{Name: "flatten", Kind: model.Flatten, InC: 64, InH: 16, InW: 16,
			OutC: 16384, OutH: 1, OutW: 1},
		{Name: "fc", Kind: model.FC, InC: 16384, OutC: 4, HasBias: true},
	}
	return m
}

const sloQueueDepth = 2

func TestSchedulerSLOEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load-generation scenario")
	}
	eng := serve.New(serve.Config{
		QueueDepth: sloQueueDepth,
		// On a single-core runner this still leaves batch sweeps one worker;
		// on real machines it pins them to a quarter of the pool.
		BatchWorkers: 1,
	})
	defer eng.Close()
	if err := eng.RegisterModel(sloModel()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(eng, nil))
	defer ts.Close()

	// Two closed-loop clients can never have more than two requests
	// outstanding, so the interactive lane's depth-2 queue cannot overflow:
	// any interactive shed below is the batch class leaking into it.
	interactive := loadgen.Spec{
		Name: "interactive", URL: ts.URL,
		Network: "slo", Dataset: "synthetic",
		Mode: "closed", Clients: 2, Requests: 200,
	}

	// The interactive stream while 6 closed-loop batch-class clients hammer a
	// depth-2 queue — far more offered load than the batch lane's bounded
	// queue admits, so admission control must shed — with a 2ms deadline, so
	// admitted requests die while queued behind a sweep (expiry or the
	// abandoning client's disconnect) and the lane must drop them before
	// compute.
	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			for _, q := range eng.Stats().Queues {
				if q.Depth > q.Capacity || q.Peak > q.Capacity || q.Capacity != sloQueueDepth {
					t.Errorf("queue bound violated mid-run: %+v", q)
					return
				}
			}
		}
	}()
	results, err := loadgen.RunAll(context.Background(), []loadgen.Spec{
		interactive,
		{
			Name: "background_batch", URL: ts.URL,
			Network: "slo", Dataset: "synthetic", Class: "batch",
			Mode: "closed", Clients: 6,
			Duration: 3 * time.Second,
			Timeout:  2 * time.Millisecond,
		},
	})
	close(stop)
	<-monitorDone
	if err != nil {
		t.Fatal(err)
	}
	loaded, batch := results[0], results[1]
	if loaded.OK != loaded.Sent || loaded.Failed > 0 || loaded.Shed > 0 {
		t.Fatalf("interactive stream degraded under batch load: %+v", loaded)
	}

	s := eng.Stats()
	if s.ExpiredExecuted != 0 {
		t.Fatalf("%d expired-deadline requests executed, want 0 (stats: %+v)", s.ExpiredExecuted, s)
	}
	for _, q := range s.Queues {
		if q.Depth > q.Capacity || q.Peak > q.Capacity {
			t.Fatalf("queue depth above bound: %+v", q)
		}
	}
	if s.ShedByClass["interactive"] != 0 {
		t.Fatalf("%d interactive requests shed under batch load: %v", s.ShedByClass["interactive"], s.ShedByClass)
	}
	// Counted at the server: a client whose 2ms ran out first books its 429 as
	// an expiry.
	if s.ShedByClass["batch"] == 0 {
		t.Fatalf("offered batch load never forced shedding (client 429s=%d, server sheds=%v)",
			batch.Shed, s.ShedByClass)
	}
	if s.DeadlineSheds == 0 {
		t.Fatal("no queued request expired: the deadline-shed path went unexercised")
	}
	t.Logf("interactive: %d/%d ok; batch: %d ok, %d shed (429), %d expired; server: shed=%v deadline_sheds=%d expired_executed=%d",
		loaded.OK, loaded.Sent, batch.OK, batch.Shed, batch.Expired,
		s.ShedByClass, s.DeadlineSheds, s.ExpiredExecuted)
}
