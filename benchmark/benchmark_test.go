package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"patdnn"
)

func TestPercentileIsNearestRankByExactSort(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestFloorMeanIsTheMeanOfTheFastestShare(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- { // 1..200, fastest last
		xs = append(xs, float64(i))
	}
	if got := floorMean(xs, 0.02); got != 2.5 { // the fastest 4: 1, 2, 3, 4
		t.Errorf("floor of 1..200 at 2%% = %g, want 2.5", got)
	}
	if xs[0] != 200 {
		t.Error("floorMean sorted its argument in place")
	}
	// A short sample still averages floorAtLeast values, and a neighbour that
	// doubles most of the run leaves the floor where it was.
	if got := floorMean([]float64{9, 30, 11, 10, 20}, 0.02); got != 10 {
		t.Errorf("floor of a short sample = %g, want the mean of its fastest %d, 10", got, floorAtLeast)
	}
	quiet := []float64{10, 10.2, 10.1, 10.3, 10.2, 10.1, 10, 10.4, 10.2, 10.1}
	noisy := []float64{10, 19.5, 17, 10.3, 20.4, 15, 10.1, 18, 12.2, 16}
	if a, b := floorMean(quiet, 0.02), floorMean(noisy, 0.02); math.Abs(a-b) > 0.2 {
		t.Errorf("floors %g and %g differ, medians %g and %g", a, b, median(quiet), median(noisy))
	}
	if got := floorMean([]float64{7}, 0.02); got != 7 {
		t.Errorf("floor of one value = %g", got)
	}
	if got := floorMean(nil, 0.02); got != 0 {
		t.Errorf("floor of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
}

// The driver measures spread with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4}) // Python: [1.0, 2.0, 4.0]
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g, want 1, 4", q1, q3)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	root := spanID(1, 0)
	spans := []span{
		{ID: root, Request: 1, Name: spanCaller, StartNs: 0, EndNs: 100},
		// Overlapping children cover 10..50 once; the last reaches past the
		// parent's end and is clipped there: 90..100.
		{ID: 101, Parent: root, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 102, Parent: root, Name: "b", StartNs: 20, EndNs: 50},
		{ID: 103, Parent: root, Name: "c", StartNs: 90, EndNs: 120},
		{ID: 201, Parent: 102, Name: "d", StartNs: 25, EndNs: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{root: 50, 101: 20, 102: 10, 103: 30, 201: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if spanID(7, 1)>>2 != 7 || spanID(7, 0) == 0 {
		t.Error("span IDs must carry their request and never be 0, the root's parent")
	}
}

func TestSameSeedGivesByteIdenticalInputs(t *testing.T) {
	a, b := generateInputs(7, 4, 3*32*32), generateInputs(7, 4, 3*32*32)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a, generateInputs(8, 4, 3*32*32)) {
		t.Error("another seed gave the same inputs")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("inputs of one seed are not distinct")
	}
}

func TestCheckOutputCatchesOnePerturbedValue(t *testing.T) {
	ref := []float32{0.1, 0.7, 0.2}
	resp := &patdnn.InferResponse{Shape: [3]int{3, 1, 1}, Output: []float32{0.1, 0.7001, 0.2}, ArgMax: 1}
	if err := checkOutput(resp, ref); err != nil {
		t.Errorf("output within tolerance rejected: %v", err)
	}
	if err := checkOutput(resp, []float32{1.1, 0.7, 0.2}); err == nil {
		t.Error("a reference perturbed by 1 was accepted")
	}
	resp.ArgMax = 2
	if err := checkOutput(resp, ref); err == nil {
		t.Error("a classifier reply with the wrong argmax was accepted")
	}
	resp.Output = []float32{0.1, float32(math.NaN()), 0.2}
	if err := checkOutput(resp, ref); err == nil {
		t.Error("NaN was accepted")
	}
}

func TestVerdict(t *testing.T) {
	lat := metricSpec{Name: "latency_floor_ms", Better: "lower", Bound: 0.08}
	rps := metricSpec{Name: "ok_share", Better: "higher", Bound: 0.08}
	exact := metricSpec{Name: "plan_bytes", Better: "lower", Bound: 0.01, Exact: true}
	for _, c := range []struct {
		sp   metricSpec
		a, b metricValue
		want string
	}{
		{lat, metricValue{Value: 10}, metricValue{Value: 10.7}, verdictOK},
		{lat, metricValue{Value: 10}, metricValue{Value: 11}, verdictRegressed},
		{lat, metricValue{Value: 10}, metricValue{Value: 5}, verdictOK},
		{lat, metricValue{Value: 10, Spread: 0.2}, metricValue{Value: 11}, verdictUnresolved},
		{rps, metricValue{Value: 100}, metricValue{Value: 90}, verdictRegressed},
		{rps, metricValue{Value: 100}, metricValue{Value: 120}, verdictOK},
		{exact, metricValue{Value: 100}, metricValue{Value: 100}, verdictOK},
		{exact, metricValue{Value: 100}, metricValue{Value: 99}, verdictNondet},
	} {
		if _, got := verdict(c.sp, c.a, c.b); got != c.want {
			t.Errorf("%s %g -> %g (spread %g): %s, want %s", c.sp.Name, c.a.Value, c.b.Value, c.a.Spread, got, c.want)
		}
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONAgreesWithTheProgram(t *testing.T) {
	spec := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if want := fmt.Sprintf("p%g", workloads[i].TailPct); !strings.Contains(w.Why, want) {
			t.Errorf("workload %s: why does not name its tail percentile %s", w.Name, want)
		}
	}
	if len(spec.EndToEnd) != len(endToEndSpecs) || len(spec.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, the program %d + %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndSpecs), len(perLayerSpecs))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		sp := endToEndSpecs[i]
		if m.Name != sp.Name || m.Unit != sp.Unit || m.Better != sp.Better || m.Bound != sp.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, sp)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %+v breaks the contract's limits", m)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range spec.PerLayer {
		sp := perLayerSpecs[i]
		if m.Name != sp.Name || m.Unit != sp.Unit || m.Better != sp.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, sp)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %+v breaks the contract's limits", m)
		}
		seen[m.Name] = true
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v, command %v", spec.Paths, spec.Command)
	}
}

// The smoke pass: every workload and metric BENCHMARK.json names is printed
// with a unit and a sample count, and the driver's line carries exactly the
// metric set its trace flag selects. It asserts no timing.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	line := regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)`)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && w.Name == "rnt_stream" {
				t.Skip("ResNet-50 set-up takes half a minute")
			}
			t.Parallel()
			var log bytes.Buffer
			outDir := t.TempDir()
			res, err := run(runConfig{Workload: w, Seed: 1, Seconds: 2, Warmup: 200 * time.Millisecond,
				Trace: true, OutDir: outDir, Log: &log})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			printResult(&log, res)
			units := map[string]string{}
			for _, l := range strings.Split(log.String(), "\n") {
				if m := line.FindStringSubmatch(l); m != nil && m[1] == w.Name {
					units[m[2]] = m[4]
				}
			}
			for _, m := range spec.EndToEnd {
				if units[m.Name] != m.Unit {
					t.Errorf("%s printed with unit %q, want %q", m.Name, units[m.Name], m.Unit)
				}
				if res.EndToEnd[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			for _, m := range spec.PerLayer {
				if units[m.Name] != m.Unit {
					t.Errorf("%s printed with unit %q, want %q", m.Name, units[m.Name], m.Unit)
				}
			}
			for traced, want := range map[bool]int{false: len(spec.EndToEnd), true: len(spec.PerLayer)} {
				var got struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(driverLine(res, traced)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != want {
					t.Errorf("driver line (traced %v) has %d metrics, want %d, or lacks a key", traced, len(got.Metrics), want)
				}
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace_"+w.Name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
