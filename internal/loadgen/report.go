package loadgen

// JSON artifact output: one case per stream with its outcome counts, latency
// quantiles and histogram buckets. CI uploads the report and asserts on it
// with jq (the fleet chaos step reads .cases[0].failed); no tool gates on its
// throughput or latency numbers.

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Schema identifies the report format.
const Schema = "patdnn/bench-serve/v2"

// Case is one stream's row in the report.
type Case struct {
	Name          string   `json:"name"`
	Clients       int      `json:"clients"`
	Requests      int      `json:"requests"`
	ThroughputRPS float64  `json:"throughput_rps"`
	P50Ms         float64  `json:"p50_ms"`
	P99Ms         float64  `json:"p99_ms"`
	ServedLevel   string   `json:"served_level,omitempty"`
	Class         string   `json:"class,omitempty"`
	Mode          string   `json:"mode,omitempty"`
	OfferedRPS    float64  `json:"offered_rps,omitempty"`
	MeanMs        float64  `json:"mean_ms,omitempty"`
	P95Ms         float64  `json:"p95_ms,omitempty"`
	OK            int      `json:"ok"`
	Shed          int      `json:"shed,omitempty"`
	Expired       int      `json:"expired,omitempty"`
	Failed        int      `json:"failed,omitempty"`
	Hist          []Bucket `json:"hist,omitempty"`
	// PerTarget carries the fleet breakdown (outcomes per replica/endpoint)
	// for multi-target or router-fronted runs.
	PerTarget map[string]Outcomes `json:"per_target,omitempty"`
}

// Report is the artifact written by WriteReport.
type Report struct {
	Schema    string    `json:"schema"`
	Model     string    `json:"model"`
	Go        string    `json:"go"`
	Workers   int       `json:"workers"`
	Timestamp time.Time `json:"timestamp"`
	Cases     []Case    `json:"cases"`
}

// NewReport assembles the report for a finished run; model names the target
// ("VGG/cifar10").
func NewReport(model string, results []*Result) *Report {
	rep := &Report{
		Schema:    Schema,
		Model:     model,
		Go:        runtime.Version(),
		Workers:   runtime.GOMAXPROCS(0),
		Timestamp: time.Now().UTC(),
	}
	for _, r := range results {
		rep.Cases = append(rep.Cases, Case{
			Name:          r.Name,
			Clients:       r.Clients,
			Requests:      r.Sent,
			ThroughputRPS: r.ThroughputRPS,
			P50Ms:         r.P50Ms,
			P99Ms:         r.P99Ms,
			ServedLevel:   r.ServedLevel,
			Class:         r.Class,
			Mode:          r.Mode,
			OfferedRPS:    r.OfferedRPS,
			MeanMs:        r.MeanMs,
			P95Ms:         r.P95Ms,
			OK:            r.OK,
			Shed:          r.Shed,
			Expired:       r.Expired,
			Failed:        r.Failed,
			Hist:          r.Hist.Buckets(),
			PerTarget:     r.PerTarget,
		})
	}
	return rep
}

// WriteReport writes the report as indented JSON to path.
func WriteReport(path, model string, results []*Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(NewReport(model, results)); err != nil {
		f.Close()
		return err
	}
	// A close error means a truncated artifact; surface it, don't mask it.
	return f.Close()
}
