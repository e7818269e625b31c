// Command benchmark is the repository's ruler: four serving workloads, seven
// end-to-end metrics each, and a layer ledger from a traced run. README.md in
// this directory says what each number means and which should move when.
//
// The driver runs one workload per process:
//
//	benchmark --workload vgg_stream --seed 1 --seconds 15 --trace 0
//
// and reads the last line of standard output, one JSON object. Without
// --workload the command runs every workload that way, untraced and traced,
// and writes the combined results for -compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeconds = 15
	defaultWarmup  = 3 * time.Second
	defaultOutDir  = "benchmark/out"
)

// environment is the block every result carries.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SIMDArch   string `json:"simd_arch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		SIMDArch: kernelArch(), CPUModel: cpuModel(), Commit: headCommit(),
	}
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// headCommit reads the checked-out commit from .git without running git; the
// driver's checkout has no .git, and says "unknown".
func headCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print the driver's JSON line (default: run all)")
		seed     = flag.Int64("seed", 1, "seed of the workload's input tensors")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured time per run")
		trace    = flag.Int("trace", 0, "1: trace half the measured time and take the layer ledger; print per-layer metrics")
		smoke    = flag.Bool("smoke", false, "2 s measured after a 1 s warm-up: checks the plumbing, not the numbers")
		corrupt  = flag.Bool("corrupt-reference", false, "perturb one reference value; the run must fail")
		outDir   = flag.String("out", defaultOutDir, "directory for artifacts, traces and result files")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		repeat   = flag.Int("repeat", 0, "run N untraced sets on seeds seed..seed+N-1 and print the run-to-run spread")
		jsonPath = flag.String("json", "", "with no -workload: where to write the combined results (default <out>/results.json)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	// More Ps than CPUs time-slices the kernels against each other and the
	// numbers stop meaning one machine's capacity.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal("GOMAXPROCS=%d exceeds the %d CPUs of this machine; refusing to run", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	warmup := defaultWarmup
	if *smoke {
		*seconds, warmup = 2, time.Second
		if *trace != 0 {
			*seconds *= 2
		}
	}

	if *repeat > 0 {
		os.Exit(runRepeat(*seed, *seconds, *smoke, *outDir, *repeat))
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *smoke, *corrupt, *outDir, *jsonPath))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal("unknown workload %q", *name)
	}
	res, err := run(runConfig{Workload: w, Seed: *seed, Seconds: *seconds, Warmup: warmup, Trace: *trace != 0,
		CorruptReference: *corrupt, OutDir: *outDir, Log: os.Stdout})
	if err != nil {
		fatal("%s: %v", w.Name, err)
	}
	printResult(os.Stdout, res)
	if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("result_%s_trace%d.json", w.Name, *trace)), res); err != nil {
		fatal("%v", err)
	}
	fmt.Println(driverLine(res, *trace != 0))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints every metric by name with its unit and its sample
// count, and beside the floor how far the floors of the run's halves lie
// apart.
func printResult(out io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(out, "# env: nproc %d, GOMAXPROCS %d, %s, simd %s, cpu %q, commit %s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.SIMDArch, e.CPUModel, e.Commit)
	fmt.Fprintf(out, "# attempted %d, failed %d, failed_share %.6f\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	printSet := func(specs []metricSpec, values map[string]metricValue) {
		for _, sp := range specs {
			v, ok := values[sp.Name]
			if !ok {
				continue
			}
			spread := ""
			if v.Spread > 0 {
				spread = fmt.Sprintf("  halves %.1f%% apart", 100*v.Spread)
			}
			fmt.Fprintf(out, "%-12s %-26s %14.6g %-8s n=%d%s\n", res.Workload, sp.Name, v.Value, v.Unit, v.Samples, spread)
		}
	}
	printSet(endToEndSpecs, res.EndToEnd)
	if res.PerLayer != nil {
		fmt.Fprintln(out, "# per layer; *_bytes are computed from tensor sizes, not measured")
		printSet(perLayerSpecs, res.PerLayer)
	}
}

// driverLine is the last line of a run: the object the driver reads.
func driverLine(res *result, traced bool) string {
	values := res.EndToEnd
	if traced {
		values = res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(values))
	for name, v := range values {
		ms[name] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		fatal("%v", err)
	}
	return string(line)
}

// resultsFile is what a run of all workloads leaves for -compare: one result
// per workload, the traced run's layer metrics merged into the untraced
// run's end-to-end ones.
type resultsFile struct {
	Results []*result `json:"results"`
}

// runChild re-executes this binary for one workload, so that set-up time,
// peak RSS and every cache are that workload's alone, and reads the result
// file it leaves.
func runChild(w workload, seed int64, seconds float64, trace int, smoke, corrupt bool, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir}
	if smoke {
		args = append(args, "-smoke")
	}
	if corrupt {
		args = append(args, "-corrupt-reference")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	var res result
	data, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("result_%s_trace%d.json", w.Name, trace)))
	if err != nil {
		return nil, fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s: %w", w.Name, runErr)
	}
	return &res, nil
}

// runAll runs every workload, untraced then traced, and writes the combined
// results. It returns the exit code.
func runAll(seed int64, seconds float64, smoke, corrupt bool, outDir, jsonPath string) int {
	code := 0
	var file resultsFile
	for _, w := range workloads {
		res, err := runChild(w, seed, seconds, 0, smoke, corrupt, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
			if res == nil {
				continue
			}
		}
		traced, err := runChild(w, seed, seconds, 1, smoke, corrupt, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
		if traced != nil {
			res.PerLayer = traced.PerLayer
		}
		file.Results = append(file.Results, res)
	}
	if jsonPath == "" {
		jsonPath = filepath.Join(outDir, "results.json")
	}
	if err := writeJSON(jsonPath, file); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("# results written to %s\n", jsonPath)
	return code
}

// runRepeat prints, per workload and end-to-end metric, how far n untraced
// runs on n seeds lie apart: the range and the interquartile distance, each
// as a share of the median, against the metric's bound.
func runRepeat(seed int64, seconds float64, smoke bool, outDir string, n int) int {
	code := 0
	values := map[string][]float64{} // "workload metric" → one value per run
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			res, err := runChild(w, seed+int64(i), seconds, 0, smoke, false, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				continue
			}
			for name, v := range res.EndToEnd {
				key := w.Name + " " + name
				values[key] = append(values[key], v.Value)
			}
		}
	}
	fmt.Printf("# %d runs per workload, seeds %d..%d\n", n, seed, seed+int64(n)-1)
	fmt.Printf("%-12s %-18s %14s %9s %9s %7s\n", "workload", "metric", "median", "range", "iqr", "bound")
	for _, w := range workloads {
		for _, sp := range endToEndSpecs {
			xs := values[w.Name+" "+sp.Name]
			if len(xs) < 2 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			note := ""
			if (q3-q1)/med > sp.Bound/3 {
				note = "  iqr above a third of the bound"
			}
			fmt.Printf("%-12s %-18s %14.6g %8.2f%% %8.2f%% %6.1f%%%s\n", w.Name, sp.Name, med,
				100*(slices.Max(xs)-slices.Min(xs))/med, 100*(q3-q1)/med, 100*sp.Bound, note)
		}
	}
	return code
}
