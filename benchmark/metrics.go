package main

// The names, units and directions of every metric the benchmark prints.
// BENCHMARK.json at the root of the repository repeats them for the driver;
// a test holds the two together.

// metricSpec describes one metric. Bound is set on end-to-end metrics only:
// the share of the parent's median by which the metric may get worse before a
// change counts as a regression. Exact marks counts that must repeat exactly
// between two runs of the same code.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

var endToEndSpecs = []metricSpec{
	{Name: "latency_floor_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "alloc_kb_per_req", Unit: "KB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "plan_bytes", Unit: "B", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "artifact_bytes", Unit: "B", Better: "lower", Bound: 0.01, Exact: true},
}

var perLayerSpecs = []metricSpec{
	{Name: "codegen.conv3x3_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.conv3x3_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "codegen.conv3x3_mmac", Unit: "MMAC", Better: "lower", Exact: true},
	{Name: "codegen.conv3x3_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "codegen.conv3x3_s2_ms", Unit: "ms", Better: "lower"},
	{Name: "simd.tile_mac_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "codegen.conv1x1_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.conv1x1_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "codegen.conv1x1_mmac", Unit: "MMAC", Better: "lower", Exact: true},
	{Name: "codegen.conv1x1_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "tensor.fc_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.fc_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.pool_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.convt_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.q8_over_fp32", Unit: "ratio", Better: "lower"},
	{Name: "codegen.packed_nodes", Unit: "count", Better: "higher", Exact: true},
	{Name: "codegen.tuned_nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "execgraph.run_b1_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "execgraph.run_b1_ms", Unit: "ms", Better: "lower"},
	{Name: "execgraph.run_b8_ms", Unit: "ms", Better: "lower"},
	{Name: "execgraph.glue_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "serve.infer_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size", Unit: "count", Better: "higher"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.req_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.deadline_sheds", Unit: "count", Better: "lower"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	{Name: "serve.plan_compiles", Unit: "count", Better: "lower"},
	{Name: "router.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "router.spills", Unit: "count", Better: "lower"},
	{Name: "router.no_eligible", Unit: "count", Better: "lower"},
	{Name: "router.owner_share", Unit: "ratio", Better: "higher"},
	{Name: "patdnn.compile_s", Unit: "s", Better: "lower"},
	{Name: "modelfile.write_s", Unit: "s", Better: "lower"},
	{Name: "modelfile.read_s", Unit: "s", Better: "lower"},
	{Name: "execgraph.fromfile_s", Unit: "s", Better: "lower"},
	{Name: "execgraph.compile_s", Unit: "s", Better: "lower"},
	{Name: "registry.load_s", Unit: "s", Better: "lower"},
	{Name: "tunedb.cold_compile_s", Unit: "s", Better: "lower"},
	{Name: "tunedb.warm_compile_s", Unit: "s", Better: "lower"},
	{Name: "tunedb.warm_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "execgraph.nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "execgraph.fused_ops", Unit: "count", Better: "higher", Exact: true},
	{Name: "execgraph.arena_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "loadgen.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.throughput_rps", Unit: "req/s", Better: "higher"},
	{Name: "loadgen.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "loadgen.client_ms", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number. Samples is how many requests,
// repetitions or set-ups it rests on. Spread is set on latency_floor_ms only:
// how far the floors of the two halves of the run lie apart, as a share of
// the value. The floor of a quiet half repeats, so a wide spread says that a
// neighbour covered at least one half and may have covered both.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples"`
}

// metricSet collects values against a spec list, so that a name the spec does
// not know cannot be reported and a name it knows cannot be left out.
type metricSet struct {
	specs  []metricSpec
	values map[string]metricValue
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, values: make(map[string]metricValue, len(specs))}
}

func (s *metricSet) set(name string, value float64, samples int) {
	s.put(name, metricValue{Value: value, Samples: samples})
}

func (s *metricSet) put(name string, v metricValue) {
	v.Unit = s.spec(name).Unit
	s.values[name] = v
}

func (s *metricSet) spec(name string) metricSpec {
	for _, sp := range s.specs {
		if sp.Name == name {
			return sp
		}
	}
	panic("benchmark: metric " + name + " is not in the spec")
}

// missing lists the spec names without a value.
func (s *metricSet) missing() []string {
	var out []string
	for _, sp := range s.specs {
		if _, ok := s.values[sp.Name]; !ok {
			out = append(out, sp.Name)
		}
	}
	return out
}
