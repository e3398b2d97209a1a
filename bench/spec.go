package main

import "hybridpde/internal/serve"

// shape is one problem shape a workload requests.
type shape struct {
	problem string
	n       int
}

// workload is one declared traffic mix. The names are fixed: later issues
// cite them. Rates are constants, never calibrated at run time, so two
// commits always see the same offered load.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same text).
	why string
	// gateway routes the load through a cluster.Gateway over two one-worker
	// backends; otherwise it goes straight to one serve.Server.
	gateway bool
	// stream posts to /v1/stream and reads NDJSON frames.
	stream bool
	// replay solves identities once in set-up; every timed request is then an
	// exact cache hit. Otherwise every request carries a fresh seed (0 % hits).
	replay bool
	analog bool
	shapes []shape
	steps  int
	// openRate is the open-loop phase's offered rate in requests (or streams)
	// per second.
	openRate float64
	// traceN is how many generated inputs the traced run replays serially.
	traceN int
}

// replayIdentities is how many identities per shape fleet-replay solves in
// set-up and then replays.
const replayIdentities = 256

var workloads = []workload{
	{
		name:     "solve-miss",
		why:      "0% hits: digital burgers2d n=16 straight to one server, open 120 rps; nonlin/pde/la are at least 95% of latency, so solver work shows and serving work must not",
		shapes:   []shape{{serve.KindBurgers2D, 16}},
		openRate: 120,
		traceN:   400,
	},
	{
		name:     "solve-seeded",
		why:      "0% hits: analog-seeded burgers2d n=8, open 15 rps; the paper's pipeline, analog/ode host time dominates, so a solver-kernel change predicts no change here",
		analog:   true,
		shapes:   []shape{{serve.KindBurgers2D, 8}},
		openRate: 15,
		traceN:   200,
	},
	{
		name:     "fleet-replay",
		why:      "100% exact hits through the gateway over two backends, three shapes, open 200 rps; cluster, serve and cache.Get do all the work and the solver none",
		gateway:  true,
		replay:   true,
		shapes:   []shape{{serve.KindBurgersSteady, 8}, {serve.KindBurgers2D, 12}, {serve.KindBurgers1D, 1024}},
		openRate: 200,
		traceN:   400,
	},
	{
		name:     "stream",
		why:      "256-step burgers2d n=12 streams through the gateway, open 8 streams/s; chord reuse makes it triangular-solve- and flush-bound, and it uses the stream relay path",
		gateway:  true,
		stream:   true,
		shapes:   []shape{{serve.KindBurgers2D, 12}},
		steps:    256,
		openRate: 8,
		traceN:   100,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists what a user of the service sees, measured with tracing off.
// Every workload reports every metric: a buffered reply is a response of one
// frame, so there ttff is the time to the first response byte, frame_gap the
// wait for the whole reply and frames_per_s the reply rate. The bounds are
// three times the spread of ten runs on a quiet shared two-core box, capped
// at the quarter the benchmark contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ttff_p50_ms", "ms", "lower", 0.25},
	{"ttff_p90_ms", "ms", "lower", 0.25},
	{"frame_gap_p90_ms", "ms", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
}

// perLayer lists the single-layer numbers of the traced run. A layer that is
// not on a workload's request path reports 0 there.
var perLayer = []metricDef{
	{name: "cluster.hop_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.route_us_p50", unit: "us", better: "lower"},
	{name: "cluster.batch_size_mean", unit: "count", better: "higher"},
	{name: "cluster.dedup_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "cluster.route_share_max", unit: "ratio", better: "lower"},
	{name: "cluster.stream_relay_us_per_frame", unit: "us", better: "lower"},
	{name: "serve.queue_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.queue_ms_p99", unit: "ms", better: "lower"},
	{name: "serve.solve_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.codec_us_p50", unit: "us", better: "lower"},
	{name: "serve.shed_ratio", unit: "ratio", better: "lower"},
	{name: "serve.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.latency_max_ms", unit: "ms", better: "lower"},
	{name: "serve.first_frame_ms_p50", unit: "ms", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.warm_ratio", unit: "ratio", better: "higher"},
	{name: "cache.miss_ratio", unit: "ratio", better: "lower"},
	{name: "cache.flight_waits", unit: "count", better: "lower"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "cache.key_us_p50", unit: "us", better: "lower"},
	{name: "cache.get_us_p50", unit: "us", better: "lower"},
	{name: "cache.put_us_p50", unit: "us", better: "lower"},
	{name: "cache.nearest_us_p50", unit: "us", better: "lower"},
	{name: "core.model_ms_mean", unit: "model-ms", better: "lower"},
	{name: "core.ladder_ms_p50", unit: "ms", better: "lower"},
	{name: "core.self_ms_p50", unit: "ms", better: "lower"},
	{name: "core.rung_attempts_mean", unit: "count", better: "lower"},
	{name: "core.seed_reject_ratio", unit: "ratio", better: "lower"},
	{name: "core.degraded_ratio", unit: "ratio", better: "lower"},
	{name: "core.golden_rms_err_max", unit: "rms", better: "lower"},
	{name: "core.timeloop_ms_per_step", unit: "ms", better: "lower"},
	{name: "core.first_step_ms", unit: "ms", better: "lower"},
	{name: "analog.seed_ms_p50", unit: "ms", better: "lower"},
	{name: "analog.seed_share", unit: "ratio", better: "lower"},
	{name: "analog.settle_tau_p50", unit: "tau", better: "lower"},
	{name: "analog.seed_rms_err_p50", unit: "rms", better: "lower"},
	{name: "analog.seed_accept_ratio", unit: "ratio", better: "higher"},
	{name: "analog.build_ms", unit: "ms", better: "lower"},
	{name: "nonlin.newton_ms_p50", unit: "ms", better: "lower"},
	{name: "nonlin.self_ms_p50", unit: "ms", better: "lower"},
	{name: "nonlin.iters_mean", unit: "count", better: "lower"},
	{name: "nonlin.linear_solves_mean", unit: "count", better: "lower"},
	{name: "nonlin.refactor_ratio", unit: "ratio", better: "lower"},
	{name: "nonlin.damping_attempts_mean", unit: "count", better: "lower"},
	{name: "pde.eval_us_p50", unit: "us", better: "lower"},
	{name: "pde.jacobian_us_p50", unit: "us", better: "lower"},
	{name: "la.factor_us_p50", unit: "us", better: "lower"},
	{name: "la.trisolve_us_p50", unit: "us", better: "lower"},
	{name: "la.spmv_us_p50", unit: "us", better: "lower"},
	{name: "la.norm_us_p50", unit: "us", better: "lower"},
	{name: "la.factor_madds", unit: "count", better: "lower"},
	{name: "la.band_bytes", unit: "B", better: "lower"},
	{name: "la.factor_gflops", unit: "Gflop/s", better: "higher"},
	{name: "par.fanout_us_p50", unit: "us", better: "lower"},
	{name: "par.speedup_p2", unit: "x", better: "higher"},
	{name: "bench.gen_late_ms_p99", unit: "ms", better: "lower"},
	{name: "trace.coverage_ratio", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}
