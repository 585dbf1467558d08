// Shared plumbing for the per-figure benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's evaluation.
// Simulated time is what matters, so each benchmark runs its experiment once
// (google-benchmark Iterations(1)) and reports the paper's series as
// counters: `Mops`, `avg_us`, etc. Wall time measured by the framework is
// just the cost of running the simulator.
//
// Each binary additionally declares an obs::BenchSpec and records its
// series points into a process-wide obs::BenchReport; with --bench-out=DIR
// the binary writes schema-versioned BENCH_<figure>.json (and, when a trace
// was captured, TRACE_<figure>.json) there. Binary-specific flags — all
// stripped before google-benchmark sees argv:
//
//   --bench-out=DIR         write BENCH_<figure>.json into DIR
//   --git-rev=SHA           provenance stamp for the JSON ("unknown" if unset)
//   --bench-measure-ms=M    per-point measurement window (default 2 ms of
//                           simulated time; CI smoke passes 0.25)
//   --bench-trace=N         sample every Nth request into a Chrome trace
//                           (end-to-end benches only)
//   --bench-canary=NAME     plant a regression the baseline gate MUST catch
//                           (never for real numbers): drop-shedding (fig16's
//                           shed-ON arm sheds nothing) or no-doorbell-batch
//                           (every cluster rings one doorbell per chained WR)
//
// Use HERD_BENCH_MAIN(figure, title, {series...}) instead of
// BENCHMARK_MAIN().
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/emulated_kv.hpp"
#include "cluster/cluster.hpp"
#include "herd/testbed.hpp"
#include "kv/partition.hpp"
#include "microbench/microbench.hpp"
#include "obs/bench_report.hpp"

namespace herd::bench {

// --- per-binary report and options ----------------------------------------

struct BenchOptions {
  std::string out_dir;              // --bench-out ("" = stdout numbers only)
  std::string git_rev = "unknown";  // --git-rev
  std::uint64_t trace_every = 0;    // --bench-trace
  double measure_ms = 2.0;          // --bench-measure-ms
  std::string canary;               // --bench-canary ("" = none)
};

inline BenchOptions& options() {
  static BenchOptions o;
  return o;
}

inline std::optional<obs::BenchReport>& report_slot() {
  static std::optional<obs::BenchReport> r;
  return r;
}

/// The binary's report (valid once HERD_BENCH_MAIN's main has started).
inline obs::BenchReport& report() { return *report_slot(); }

/// Measurement window honoring --bench-measure-ms.
inline sim::Tick measure_ticks() { return sim::ms(options().measure_ms); }
/// Warmup scales with the measurement window but never below 0.25 ms.
inline sim::Tick warmup_ticks() {
  return sim::ms(std::max(0.25, options().measure_ms / 2));
}

/// Folds one measured run into the report: its registry snapshot (the
/// per-layer evidence behind the figure's headline numbers), its flight
/// timeline as the TIMESERIES_ sidecar when one was recorded, and its
/// Chrome trace when one was captured. The report keeps the last run
/// folded.
inline void fold_run(const obs::Snapshot& snapshot,
                     const obs::Json& timeseries, std::string trace = {}) {
  if (!report_slot()) return;
  report().set_snapshot(snapshot);
  if (!timeseries.is_null()) report().set_timeseries(timeseries);
  if (!trace.empty()) report().set_trace(std::move(trace));
}

/// fold_run() for the most recent microbench run.
inline void fold_microbench() {
  const microbench::RunRecord& r = microbench::last_run();
  fold_run(r.snapshot, r.timeseries, r.trace_json);
}

/// fold_run() for a HERD testbed's last run (its Chrome trace under
/// --bench-trace); returns the run's p99 "tail".
inline obs::Json fold_herd(core::HerdTestbed& bed) {
  fold_run(bed.snapshot(), bed.timeseries_json(),
           options().trace_every > 0 ? bed.trace_json() : std::string());
  return obs::p99_tail_json(bed.tail());
}

/// Adds a point annotated with the most recent microbench run's bottleneck
/// attribution ("bottleneck" / "bottleneck_util" / "breakdown") and its
/// per-op p99 "tail" stage breakdown, and folds that run into the report.
inline void micro_point(const std::string& series, double x,
                        std::vector<std::pair<std::string, double>> metrics) {
  if (!report_slot()) return;
  const microbench::RunRecord& r = microbench::last_run();
  report().add_point(series, x, std::move(metrics), r.attr, r.tail);
  fold_microbench();
}

// --- end-to-end drivers ----------------------------------------------------

/// Uniform result row for the end-to-end comparisons (Figs. 9-13).
struct E2e {
  double mops = 0;
  double avg_us = 0;
  double p5_us = 0;
  double p95_us = 0;
  obs::Attribution attr;  // bottleneck attribution of the measure window
  /// p99 per-request stage breakdown (obs::tail_json shape) of the sampled
  /// "ok" requests; Null when tracing was off (--bench-trace=0).
  obs::Json tail;
};

struct E2eParams {
  double put_fraction = 0.05;   // read-intensive default
  std::uint32_t value_size = 32;
  std::uint32_t n_clients = 51;
  std::uint32_t window = 4;
  std::uint32_t n_server_procs = 6;
  bool zipf = false;
  core::RequestMode mode = core::RequestMode::kWriteUc;
};

/// Full HERD (real MICA backend) under the paper's §5.1 setup, folded into
/// the report (fold_herd).
inline E2e run_herd(const cluster::ClusterConfig& cc, const E2eParams& p,
                    sim::Tick warmup = 0, sim::Tick measure = 0) {
  if (warmup == 0) warmup = warmup_ticks();
  if (measure == 0) measure = measure_ticks();
  core::TestbedConfig cfg;
  cfg.cluster = cc;
  cfg.herd.n_server_procs = p.n_server_procs;
  cfg.herd.n_clients = p.n_clients;
  cfg.herd.window = p.window;
  cfg.herd.mode = p.mode;
  cfg.herd.inline_threshold = cc.name == "Susitna-RoCE" ? 192 : 144;
  // One machine-wide MICA budget, divided into per-core EREW partitions —
  // Fig. 13 sweeps cores against a *constant* memory budget, not one that
  // grows with the core count. At the default 6 processes this yields the
  // historical per-process sizing (2^15 buckets, 32 MB log).
  kv::MicaCache::Config machine;
  machine.bucket_count_log2 = 18;
  machine.log_bytes = 192u << 20;
  cfg.herd.mica =
      kv::PartitionPlan::split(machine, p.n_server_procs).partition(0);
  cfg.workload.get_fraction = 1.0 - p.put_fraction;
  cfg.workload.value_len = p.value_size;
  cfg.workload.n_keys = 1u << 16;
  cfg.workload.zipf = p.zipf;
  cfg.trace_sample_every = options().trace_every;
  core::HerdTestbed bed(cfg);
  auto r = bed.run(warmup, measure, cluster::kFlightWindows);
  obs::Json tail = fold_herd(bed);
  return E2e{r.mops,     r.avg_latency_us, r.p5_latency_us,
             r.p95_latency_us, bed.attribution(), std::move(tail)};
}

/// Emulated Pilaf / FaRM-KV under the same workload parameters, folded into
/// the report as run_herd's run is (they sample no requests: no tail or
/// trace).
inline E2e run_emulated(const cluster::ClusterConfig& cc,
                        baselines::System sys, const E2eParams& p,
                        sim::Tick warmup = 0, sim::Tick measure = 0) {
  if (warmup == 0) warmup = warmup_ticks();
  if (measure == 0) measure = measure_ticks();
  baselines::EmulatedConfig cfg;
  cfg.system = sys;
  cfg.cluster = cc;
  cfg.n_server_procs = p.n_server_procs;
  cfg.n_clients = p.n_clients;
  cfg.window = p.window;
  cfg.get_fraction = 1.0 - p.put_fraction;
  cfg.value_size = p.value_size;
  baselines::EmulatedKvTestbed bed(cfg);
  auto r = bed.run(warmup, measure);
  fold_run(bed.cluster().snapshot(), bed.timeseries_json());
  return E2e{r.mops,           r.avg_latency_us, r.p5_latency_us,
             r.p95_latency_us, bed.attribution(), {}};
}

/// True when --bench-canary planted the regression `name`.
inline bool canary(std::string_view name) { return options().canary == name; }

inline cluster::ClusterConfig apt() {
  cluster::ClusterConfig cc = cluster::ClusterConfig::apt();
  cc.doorbell_per_wr = canary("no-doorbell-batch");
  return cc;
}
inline cluster::ClusterConfig susitna() {
  cluster::ClusterConfig cc = cluster::ClusterConfig::susitna();
  cc.doorbell_per_wr = canary("no-doorbell-batch");
  return cc;
}

/// Applies the standard single-run setup to a benchmark.
inline benchmark::internal::Benchmark* one_shot(
    benchmark::internal::Benchmark* b) {
  return b->Iterations(1)->Unit(benchmark::kMillisecond);
}

// --- main ------------------------------------------------------------------

inline bool consume_flag(std::string_view arg, std::string_view prefix,
                         std::string& value) {
  if (arg.size() < prefix.size() || arg.substr(0, prefix.size()) != prefix) {
    return false;
  }
  value = std::string(arg.substr(prefix.size()));
  return true;
}

inline int bench_main(int argc, char** argv, obs::BenchSpec spec) {
  report_slot().emplace(std::move(spec));
  BenchOptions& opt = options();

  std::vector<char*> keep;
  keep.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (consume_flag(argv[i], "--bench-out=", v)) {
      opt.out_dir = v;
    } else if (consume_flag(argv[i], "--git-rev=", v)) {
      opt.git_rev = v;
    } else if (consume_flag(argv[i], "--bench-trace=", v)) {
      opt.trace_every = std::strtoull(v.c_str(), nullptr, 10);
    } else if (consume_flag(argv[i], "--bench-canary=", v)) {
      if (v != "drop-shedding" && v != "no-doorbell-batch") {
        std::fprintf(stderr,
                     "--bench-canary must be drop-shedding or "
                     "no-doorbell-batch\n");
        return 1;
      }
      opt.canary = v;
    } else if (consume_flag(argv[i], "--bench-measure-ms=", v)) {
      opt.measure_ms = std::strtod(v.c_str(), nullptr);
      if (opt.measure_ms <= 0) {
        std::fprintf(stderr, "--bench-measure-ms must be > 0\n");
        return 1;
      }
    } else {
      keep.push_back(argv[i]);
    }
  }
  microbench::set_trace_capture(opt.trace_every > 0);
  int kept = static_cast<int>(keep.size());
  benchmark::Initialize(&kept, keep.data());
  if (benchmark::ReportUnrecognizedArguments(kept, keep.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::BenchReport& rep = report();
  rep.set_git_rev(opt.git_rev);
  rep.set_config("measure_ms", obs::Json(opt.measure_ms));
  if (!opt.out_dir.empty()) {
    if (!rep.has_points()) {
      std::fprintf(stderr,
                   "--bench-out given but no series points were recorded "
                   "(did a --benchmark_filter exclude everything?)\n");
      return 1;
    }
    std::string path = rep.write(opt.out_dir);
    std::printf("bench report: %s\n", path.c_str());
  }
  return 0;
}

}  // namespace herd::bench

/// Replaces BENCHMARK_MAIN(): declares the figure's BenchSpec and installs
/// the flag-stripping main. Usage:
///   HERD_BENCH_MAIN("fig03", "Inbound throughput", {"WRITE_UC", "READ_RC"})
#define HERD_BENCH_MAIN(...)                                             \
  int main(int argc, char** argv) {                                      \
    return herd::bench::bench_main(argc, argv,                           \
                                   herd::obs::BenchSpec{__VA_ARGS__});   \
  }
