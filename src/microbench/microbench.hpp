// Shared microbench harness (`herd::microbench`).
//
// Every driver (verb latency, verb throughput, ECHO) runs the same
// protocol: build a cluster, start traffic, warm up, measure, then refuse
// to report if the verbs contract checker saw any misuse — a bad posting
// skews the number rather than crashing, so a dirty run is not a result.
// Each public driver is a plain function that builds its deployment and
// runs it through one Microbench, which owns that protocol, the end-of-run
// registry snapshot, and the RunRecord; drivers only describe the
// deployment and what to count. Sampled ops are tail-profiled into the
// cluster's own profiler (Cluster::tail()).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/core.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace herd::microbench {

/// What one driver run produced: the headline number plus the cluster's
/// full metric snapshot at measurement end (retransmissions, cache churn,
/// PCIe traffic — the "why" behind the headline).
struct RunRecord {
  std::string name;
  std::string unit;  // "Mops" or "us"
  double value = 0;
  obs::Snapshot snapshot;
  /// Bottleneck attribution over the measurement window (empty when the
  /// driver did not use measure_rate / attribute the run).
  obs::Attribution attr;
  /// Flight-recorder "herd-timeseries/1" document for the measurement
  /// window (Null when not recorded).
  obs::Json timeseries;
  /// Per-op p99 stage breakdown (obs::tail_json shape) of the sampled ops
  /// that completed "ok"; Null when the driver sampled nothing.
  obs::Json tail;
  /// Trace ids of the sampled ops `tail` was cut from, in finish order —
  /// a read-only view for checking that each sampled op finished once.
  std::vector<std::uint64_t> tail_ids;
  /// Chrome-trace export ("herd-trace/2") of the measurement window when
  /// trace capture was requested (set_trace_capture); empty otherwise.
  /// Multi-cluster drivers keep the last cluster's trace, same convention
  /// as the snapshot.
  std::string trace_json;
};

/// Turns Chrome-trace capture on (true) or off for subsequent runs: the
/// measurement window of each cluster is recorded through the cluster's
/// pre-wired tracer and exported into RunRecord::trace_json. Bench binaries
/// set this from --bench-trace.
void set_trace_capture(bool on);
bool trace_capture();

/// Deterministic per-run ordinal for pump/driver instances, used to salt
/// the trace ids of sampled ops so concurrent pumps never collide. Reset by
/// every Microbench constructor.
std::uint32_t next_pump_ordinal();

/// Sampling cadence of every driver: each kTailSampleEvery-th op (of
/// signaled verbs, for the throughput pumps) is tail-profiled.
inline constexpr std::uint32_t kTailSampleEvery = 16;

/// The harness one driver run goes through. Drivers that build several
/// clusters (verb latency) call finish() per cluster; the record keeps the
/// last snapshot.
class Microbench {
 public:
  Microbench(std::string name, std::string unit);

  /// Rate protocol: 1 ms warm-up, latch `count`, run `measure` of
  /// simulated time, finish(), and return the delta in Mops.
  double measure_rate(cluster::Cluster& cl,
                      const std::function<std::uint64_t()>& count,
                      sim::Tick measure);

  /// Contract gate + registry snapshot. Call once per cluster, after its
  /// traffic is done; throws on any recorded verbs-contract violation.
  /// Folds the finished samples of the cluster's tail profiler into the
  /// record (p99 of outcome "ok") and clears it, so multi-cluster drivers
  /// keep the last cluster's breakdown — same convention as the snapshot.
  void finish(cluster::Cluster& cl);

  /// Records `value` as the headline, publishes the RunRecord through
  /// last_run(), and returns `value`.
  double publish(double value);

 private:
  RunRecord record_;
};

/// A driver process's core, registered in the cluster's resource directory
/// under `name` ("core.host<h>.client<i>", "core.host0.proc<s>"), so
/// attribution can name it (class "core.client" / "core.proc") when it
/// bounds the rate.
std::unique_ptr<cluster::SequentialCore> make_core(cluster::Cluster& cl,
                                                   const std::string& name);

/// Record of the most recent published run in this process. The drivers
/// (inbound_tput, echo_tput, ...) keep their plain-double signatures;
/// bench binaries read the matching snapshot from here.
const RunRecord& last_run();

}  // namespace herd::microbench
