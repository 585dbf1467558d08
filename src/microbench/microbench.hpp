// Shared microbench harness (`herd::microbench`).
//
// Every driver (verb latency, verb throughput, ECHO) runs the same
// protocol: build a cluster, start traffic, warm up, measure, then refuse
// to report if the verbs contract checker saw any misuse — a bad posting
// skews the number rather than crashing, so a dirty run is not a result.
// Microbench centralizes that protocol plus the end-of-run registry
// snapshot, so each driver only describes its deployment and what to count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tail.hpp"

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
/// the trace ids of sampled ops so concurrent pumps never collide. Reset at
/// the start of every Microbench::run().
std::uint32_t next_pump_ordinal();

/// Base class for microbench drivers. Subclasses implement execute() —
/// build the deployment, start traffic, and return the headline value via
/// the protected helpers, which enforce the contract gate and capture the
/// snapshot. Drivers that build several clusters (verb latency) call
/// finish() per cluster; the record keeps the last snapshot.
class Microbench {
 public:
  Microbench(std::string name, std::string unit) {
    record_.name = std::move(name);
    record_.unit = std::move(unit);
  }
  virtual ~Microbench() = default;

  /// Runs the bench and returns the headline value. Also publishes the
  /// RunRecord through last_run() (member and namespace-level).
  double run(const cluster::ClusterConfig& cfg);

  const RunRecord& last_run() const { return record_; }

 protected:
  virtual double execute(const cluster::ClusterConfig& cfg) = 0;

  /// Rate protocol: 1 ms warm-up, latch `count`, run `measure` of
  /// simulated time, finish(), and return the delta in Mops.
  double measure_rate(cluster::Cluster& cl,
                      const std::function<std::uint64_t()>& count,
                      sim::Tick measure);

  /// Contract gate + registry snapshot. Call once per cluster, after its
  /// traffic is done; throws on any recorded verbs-contract violation.
  /// Folds any finished tail samples into the record (p99 of outcome "ok")
  /// and resets the profiler, so multi-cluster drivers keep the last
  /// cluster's breakdown — same convention as the snapshot.
  void finish(cluster::Cluster& cl);

  /// Per-op tail profiler the driver's pumps mark stages into, keyed by
  /// each sampled op's trace id. Sampling cadence is the driver's choice
  /// (every Nth op), and the overhead is simulator-side only.
  obs::TailProfiler& tail() { return tail_; }

 private:
  RunRecord record_;
  obs::TailProfiler tail_;
};

/// Record of the most recent Microbench::run() in this process. The free
/// driver wrappers (inbound_tput, echo_tput, ...) keep their plain-double
/// signatures; bench binaries read the matching snapshot from here.
const RunRecord& last_run();

}  // namespace herd::microbench
