// The benchmark's model of a workload: a deployment it can build, run for
// measured windows of simulated time and read counters from, plus the
// generic end-to-end and traced (per-layer) measurement flows over it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "herd/testbed.hpp"
#include "report.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace sim = herd::sim;

/// Simulated results of one measured window. Identical at a given seed:
/// two deployments built alike must agree on every field.
struct SimWindow {
  double mops = 0;
  double p50_us = 0;  // client latency (0 when the workload has no clients)
  double p99_us = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t ops = 0;
  std::uint64_t events = 0;  // engine events over warm-up + window
  bool operator==(const SimWindow&) const = default;
};

/// The request stages whose share of p99 latency the traced run reports.
inline constexpr const char* kTailStages[] = {
    "chain_hold", "mica_op", "repl_fwd",    "net_in",
    "net_out",    "doorbell", "client_post", "drr_wait"};

/// How a deployment is built: as measured end to end, with the verbs
/// contract checker off (paired run), or with request tracing on.
enum class Variant { kPlain, kUnchecked, kTraced };

/// One deployment under measurement. run() folds every window's attempted
/// and failed operations into the report and marks the run incorrect on a
/// wrong value, a bad message or a contract violation.
class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual herd::cluster::Cluster& cluster() = 0;
  /// Runs `warmup`, then a measured window of `measure` simulated time.
  virtual SimWindow run(sim::Tick warmup, sim::Tick measure) = 0;
  /// Fills the client-latency fields of `w` from the last window; kept out
  /// of run() so host-timed windows do not pay for it.
  virtual void add_latency(SimWindow& w) { (void)w; }
  /// Service-level per-layer metrics of the last window: kv.hit_rate and
  /// herd.proc_imbalance. By default 0: no HERD service.
  virtual void report_service(Report& report);
  /// herd.p99_share.<stage> for each of kTailStages, from the sampled
  /// requests since the last clear_tail() of a kTraced deployment. By
  /// default 0: no HERD requests.
  virtual void report_tail(Report& report);
  void clear_tail() { cluster().tail().clear(); }
};

struct Workload {
  const char* name;
  sim::Tick warmup;   // before the deterministic window
  sim::Tick measure;  // the deterministic window
  sim::Tick segment;  // one host-timed window
  int setups;         // set-ups per run; setup_s is their median
  /// 0 for a workload in steady state: host-timed windows run back to
  /// back. Otherwise its backlog grows without bound, and every this many
  /// windows the deployment is rebuilt and warmed again, so that each
  /// window starts from the same simulated state.
  int round_segments = 0;
  std::function<std::unique_ptr<Deployment>(Variant, Report&)> make;
  /// Builds the deployment's cluster alone: same host count and memory.
  std::function<std::unique_ptr<herd::cluster::Cluster>()> build_cluster;
  /// Optional cross-check of a deterministic window against the program's
  /// own microbench for this workload; fails the report on disagreement.
  std::function<void(const SimWindow&, Report&)> check;
  /// Inputs of the MICA and protocol probes: the workload's own HERD
  /// configuration, or kv_read's where the workload has none.
  herd::core::TestbedConfig probe_inputs;
};

/// The kv workloads' testbed configuration (fig09's HERD point and its
/// variants); throws std::invalid_argument for an unknown name.
herd::core::TestbedConfig kv_config(const std::string& name,
                                    std::uint64_t seed, Variant v);

/// The kv workload named `name`, its inputs drawn from `seed`; false when
/// there is none.
bool find_kv_workload(const std::string& name, std::uint64_t seed,
                      Workload* out);
/// verbs_inbound, its inputs drawn from `seed`.
Workload verbs_inbound_workload(std::uint64_t seed);

void run_end_to_end(const Workload& w, const Args& args, Report& report);
void run_traced(const Workload& w, const Args& args, Report& report,
                Spans& spans);

/// Time per operation of each layer probe, median over repeated passes.
/// Inputs are drawn from `seed`, so a probe is repeatable at a seed.
namespace probe {

/// sim::Engine: one step() plus one schedule_at(), with `depth` events
/// pending throughout.
double sched_pop_ns(std::uint64_t depth, std::uint64_t seed);

/// sim::Resource::admit_at: arrivals `gap_ns` apart on average, each
/// holding the unit for `util` of that gap.
double admit_ns(double gap_ns, double util, std::uint64_t seed);

struct KvCost {
  double get_ns = 0;
  double put_ns = 0;
};
/// kv::MicaCache get/put on the first of the deployment's EREW partitions,
/// preloaded like the service preloads it, fed the GETs and PUTs of the
/// workload's key stream that route to that partition.
KvCost mica(const herd::core::TestbedConfig& cfg);

/// herd protocol: encode_request + decode_request of the workload's
/// requests with the deployment's wire headers, plus the matching
/// encode_response + decode_response.
double codec_ns(const herd::core::TestbedConfig& cfg);

}  // namespace probe

}  // namespace perfbench
