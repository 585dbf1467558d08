// The three HERD workloads, each a core::HerdTestbed: kv_read (the fig09
// HERD point), kv_write_repl and kv_many_clients.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "kv/partition.hpp"

namespace perfbench {

namespace {

namespace cluster = herd::cluster;
namespace core = herd::core;

struct KvSpec {
  const char* name;
  std::uint32_t clients;
  std::uint32_t window;  // requests each closed-loop client keeps in flight
  double get_fraction;
  bool zipf;
  bool replicate;  // with request tokens: the replication forward/ack path
  sim::Tick measure;
  sim::Tick segment;
};

// kv_many_clients is bursty: its deterministic window is longer, so that
// sim_mops moves little from seed to seed.
const KvSpec kSpecs[] = {
    {"kv_read", 51, 4, 0.95, false, false, sim::ms(1), sim::us(250)},
    {"kv_write_repl", 51, 4, 0.50, true, true, sim::ms(1), sim::us(250)},
    {"kv_many_clients", 320, 16, 0.95, false, false, sim::ms(4),
     sim::us(500)},
};

constexpr std::uint32_t kServerProcs = 6;
// Traced deployments open a sampling window on every Nth request.
constexpr std::uint64_t kTraceEvery = 64;

const KvSpec& spec_of(const std::string& name) {
  for (const KvSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown kv workload " + name);
}

class KvDeployment final : public Deployment {
 public:
  KvDeployment(const core::TestbedConfig& cfg, Report& report)
      : bed_(cfg), report_(&report) {}

  herd::cluster::Cluster& cluster() override { return bed_.cluster(); }

  SimWindow run(sim::Tick warmup, sim::Tick measure) override {
    sim::Engine& eng = bed_.cluster().engine();
    std::uint64_t e0 = eng.events_processed();
    last_ = bed_.run(warmup, measure);
    std::uint64_t issued = 0;
    for (std::size_t i = 0; i < bed_.num_clients(); ++i) {
      issued += bed_.client(i).stats().issued;
    }
    report_->count(issued, last_.bad + last_.value_mismatches +
                               last_.deadline_exceeded + last_.get_misses);
    if (last_.value_mismatches > 0) report_->fail("GET returned a wrong value");
    if (last_.bad > 0) report_->fail("bad request or response");
    if (bed_.contract_violations() > 0) {
      report_->fail("verbs contract violated:\n" +
                    bed_.contract_diagnostics());
    }
    SimWindow w;
    w.mops = last_.mops;
    w.ops = last_.ops;
    w.events = eng.events_processed() - e0;
    return w;
  }

  void add_latency(SimWindow& w) override {
    sim::LatencyHistogram lat;
    for (std::size_t i = 0; i < bed_.num_clients(); ++i) {
      lat.merge(bed_.client(i).latency());
    }
    w.p50_us = lat.p50_ns() / 1e3;
    w.p99_us = lat.p99_ns() / 1e3;
    w.latency_samples = lat.count();
  }

  void report_service(Report& report) override {
    double gets = static_cast<double>(last_.get_hits + last_.get_misses);
    report.add("kv.hit_rate",
               gets > 0 ? static_cast<double>(last_.get_hits) / gets : 0,
               "ratio",
               "of " + std::to_string(last_.get_hits + last_.get_misses) +
                   " GETs");
    std::vector<double> procs = bed_.per_proc_mops();
    double mean = 0;
    for (double p : procs) mean += p / static_cast<double>(procs.size());
    report.add("herd.proc_imbalance",
               *std::max_element(procs.begin(), procs.end()) / mean, "ratio",
               "max/mean of " + std::to_string(procs.size()) +
                   " server procs, mean " + std::to_string(mean) + " Mops");
  }

  void report_tail(Report& report) override {
    // The p99 cut is one request, which may be a GET that never passes
    // repl_fwd; the shares are taken over every sampled request at or past
    // it instead.
    const herd::obs::TailProfiler& tail = bed_.tail();
    double p99_us = tail.quantile("ok", 0.99).total_us;
    std::map<std::string, double> stage_ticks;
    double total = 0;
    std::size_t n = 0;
    for (const herd::obs::TailProfiler::Sample& s : tail.samples()) {
      if (s.outcome != "ok" || sim::to_us(s.total) < p99_us) continue;
      ++n;
      total += static_cast<double>(s.total);
      for (const auto& [name, t] : s.stages) {
        stage_ticks[name] += static_cast<double>(t);
      }
    }
    std::string base = "over the " + std::to_string(n) + " of " +
                       std::to_string(tail.count("ok")) +
                       " sampled requests at or past p99 " +
                       std::to_string(p99_us) + " us";
    for (const char* stage : kTailStages) {
      report.add(std::string("herd.p99_share.") + stage,
                 total > 0 ? stage_ticks[stage] / total : 0, "ratio", base);
    }
  }

 private:
  core::HerdTestbed bed_;
  Report* report_;
  core::HerdTestbed::RunResult last_;
};

}  // namespace

core::TestbedConfig kv_config(const std::string& name, std::uint64_t seed,
                              Variant v) {
  const KvSpec& s = spec_of(name);
  const bool traced = v == Variant::kTraced;
  // fig09's MICA sizing: one machine-wide budget split into per-core EREW
  // partitions.
  herd::kv::MicaCache::Config machine;
  machine.bucket_count_log2 = 18;
  machine.log_bytes = 192u << 20;
  core::TestbedConfig base;
  base.herd.mica =
      herd::kv::PartitionPlan::split(machine, kServerProcs).partition(0);
  return core::TestbedConfigBuilder(base)
      .cluster(cluster::ClusterConfig::apt())
      .server_procs(kServerProcs)
      .clients(s.clients)
      .window(s.window)
      .inline_threshold(144)
      .value_len(32)
      .get_fraction(s.get_fraction)
      .n_keys(1u << 16)
      .zipf(s.zipf, 0.99)
      // Server-side stage attribution needs the trace header, which rides
      // behind the request token.
      .request_tokens(s.replicate || traced)
      .replicate(s.replicate)
      .trace(traced)
      .trace_sample_every(traced ? kTraceEvery : 0)
      .verify_values(true)
      .contract_check(v != Variant::kUnchecked)
      .seed(seed)
      .build();
}

bool find_kv_workload(const std::string& name, std::uint64_t seed,
                      Workload* out) {
  for (const KvSpec& s : kSpecs) {
    if (name != s.name) continue;
    out->name = s.name;
    out->warmup = sim::us(500);
    out->measure = s.measure;
    out->segment = s.segment;
    out->setups = 3;
    std::string n = s.name;
    out->make = [n, seed](Variant v, Report& report) {
      return std::make_unique<KvDeployment>(kv_config(n, seed, v), report);
    };
    out->build_cluster = [n, seed] {
      // Testbed sizing: every host gets the larger of the server's and a
      // client host's memory.
      core::TestbedConfig cfg = kv_config(n, seed, Variant::kPlain);
      std::uint32_t hosts = 1 + (cfg.herd.n_clients + cfg.clients_per_host -
                                 1) / cfg.clients_per_host;
      std::uint64_t mem = std::max(
          core::HerdService::required_memory(cfg.herd),
          std::uint64_t{cfg.clients_per_host} *
                  core::HerdClient::arena_bytes(cfg.herd) +
              (16u << 10));
      return std::make_unique<cluster::Cluster>(cfg.cluster, hosts, mem);
    };
    out->probe_inputs = kv_config(n, seed, Variant::kPlain);
    return true;
  }
  return false;
}

}  // namespace perfbench
