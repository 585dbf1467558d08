// verbs_inbound: the fig03 point. 16 client machines each keep a window of
// 32-byte inline WRITEs over UC in flight to one server machine; no HERD
// service, no kv. microbench::inbound_tput owns its cluster, so the engine
// is out of reach there; this file builds the same deployment from the
// cluster and verbs layers, and checks its simulated throughput against
// inbound_tput's at the same seed.
#include <array>
#include <span>
#include <vector>

#include "bench.hpp"
#include "cluster/core.hpp"
#include "microbench/throughput.hpp"
#include "verbs/verbs.hpp"

namespace perfbench {

namespace {

namespace cluster = herd::cluster;
namespace microbench = herd::microbench;
namespace verbs = herd::verbs;

constexpr std::uint32_t kClients = 16;
constexpr std::size_t kHostMemory = 1u << 20;
// inbound_tput's warm-up before its measured window.
constexpr sim::Tick kWarmup = sim::ms(1);
constexpr sim::Tick kMeasure = sim::us(250);

microbench::TputSpec tput_spec() {
  microbench::TputSpec s;
  s.opcode = verbs::Opcode::kWrite;
  s.transport = verbs::Transport::kUc;
  s.inlined = true;
  s.payload = 32;
  return s;
}

cluster::ClusterConfig cluster_config(std::uint64_t seed, Variant v) {
  cluster::ClusterConfig cfg = cluster::ClusterConfig::apt();
  cfg.fabric.seed ^= seed * 0x9E3779B97F4A7C15ULL;
  cfg.contract_check = v != Variant::kUnchecked;
  return cfg;
}

/// Keeps spec.window verbs in flight from one requester, as inbound_tput's
/// pump does: every signal_every-th verb is signaled, each reaped
/// completion replenishes signal_every verbs, and a batch posts as one WR
/// chain (one doorbell) after the core pays the chained post cost.
class Pump {
 public:
  Pump(cluster::SequentialCore& core, verbs::Cq& cq, verbs::Qp& qp,
       const verbs::SendWr& wr, const microbench::TputSpec& spec,
       const cluster::CpuModel& cpu)
      : core_(&core), cq_(&cq), qp_(&qp), wr_(wr), spec_(spec), cpu_(cpu) {
    cq_->set_notify([this] { on_cq(); });
  }
  Pump(const Pump&) = delete;
  Pump& operator=(const Pump&) = delete;

  void start() { post(spec_.window); }

 private:
  void post(std::uint32_t n) {
    std::vector<verbs::SendWr> chain(n, wr_);
    for (verbs::SendWr& w : chain) {
      w.signaled = ++seq_ % spec_.signal_every == 0;
    }
    core_->run(cpu_.chained_post_cost(n), [this, chain = std::move(chain)] {
      qp_->post_send(std::span<const verbs::SendWr>(chain));
    });
  }

  void on_cq() {
    std::array<verbs::Wc, 16> wcs;
    int n;
    while ((n = cq_->poll(wcs)) > 0) {
      post(static_cast<std::uint32_t>(n) * spec_.signal_every);
    }
  }

  cluster::SequentialCore* core_;
  verbs::Cq* cq_;
  verbs::Qp* qp_;
  verbs::SendWr wr_;
  microbench::TputSpec spec_;
  cluster::CpuModel cpu_;
  std::uint64_t seq_ = 0;
};

class InboundDeployment final : public Deployment {
 public:
  InboundDeployment(const cluster::ClusterConfig& cfg, Variant v,
                    Report& report)
      : cl_(cfg, 1 + kClients, kHostMemory), report_(&report) {
    const microbench::TputSpec spec = tput_spec();
    cluster::Host& server = cl_.host(0);
    server_cq_ = server.ctx().create_cq();
    verbs::Mr smr = server.ctx().register_mr(
        0, kHostMemory, {.remote_write = true, .remote_read = true});
    requesters_.resize(kClients);
    for (std::uint32_t i = 0; i < kClients; ++i) {
      Requester& r = requesters_[i];
      cluster::Host& host = cl_.host(1 + i);
      r.core = std::make_unique<cluster::SequentialCore>(cl_.engine(), "c");
      r.scq = host.ctx().create_cq();
      r.rcq = host.ctx().create_cq();
      verbs::Mr mr = host.ctx().register_mr(0, 8192, {});
      r.qp = host.ctx().create_qp({spec.transport, r.scq.get(), r.rcq.get()});
      r.server_qp = server.ctx().create_qp(
          {spec.transport, server_cq_.get(), server_cq_.get()});
      r.qp->connect(*r.server_qp);
      verbs::SendWr wr;
      wr.opcode = spec.opcode;
      wr.sge = {mr.addr, spec.payload, mr.lkey};
      wr.remote_addr = smr.addr + std::uint64_t{i} * 4096;
      wr.rkey = smr.rkey;
      wr.inline_data = spec.inlined;
      r.pump = std::make_unique<Pump>(*r.core, *r.scq, *r.qp, wr, spec,
                                      cfg.cpu);
    }
    if (v == Variant::kTraced) {
      // What inbound_tput's trace capture does: one sampling window open
      // over the whole run, so every span the cluster's tracer sees is kept.
      cl_.tracer().enable(1);
      cl_.tracer().sample();
    }
  }

  cluster::Cluster& cluster() override { return cl_; }

  SimWindow run(sim::Tick warmup, sim::Tick measure) override {
    if (!started_) {
      for (Requester& r : requesters_) r.pump->start();
      started_ = true;
    }
    sim::Engine& eng = cl_.engine();
    std::uint64_t e0 = eng.events_processed();
    eng.run_until(eng.now() + warmup);
    const herd::rnic::RnicCounters& c = cl_.host(0).rnic().counters();
    std::uint64_t rx0 = c.rx_ops.value();
    std::uint64_t lost0 = c.dropped_packets.value() + c.access_errors.value();
    cl_.resources().begin_window();
    eng.run_until(eng.now() + measure);
    SimWindow w;
    w.ops = c.rx_ops.value() - rx0;
    w.mops = measure > 0
                 ? static_cast<double>(w.ops) / sim::to_sec(measure) / 1e6
                 : 0;
    w.events = eng.events_processed() - e0;
    report_->count(w.ops, c.dropped_packets.value() +
                              c.access_errors.value() - lost0);
    if (cl_.contract_violations() > 0) {
      report_->fail("verbs contract violated:\n" +
                    cl_.contract_diagnostics());
    }
    return w;
  }

 private:
  struct Requester {
    std::unique_ptr<cluster::SequentialCore> core;
    std::unique_ptr<verbs::Cq> scq;
    std::unique_ptr<verbs::Cq> rcq;
    std::unique_ptr<verbs::Qp> qp;
    std::unique_ptr<verbs::Qp> server_qp;
    std::unique_ptr<Pump> pump;  // last: refers to the members above
  };

  cluster::Cluster cl_;
  Report* report_;
  std::unique_ptr<verbs::Cq> server_cq_;
  std::vector<Requester> requesters_;
  bool started_ = false;
};

}  // namespace

Workload verbs_inbound_workload(std::uint64_t seed) {
  Workload w;
  w.name = "verbs_inbound";
  w.warmup = kWarmup;
  w.measure = kMeasure;
  w.segment = sim::us(125);
  // The server port's backlog grows for as long as the clients send.
  w.round_segments = 8;
  // Set-up is a small cluster build, a few ms: take the median of many.
  w.setups = 21;
  w.make = [seed](Variant v, Report& report) {
    return std::make_unique<InboundDeployment>(cluster_config(seed, v), v,
                                               report);
  };
  w.build_cluster = [seed] {
    return std::make_unique<cluster::Cluster>(
        cluster_config(seed, Variant::kPlain), 1 + kClients, kHostMemory);
  };
  w.check = [seed](const SimWindow& win, Report& report) {
    double mops =
        microbench::inbound_tput(cluster_config(seed, Variant::kPlain),
                                 tput_spec(), kClients, kMeasure);
    if (mops != win.mops) {
      report.fail("deployment gives " + std::to_string(win.mops) +
                  " Mops where microbench::inbound_tput gives " +
                  std::to_string(mops));
    }
  };
  // No kv traffic here: the MICA and protocol probes run kv_read's inputs.
  w.probe_inputs = kv_config("kv_read", seed, Variant::kPlain);
  return w;
}

}  // namespace perfbench
