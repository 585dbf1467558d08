#include "microbench/throughput.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/core.hpp"
#include "microbench/microbench.hpp"
#include "sim/rng.hpp"
#include "verbs/verbs.hpp"

namespace herd::microbench {

namespace {

/// Keeps `window` verbs outstanding with selective signaling: every
/// `signal_every`-th verb is signaled; each signaled completion replenishes
/// a batch. A batch is built first, then consecutive WRs targeting the same
/// QP post as ONE WR chain — one doorbell and one (cheaper) chained
/// post_send charge on the issuing core instead of a full post per verb.
///
/// Every kTailSampleEvery-th *signaled* verb is tail-profiled, into the
/// cluster's profiler, under its trace id, which its wr_id also carries so
/// the completion can be matched; the profiler records issue -> doorbell
/// ("post_cpu") and doorbell -> completion ("net_rtt") — the two-stage
/// breakdown behind the microbench figures' per-point "tail" field.
class WindowPump {
 public:
  /// Builds the next WR and names the QP it goes to (all-to-all pumps pick
  /// a different QP per verb; chains never span QPs).
  using MakeFn =
      std::function<std::pair<verbs::Qp*, verbs::SendWr>(bool signaled)>;

  WindowPump(cluster::Cluster& cl, cluster::SequentialCore& core,
             verbs::Cq& cq, const TputSpec& spec, MakeFn make)
      : eng_(&cl.engine()),
        core_(&core),
        cq_(&cq),
        spec_(spec),
        cpu_(cl.config().cpu),
        tail_(&cl.tail()),
        ordinal_(next_pump_ordinal()),
        make_(std::move(make)) {
    cq_->set_notify([this]() { on_cq(); });
  }

  void start() { post_batch(spec_.window); }

 private:
  void post_batch(std::uint32_t n) {
    // Draw the whole batch first (deterministic order), then chain runs.
    std::vector<std::pair<verbs::Qp*, verbs::SendWr>> batch;
    batch.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ++seq_;
      bool signaled = seq_ % spec_.signal_every == 0;
      batch.push_back(make_(signaled));
      if (signaled && (seq_ / spec_.signal_every) % kTailSampleEvery == 0) {
        // One trace id per sampled verb (ordinal salt keeps concurrent
        // pumps apart): it keys the tail sample, and the RNIC pipeline
        // spans on both hosts carry it.
        std::uint64_t id = (std::uint64_t{ordinal_} << 32) | seq_;
        batch.back().second.wr_id = id;
        batch.back().second.trace_id = id;
        tail_->begin(id, eng_->now());
      }
    }
    std::size_t i = 0;
    while (i < batch.size()) {
      std::size_t j = i + 1;
      while (j < batch.size() && batch[j].first == batch[i].first) ++j;
      std::vector<verbs::SendWr> chain;
      chain.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) chain.push_back(batch[k].second);
      verbs::Qp* qp = batch[i].first;
      // The cost takes the chain length from j - i, not chain.size(): the
      // capture below may move `chain` out before the argument is read.
      core_->run(cpu_.chained_post_cost(j - i),
                 [this, qp, chain = std::move(chain)]() {
                   for (const verbs::SendWr& w : chain) {
                     if (w.wr_id != 0) {
                       tail_->stage(w.wr_id, "post_cpu", eng_->now());
                     }
                   }
                   qp->post_send(std::span<const verbs::SendWr>(chain));
                 });
      i = j;
    }
  }

  void on_cq() {
    // Batched CQ reaping: each wide poll drains up to 16 completions, and
    // the whole drain replenishes as one batch — larger chains under load.
    std::array<verbs::Wc, 16> wcs;
    std::size_t n;
    while ((n = cq_->poll(wcs)) > 0) {
      sim::Tick now = eng_->now();
      for (std::size_t k = 0; k < n; ++k) {
        if (wcs[k].wr_id != 0) {
          tail_->finish(wcs[k].wr_id, "ok", now, "net_rtt");
        }
      }
      post_batch(static_cast<std::uint32_t>(n) * spec_.signal_every);
    }
  }

  sim::Engine* eng_;
  cluster::SequentialCore* core_;
  verbs::Cq* cq_;
  TputSpec spec_;
  cluster::CpuModel cpu_;
  obs::TailProfiler* tail_;
  std::uint32_t ordinal_;
  MakeFn make_;
  std::uint64_t seq_ = 0;
};

/// One requester process: core + CQs + its QPs + buffers + pump.
struct Requester {
  std::unique_ptr<cluster::SequentialCore> core;
  std::unique_ptr<verbs::Cq> scq;
  std::unique_ptr<verbs::Cq> rcq;
  std::vector<std::unique_ptr<verbs::Qp>> qps;
  verbs::Mr mr{};
  sim::Pcg32 rng;  // seeded per process; picks a peer when there are several
  std::unique_ptr<WindowPump> pump;
};

TputSpec normalized(TputSpec spec) {
  if (spec.opcode == verbs::Opcode::kRead) {
    spec.signal_every = 1;  // READs need completions; cap the window at the
    spec.window = std::min(spec.window, 16u);  // RNIC's outstanding limit
  }
  return spec;
}

/// Builds the SendWr a requester posts toward (remote_mr, target_offset).
verbs::SendWr make_wr(const TputSpec& spec, const verbs::Mr& local,
                      const verbs::Mr& remote, std::uint64_t target_off,
                      bool signaled) {
  verbs::SendWr wr;
  wr.opcode = spec.opcode;
  wr.sge = {local.addr, spec.payload, local.lkey};
  wr.remote_addr = remote.addr + target_off;
  wr.rkey = remote.rkey;
  wr.inline_data = spec.inlined && spec.opcode != verbs::Opcode::kRead;
  wr.signaled = signaled;
  return wr;
}

/// Counts one direction of the server RNIC's verb pipeline.
std::function<std::uint64_t()> rnic_ops(cluster::Cluster& cl,
                                        bool inbound) {
  return [&cl, inbound]() -> std::uint64_t {
    const rnic::RnicCounters& c = cl.host(0).rnic().counters();
    return inbound ? c.rx_ops.value() : c.tx_ops.value();
  };
}

/// The inbound shape (Fig. 3, Fig. 6's inbound side, §3.3's many-to-one
/// test): `procs` requester processes, process i on client machine
/// 1 + i % `machines`, each with `qps` connections to the server (a verb
/// picks one at random when there are several) and issuing verbs at slot
/// (i * qps + j) * `stride` of one server MR. `host_mem` sizes every host
/// and that MR. Counts the server RNIC's inbound verb rate.
struct InboundShape {
  std::uint32_t procs;
  std::uint32_t machines;
  std::uint32_t qps;
  std::uint64_t host_mem;
  std::uint64_t stride;
};

double run_inbound(const char* name, const cluster::ClusterConfig& cfg,
                   const TputSpec& raw_spec, const InboundShape& shape,
                   sim::Tick measure) {
  Microbench mb(name, "Mops");
  const TputSpec spec = normalized(raw_spec);
  cluster::Cluster cl(cfg, 1 + shape.machines, shape.host_mem);
  auto& server = cl.host(0);
  auto server_cq = server.ctx().create_cq();
  auto smr = server.ctx().register_mr(
      0, shape.host_mem, {.remote_write = true, .remote_read = true});

  std::vector<std::unique_ptr<verbs::Qp>> server_qps;
  std::vector<Requester> reqs(shape.procs);
  for (std::uint32_t i = 0; i < shape.procs; ++i) {
    Requester& r = reqs[i];
    const std::uint32_t h = 1 + i % shape.machines;
    auto& host = cl.host(h);
    r.core = make_core(cl, "core.host" + std::to_string(h) + ".client" +
                               std::to_string(i));
    r.scq = host.ctx().create_cq();
    r.rcq = host.ctx().create_cq();
    r.mr = host.ctx().register_mr(0, 8192, {});
    r.rng = sim::Pcg32(17 + i, 23);
    for (std::uint32_t j = 0; j < shape.qps; ++j) {
      auto cqp = host.ctx().create_qp(
          {spec.transport, r.scq.get(), r.rcq.get()});
      auto sqp = server.ctx().create_qp(
          {spec.transport, server_cq.get(), server_cq.get()});
      cqp->connect(*sqp);
      r.qps.push_back(std::move(cqp));
      server_qps.push_back(std::move(sqp));
    }
    r.pump = std::make_unique<WindowPump>(
        cl, *r.core, *r.scq, spec,
        [&r, spec, smr, i, shape](bool signaled) {
          std::uint32_t j = shape.qps > 1 ? r.rng.next_below(shape.qps) : 0;
          std::uint64_t target =
              (std::uint64_t{i} * shape.qps + j) * shape.stride;
          return std::pair{r.qps[j].get(),
                           make_wr(spec, r.mr, smr, target, signaled)};
        });
  }
  for (auto& r : reqs) r.pump->start();
  return mb.publish(mb.measure_rate(cl, rnic_ops(cl, true), measure));
}

/// The outbound shape (Fig. 4, Fig. 6's outbound side): `procs` server
/// processes, each posting to client machine 1 + s, or (`all_to_all`) to a
/// random client per verb. Connected transports use one QP per
/// (process, client) pair and write client offset s * `stride`; UD uses one
/// QP per process, addressed per verb, and each client keeps `ud_recvs`
/// RECVs posted. `host_mem` sizes every host. Counts the server RNIC's
/// outbound verb rate.
struct OutboundShape {
  std::uint32_t procs;
  bool all_to_all;
  std::uint64_t host_mem;
  std::uint64_t stride;
  std::uint32_t ud_recvs;
};

double run_outbound(const char* name, const cluster::ClusterConfig& cfg,
                    const TputSpec& raw_spec, const OutboundShape& shape,
                    sim::Tick measure) {
  Microbench mb(name, "Mops");
  const TputSpec spec = normalized(raw_spec);
  const std::uint32_t n = shape.procs;
  cluster::Cluster cl(cfg, 1 + n, shape.host_mem);
  auto& server = cl.host(0);

  struct ClientSide {
    cluster::Host* host = nullptr;
    std::unique_ptr<verbs::Cq> cq;
    std::vector<std::unique_ptr<verbs::Qp>> qps;  // peers of server procs
    std::unique_ptr<verbs::Qp> ud;
    verbs::Mr mr{};
  };
  std::vector<ClientSide> clients(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ClientSide& cs = clients[i];
    cs.host = &cl.host(1 + i);
    cs.cq = cs.host->ctx().create_cq();
    cs.mr = cs.host->ctx().register_mr(
        0, 1u << 20, {.remote_write = true, .remote_read = true});
    if (spec.transport == verbs::Transport::kUd) {
      // UD SEND: the receiver must keep RECVs posted.
      cs.ud = cs.host->ctx().create_qp(
          {verbs::Transport::kUd, cs.cq.get(), cs.cq.get()});
      for (std::uint32_t k = 0; k < shape.ud_recvs; ++k) {
        cs.ud->post_recv({.wr_id = 0, .sge = {0, 4096, cs.mr.lkey}});
      }
      // Drain completions and repost (client CPU not modeled here:
      // "client machines often perform enough other work", §4.3).
      cs.cq->set_notify([&cs]() {
        verbs::Wc wc;
        while (cs.cq->poll({&wc, 1}) == 1) {
          if (wc.opcode == verbs::WcOpcode::kRecv) {
            cs.ud->post_recv({.wr_id = 0, .sge = {0, 4096, cs.mr.lkey}});
          }
        }
      });
    }
  }

  std::vector<Requester> procs(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    Requester& r = procs[s];
    r.core = make_core(cl, "core.host0.proc" + std::to_string(s));
    r.scq = server.ctx().create_cq();
    r.rcq = server.ctx().create_cq();
    r.mr = server.ctx().register_mr(std::uint64_t{s} * 8192, 8192, {});
    r.rng = sim::Pcg32(37 + s, 41);
    // Peers of process s: clients [first, last); a verb picks one.
    std::uint32_t first = shape.all_to_all ? 0 : s;
    std::uint32_t last = shape.all_to_all ? n : s + 1;
    auto peer = [&r, first, last]() {
      return last - first > 1 ? first + r.rng.next_below(last - first)
                              : first;
    };

    if (spec.transport == verbs::Transport::kUd) {
      auto ud = server.ctx().create_qp(
          {verbs::Transport::kUd, r.scq.get(), r.rcq.get()});
      verbs::Qp* uq = ud.get();
      r.qps.push_back(std::move(ud));
      r.pump = std::make_unique<WindowPump>(
          cl, *r.core, *r.scq, spec,
          [&r, uq, spec, &clients, peer](bool signaled) {
            const ClientSide& cs = clients[peer()];
            verbs::SendWr wr;
            wr.opcode = verbs::Opcode::kSend;
            wr.sge = {r.mr.addr, spec.payload, r.mr.lkey};
            wr.inline_data = spec.inlined;
            wr.signaled = signaled;
            wr.ah = verbs::Ah{&cs.host->ctx(), cs.ud->qpn()};
            return std::pair{uq, wr};
          });
    } else {
      for (std::uint32_t j = first; j < last; ++j) {
        auto sqp = server.ctx().create_qp(
            {spec.transport, r.scq.get(), r.rcq.get()});
        auto cqp = clients[j].host->ctx().create_qp(
            {spec.transport, clients[j].cq.get(), clients[j].cq.get()});
        sqp->connect(*cqp);
        r.qps.push_back(std::move(sqp));
        clients[j].qps.push_back(std::move(cqp));
      }
      std::uint64_t target = std::uint64_t{s} * shape.stride;
      r.pump = std::make_unique<WindowPump>(
          cl, *r.core, *r.scq, spec,
          [&r, spec, &clients, peer, first, target](bool signaled) {
            std::uint32_t j = peer();
            return std::pair{
                r.qps[j - first].get(),
                make_wr(spec, r.mr, clients[j].mr, target, signaled)};
          });
    }
  }
  for (auto& r : procs) r.pump->start();
  return mb.publish(mb.measure_rate(cl, rnic_ops(cl, false), measure));
}

}  // namespace

double inbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& spec,
                    std::uint32_t n_clients, sim::Tick measure) {
  return run_inbound("inbound_tput", cfg, spec,
                     {n_clients, n_clients, 1, 1u << 20, 4096}, measure);
}

double outbound_tput(const cluster::ClusterConfig& cfg, const TputSpec& spec,
                     std::uint32_t n_procs, sim::Tick measure) {
  return run_outbound("outbound_tput", cfg, spec,
                      {n_procs, false, 1u << 20, 0, 256}, measure);
}

double all_to_all_inbound(const cluster::ClusterConfig& cfg,
                          const TputSpec& spec, std::uint32_t n,
                          sim::Tick measure) {
  // One QP to each of the N "server processes" (N*N QPs total at MS).
  return run_inbound("all_to_all_inbound", cfg, spec, {n, n, n, 4u << 20, 256},
                     measure);
}

double all_to_all_outbound(const cluster::ClusterConfig& cfg,
                           const TputSpec& spec, std::uint32_t n,
                           sim::Tick measure) {
  return run_outbound("all_to_all_outbound", cfg, spec,
                      {n, true, 4u << 20, 256, 512}, measure);
}

double many_to_one_tput(const cluster::ClusterConfig& cfg,
                        const TputSpec& spec, std::uint32_t n_processes,
                        std::uint32_t n_machines, sim::Tick measure) {
  std::uint64_t server_mem = std::uint64_t{n_processes} * 256 + 4096;
  return run_inbound(
      "many_to_one_tput", cfg, spec,
      {n_processes, n_machines, 1,
       std::max<std::uint64_t>(server_mem, 1u << 20), 256},
      measure);
}

}  // namespace herd::microbench
