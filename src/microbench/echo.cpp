#include "microbench/echo.hpp"

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/core.hpp"
#include "microbench/microbench.hpp"
#include "sim/rng.hpp"
#include "verbs/verbs.hpp"

namespace herd::microbench {

namespace {
constexpr std::uint32_t kSlot = 1024;
constexpr std::uint32_t kGrh = verbs::kGrhBytes;
}  // namespace

const char* echo_kind_name(EchoKind k) {
  switch (k) {
    case EchoKind::kSendSend:
      return "SEND/SEND";
    case EchoKind::kWriteWrite:
      return "WR/WR";
    case EchoKind::kWriteSend:
      return "WR/SEND";
  }
  return "?";
}

namespace {

struct Deployment {
  // Config digest.
  EchoKind kind;
  EchoOpts opts;
  bool unreliable, unsignaled, inlined;
  cluster::CpuModel cpu;

  std::unique_ptr<cluster::Cluster> cl;

  struct Proc {
    std::unique_ptr<cluster::SequentialCore> core;
    std::unique_ptr<verbs::Cq> scq, rcq;
    std::unique_ptr<verbs::Qp> ud;  // WR/SEND responses at opt>=1
    std::uint32_t resp_slot = 0;
  };
  std::vector<Proc> procs;
  verbs::Mr smr{};  // whole server arena

  struct Client {
    std::uint32_t id = 0, proc = 0;
    cluster::Host* host = nullptr;
    std::unique_ptr<cluster::SequentialCore> core;
    std::unique_ptr<verbs::Cq> scq, rcq;
    std::unique_ptr<verbs::Qp> qp;   // connected request channel
    std::unique_ptr<verbs::Qp> ud;   // UD response endpoint (WR/SEND)
    verbs::Mr mr{};
    std::uint64_t arena = 0;
    std::uint32_t slot = 0;
    std::uint64_t completed = 0;
    std::uint32_t outstanding = 0;
  };
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::unique_ptr<verbs::Qp>> server_qps;  // per client
  sim::Pcg32 jitter{99, 7};

  /// Tail sampling: client 0's every kTailSampleEvery-th echo is profiled,
  /// into the cluster's profiler, issue -> doorbell ("client_post") ->
  /// response arrival ("echo_rtt"). Responses aren't tagged, but a single
  /// client's echoes complete in issue order in the simulator, so a FIFO of
  /// (issue index, profiler id) matches them.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> tail_fifo;

  std::uint64_t req_base(std::uint32_t c, std::uint32_t w) const {
    return (std::uint64_t{c} * opts.window + w) * kSlot;
  }

  void respond(std::uint32_t s, std::uint32_t c);
  void serve(std::uint32_t s, std::uint32_t c);  // charge CPU then respond
  void client_issue(Client& cc);
  void client_done(Client& cc);
  void build(const cluster::ClusterConfig& cfg);

  sim::Tick server_cost() const {
    sim::Tick cost = cpu.post_send;
    cost += kind == EchoKind::kSendSend
                ? cpu.cq_poll + cpu.post_recv   // consume + repost RECV
                : cpu.poll_iteration;           // request-region polling
    if (opts.mem_accesses > 0) {
      if (opts.prefetch) {
        cost += cpu.pipeline_step +
                opts.mem_accesses *
                    (cpu.prefetch_issue + cpu.dram_access_prefetched);
      } else {
        cost += opts.mem_accesses * cpu.dram_access;
      }
    }
    return cost;
  }
};

void Deployment::respond(std::uint32_t s, std::uint32_t c) {
  Proc& p = procs[s];
  Client& cc = *clients[c];
  std::uint64_t stage =
      (std::uint64_t{clients.size()} * opts.window) * kSlot +
      (std::uint64_t{s} * 64 + p.resp_slot++ % 64) * kSlot;
  verbs::SendWr wr;
  wr.sge = {stage, opts.payload, smr.lkey};
  wr.inline_data = inlined && opts.payload <= 256;
  wr.signaled = !unsignaled;
  switch (kind) {
    case EchoKind::kSendSend:
      wr.opcode = verbs::Opcode::kSend;
      server_qps[c]->post_send(wr);
      break;
    case EchoKind::kWriteWrite:
      wr.opcode = verbs::Opcode::kWrite;
      wr.remote_addr = cc.arena + 4096;  // client response slot
      wr.rkey = cc.mr.rkey;
      server_qps[c]->post_send(wr);
      break;
    case EchoKind::kWriteSend:
      wr.opcode = verbs::Opcode::kSend;
      if (unreliable) {
        wr.ah = verbs::Ah{&cc.host->ctx(), cc.ud->qpn()};
        p.ud->post_send(wr);
      } else {
        server_qps[c]->post_send(wr);  // basic: SEND over the RC channel
      }
      break;
  }
}

void Deployment::serve(std::uint32_t s, std::uint32_t c) {
  procs[s].core->run(server_cost(), [this, s, c]() { respond(s, c); });
}

void Deployment::client_issue(Client& cc) {
  ++cc.outstanding;
  sim::Tick cost = cpu.post_send;
  bool recv_response = kind == EchoKind::kSendSend ||
                       (kind == EchoKind::kWriteSend);
  if (recv_response) cost += cpu.post_recv;
  std::uint64_t idx = cc.slot;  // issue index of this echo
  std::uint32_t w = cc.slot++ % opts.window;
  std::uint64_t tail_id = 0;
  if (cc.id == 0 && idx % kTailSampleEvery == 0) {
    tail_id = idx + 1;  // profiler key; 0 means "unsampled"
    cl->tail().begin(tail_id, cl->engine().now());
    tail_fifo.emplace_back(idx, tail_id);
  }
  cc.core->run(cost, [this, &cc, w, recv_response, tail_id]() {
    if (tail_id != 0) {
      cl->tail().stage(tail_id, "client_post", cl->engine().now());
    }
    if (recv_response) {
      std::uint64_t rbuf = cc.arena + 8192 + w * kSlot;
      verbs::Qp* rqp =
          (kind == EchoKind::kWriteSend && unreliable) ? cc.ud.get()
                                                       : cc.qp.get();
      rqp->post_recv({.wr_id = w, .sge = {rbuf, kSlot, cc.mr.lkey}});
    }
    verbs::SendWr wr;
    wr.sge = {cc.arena, opts.payload, cc.mr.lkey};
    wr.inline_data = inlined && opts.payload <= 256;
    wr.signaled = !unsignaled;
    if (kind == EchoKind::kSendSend) {
      wr.opcode = verbs::Opcode::kSend;
    } else {
      wr.opcode = verbs::Opcode::kWrite;
      wr.remote_addr = req_base(cc.id, w);
      wr.rkey = smr.rkey;
    }
    cc.qp->post_send(wr);
  });
}

void Deployment::client_done(Client& cc) {
  ++cc.completed;
  if (cc.id == 0) {
    sim::Tick now = cl->engine().now();
    while (!tail_fifo.empty() && tail_fifo.front().first < cc.completed) {
      cl->tail().finish(tail_fifo.front().second, "ok", now, "echo_rtt");
      tail_fifo.pop_front();
    }
  }
  if (cc.outstanding > 0) --cc.outstanding;
  while (cc.outstanding < opts.window) client_issue(cc);
}

/// Reaps send completions as they land. At opt levels 0-1 every send is
/// signaled; leaving the CQEs unread overruns the CQ ring (the contract
/// checker flags it, and real hardware corrupts the ring). Wide polls: one
/// drain call reaps up to 16 CQEs.
void drain_on_notify(verbs::Cq& cq) {
  cq.set_notify([&cq]() {
    std::array<verbs::Wc, 16> wcs;
    while (cq.poll(wcs) > 0) {
    }
  });
}

void Deployment::build(const cluster::ClusterConfig& cfg) {
  cpu = cfg.cpu;
  std::uint32_t n_hosts = (opts.n_clients + 2) / 3;
  std::uint64_t server_mem =
      (std::uint64_t{opts.n_clients} * opts.window +
       std::uint64_t{opts.n_server_procs} * 64) *
          kSlot +
      (64u << 10);
  cl = std::make_unique<cluster::Cluster>(cfg, 1 + n_hosts,
                                          std::max<std::uint64_t>(
                                              server_mem, 1u << 20));
  auto& server = cl->host(0);
  smr = server.ctx().register_mr(0, server_mem, {.remote_write = true});

  verbs::Transport req_tr = unreliable ? verbs::Transport::kUc
                                       : verbs::Transport::kRc;

  procs.resize(opts.n_server_procs);
  for (std::uint32_t s = 0; s < opts.n_server_procs; ++s) {
    Proc& p = procs[s];
    p.core = std::make_unique<cluster::SequentialCore>(cl->engine(), "p");
    p.scq = server.ctx().create_cq();
    p.rcq = server.ctx().create_cq();
    drain_on_notify(*p.scq);
    if (kind == EchoKind::kWriteSend) {
      p.ud = server.ctx().create_qp(
          {verbs::Transport::kUd, p.scq.get(), p.rcq.get()});
    }
  }

  for (std::uint32_t c = 0; c < opts.n_clients; ++c) {
    auto cc = std::make_unique<Client>();
    cc->id = c;
    cc->proc = c % opts.n_server_procs;
    cc->host = &cl->host(1 + c / 3);
    cc->core = std::make_unique<cluster::SequentialCore>(cl->engine(), "c");
    cc->scq = cc->host->ctx().create_cq();
    cc->rcq = cc->host->ctx().create_cq();
    drain_on_notify(*cc->scq);
    cc->arena = (c % 3) * (8192 + std::uint64_t{opts.window} * kSlot + 4096);
    cc->mr = cc->host->ctx().register_mr(
        cc->arena, 8192 + std::uint64_t{opts.window} * kSlot + 4096,
        {.remote_write = true});
    cc->qp = cc->host->ctx().create_qp(
        {req_tr, cc->scq.get(), cc->rcq.get()});
    Proc& p = procs[cc->proc];
    auto sqp = server.ctx().create_qp({req_tr, p.scq.get(), p.rcq.get()});
    cc->qp->connect(*sqp);
    server_qps.push_back(std::move(sqp));
    if (kind == EchoKind::kWriteSend && unreliable) {
      cc->ud = cc->host->ctx().create_qp(
          {verbs::Transport::kUd, cc->scq.get(), cc->rcq.get()});
    }

    // Response arrival hooks.
    if (kind == EchoKind::kWriteWrite) {
      cc->host->memory().add_watch(
          cc->arena + 4096, kSlot,
          [this, ccp = cc.get()](std::uint64_t, std::uint32_t) {
            ccp->core->run(cpu.poll_iteration,
                           [this, ccp]() { client_done(*ccp); });
          });
    } else {
      cc->rcq->set_notify([this, ccp = cc.get()]() {
        // Batched reap: one cq_poll charge covers each wide poll's drain.
        std::array<verbs::Wc, 16> wcs;
        std::size_t n;
        while ((n = ccp->rcq->poll(wcs)) > 0) {
          for (std::size_t i = 0; i < n; ++i) {
            if (wcs[i].opcode != verbs::WcOpcode::kRecv) continue;
            sim::Tick cost = i == 0 ? cpu.cq_poll : 0;
            ccp->core->run(cost, [this, ccp]() { client_done(*ccp); });
          }
        }
      });
    }
    clients.push_back(std::move(cc));
  }

  // Request arrival hooks at the server.
  if (kind == EchoKind::kSendSend) {
    // Pre-post RECVs per client channel; recv CQs are per proc.
    for (std::uint32_t c = 0; c < opts.n_clients; ++c) {
      for (std::uint32_t w = 0; w < opts.window; ++w) {
        // Reuse request-slot addresses as recv buffers.
        std::uint64_t buf = req_base(c, w);
        server_qps[c]->post_recv(
            {.wr_id = (std::uint64_t{c} << 16) | w,
             .sge = {buf, kSlot, smr.lkey}});
      }
    }
    for (std::uint32_t s = 0; s < opts.n_server_procs; ++s) {
      procs[s].rcq->set_notify([this, s]() {
        // Batched CQ reaping: drain the backlog in wide polls.
        std::array<verbs::Wc, 16> wcs;
        std::size_t n;
        while ((n = procs[s].rcq->poll(wcs)) > 0) {
          for (std::size_t i = 0; i < n; ++i) {
            const verbs::Wc& wc = wcs[i];
            if (wc.opcode != verbs::WcOpcode::kRecv) continue;
            auto c = static_cast<std::uint32_t>(wc.wr_id >> 16);
            auto w = static_cast<std::uint32_t>(wc.wr_id & 0xffff);
            // Repost happens inside serve()'s charged CPU cost.
            std::uint64_t buf = req_base(c, w);
            server_qps[c]->post_recv(
                {.wr_id = wc.wr_id, .sge = {buf, kSlot, smr.lkey}});
            serve(s, c);
          }
        }
      });
    }
  } else {
    for (std::uint32_t c = 0; c < opts.n_clients; ++c) {
      std::uint32_t s = clients[c]->proc;
      cl->host(0).memory().add_watch(
          req_base(c, 0), std::uint64_t{opts.window} * kSlot,
          [this, s, c](std::uint64_t, std::uint32_t) {
            // Idle-poll quantization, as in HERD's request region.
            Proc& p = procs[s];
            sim::Tick extra = 0;
            if (p.core->busy_until() <= cl->engine().now()) {
              extra = jitter.next_u64() % (64 * cpu.poll_iteration + 1);
            }
            if (extra == 0) {
              serve(s, c);
            } else {
              cl->engine().schedule_after(extra,
                                          [this, s, c]() { serve(s, c); });
            }
          });
    }
  }
}

}  // namespace

/// ECHO rate = client-observed completions (an echo isn't done until the
/// response lands back at the issuer, so RNIC op counts would overcount).
double echo_tput(const cluster::ClusterConfig& cfg, EchoKind kind,
                 const EchoOpts& opts, sim::Tick measure) {
  Microbench mb("echo_tput", "Mops");
  Deployment d;
  d.kind = kind;
  d.opts = opts;
  d.unreliable = opts.opt_level >= 1;
  d.unsignaled = opts.opt_level >= 2;
  d.inlined = opts.opt_level >= 3;
  d.build(cfg);

  for (auto& c : d.clients) {
    while (c->outstanding < opts.window) d.client_issue(*c);
  }
  return mb.publish(mb.measure_rate(
      *d.cl,
      [&d]() {
        std::uint64_t n = 0;
        for (auto& c : d.clients) n += c->completed;
        return n;
      },
      measure));
}

}  // namespace herd::microbench
