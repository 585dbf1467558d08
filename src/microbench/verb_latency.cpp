#include "microbench/verb_latency.hpp"

#include <array>
#include <memory>

#include "microbench/microbench.hpp"
#include "sim/stats.hpp"
#include "verbs/verbs.hpp"

namespace herd::microbench {

namespace {

// Every kTailSampleEvery-th ping is tail-profiled into the cluster's
// profiler. One op is in flight at a time, so the whole latency is a single
// honest "net_rtt" (or "echo_rtt") stage — the breakdown trivially sums to
// the end-to-end number.

/// Ping-pong driver for one signaled verb type. Contract gating and
/// snapshotting are the caller's job (Microbench::finish).
double signaled_latency(cluster::Cluster& cl, verbs::Opcode opcode,
                        bool inlined, std::uint32_t payload,
                        std::uint32_t iters) {
  auto& client = cl.host(0);
  auto& server = cl.host(1);
  auto scq = client.ctx().create_cq();
  auto rcq = client.ctx().create_cq();
  auto dcq = server.ctx().create_cq();
  auto cqp = client.ctx().create_qp(
      {verbs::Transport::kRc, scq.get(), rcq.get()});
  auto sqp = server.ctx().create_qp(
      {verbs::Transport::kRc, dcq.get(), dcq.get()});
  cqp->connect(*sqp);

  auto cmr = client.ctx().register_mr(0, 8192, {});
  auto smr = server.ctx().register_mr(
      0, 8192, {.remote_write = true, .remote_read = true});

  sim::LatencyHistogram hist;
  auto& eng = cl.engine();
  sim::Tick posted = 0;
  std::uint32_t remaining = iters;
  std::uint64_t seq = 0, sampled = 0;

  std::function<void()> post = [&]() {
    verbs::SendWr wr;
    wr.opcode = opcode;
    wr.sge = {cmr.addr, payload, cmr.lkey};
    wr.remote_addr = smr.addr;
    wr.rkey = smr.rkey;
    wr.inline_data = inlined;
    wr.signaled = true;
    posted = eng.now();
    if (++seq % kTailSampleEvery == 0) {
      sampled = seq;
      cl.tail().begin(sampled, posted);
    }
    cqp->post_send(wr);
  };
  scq->set_notify([&]() {
    std::array<verbs::Wc, 4> wcs;
    std::size_t n;
    while ((n = scq->poll(wcs)) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        hist.record(eng.now() - posted);
        if (sampled != 0) {
          cl.tail().finish(sampled, "ok", eng.now(), "net_rtt");
          sampled = 0;
        }
        if (--remaining > 0) {
          // Small think time so consecutive ops don't overlap.
          eng.schedule_after(sim::ns(100), post);
        }
      }
    }
  });
  post();
  eng.run();
  return hist.mean_ns() / 1e3;
}

/// Inlined + unsignaled WRITE echo over RC (Fig. 2a's "WR-I, RC (ECHO)").
double echo_latency(cluster::Cluster& cl, std::uint32_t payload,
                    std::uint32_t iters) {
  auto& client = cl.host(0);
  auto& server = cl.host(1);
  auto ccq = client.ctx().create_cq();
  auto scq = server.ctx().create_cq();
  auto cqp = client.ctx().create_qp(
      {verbs::Transport::kRc, ccq.get(), ccq.get()});
  auto sqp = server.ctx().create_qp(
      {verbs::Transport::kRc, scq.get(), scq.get()});
  cqp->connect(*sqp);

  auto cmr = client.ctx().register_mr(0, 8192, {.remote_write = true});
  auto smr = server.ctx().register_mr(0, 8192, {.remote_write = true});

  auto& eng = cl.engine();
  sim::LatencyHistogram hist;
  sim::Tick posted = 0;
  std::uint32_t remaining = iters;

  // The echo server busy-polls the incoming buffer and relays it back with
  // an unsignaled inlined WRITE; a tight single-location poll loop detects
  // within ~one iteration.
  const auto& cpu = cl.config().cpu;
  server.memory().add_watch(0, payload, [&](std::uint64_t, std::uint32_t) {
    eng.schedule_after(cpu.poll_iteration + cpu.post_send, [&]() {
      verbs::SendWr wr;
      wr.opcode = verbs::Opcode::kWrite;
      wr.sge = {smr.addr, payload, smr.lkey};
      wr.remote_addr = cmr.addr + 4096;
      wr.rkey = cmr.rkey;
      wr.inline_data = true;
      wr.signaled = false;
      sqp->post_send(wr);
    });
  });

  std::uint64_t seq = 0, sampled = 0;
  std::function<void()> post = [&]() {
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kWrite;
    wr.sge = {cmr.addr, payload, cmr.lkey};
    wr.remote_addr = smr.addr;
    wr.rkey = smr.rkey;
    wr.inline_data = true;
    wr.signaled = false;
    posted = eng.now();
    if (++seq % kTailSampleEvery == 0) {
      sampled = seq;
      cl.tail().begin(sampled, posted);
    }
    cqp->post_send(wr);
  };
  client.memory().add_watch(4096, payload,
                            [&](std::uint64_t, std::uint32_t) {
                              hist.record(eng.now() - posted);
                              if (sampled != 0) {
                                cl.tail().finish(sampled, "ok", eng.now(),
                                                 "echo_rtt");
                                sampled = 0;
                              }
                              if (--remaining > 0) {
                                eng.schedule_after(sim::ns(100), post);
                              }
                            });
  post();
  eng.run();
  return hist.mean_ns() / 1e3;
}

}  // namespace

/// Fig. 2: each variant gets a fresh two-host cluster so QP caches and
/// resource occupancy never bleed between measurements. finish() runs per
/// cluster; the record keeps the last (ECHO or WRITE-inline) snapshot.
LatencyResult verb_latency(const cluster::ClusterConfig& cfg,
                           std::uint32_t payload, std::uint32_t iters) {
  Microbench mb("verb_latency", "us");
  auto fresh = [&](auto&& ping) {
    cluster::Cluster cl(cfg, 2, 64 << 10);
    double us = ping(cl);
    mb.finish(cl);
    return us;
  };
  LatencyResult r;
  r.read_us = fresh([&](cluster::Cluster& cl) {
    return signaled_latency(cl, verbs::Opcode::kRead, false, payload, iters);
  });
  r.write_us = fresh([&](cluster::Cluster& cl) {
    return signaled_latency(cl, verbs::Opcode::kWrite, false, payload, iters);
  });
  if (payload <= cfg.rnic.max_inline) {
    r.write_inline_us = fresh([&](cluster::Cluster& cl) {
      return signaled_latency(cl, verbs::Opcode::kWrite, true, payload, iters);
    });
    r.echo_us = fresh([&](cluster::Cluster& cl) {
      return echo_latency(cl, payload, iters);
    });
  }
  mb.publish(r.write_us);
  return r;
}

}  // namespace herd::microbench
