// Tests of the microbenchmark drivers against the paper's §3 observations —
// these double as regression tests for the calibrated substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "microbench/echo.hpp"
#include "microbench/microbench.hpp"
#include "microbench/throughput.hpp"
#include "microbench/verb_latency.hpp"

namespace herd::microbench {
namespace {

const cluster::ClusterConfig kApt = cluster::ClusterConfig::apt();

TEST(VerbLatency, ReadAndWriteTrackEachOther) {
  // "The latencies for READ and WRITE are similar because the length of the
  //  network/PCIe path travelled is identical" (§3.2.1).
  auto r = verb_latency(kApt, 32, 300);
  EXPECT_NEAR(r.write_us, r.read_us, r.read_us * 0.15);
}

TEST(VerbLatency, InliningCutsLatencySignificantly) {
  auto r = verb_latency(kApt, 32, 300);
  EXPECT_LT(r.write_inline_us, r.write_us - 0.25);
}

TEST(VerbLatency, UnsignaledWriteIsHalfAnEcho) {
  // "the one-way WRITE latency is about half of the READ latency" — the
  // ECHO is two unsignaled WRITEs, and tracks READ for small payloads.
  auto r = verb_latency(kApt, 32, 300);
  EXPECT_NEAR(r.echo_us, r.read_us, r.read_us * 0.25);
  EXPECT_NEAR(r.echo_us / 2.0, 1.0, 0.4);  // ~1 us half-RTT (§2.2.1)
}

TEST(VerbLatency, GrowsWithPayload) {
  auto small = verb_latency(kApt, 16, 300);
  auto large = verb_latency(kApt, 1024, 300);
  EXPECT_GT(large.read_us, small.read_us);
  EXPECT_GT(large.write_us, small.write_us);
}

TEST(InboundTput, WritesBeatReadsByAboutATHird) {
  // "WRITEs achieve 35 Mops, which is about 34% higher than the maximum
  //  READ throughput (26 Mops)" (§3.2.2).
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  TputSpec rd{verbs::Opcode::kRead, verbs::Transport::kRc, false, 32, 16, 1};
  double w = inbound_tput(kApt, wr);
  double r = inbound_tput(kApt, rd);
  EXPECT_NEAR(w, 35.0, 1.5);
  EXPECT_NEAR(r, 26.0, 1.5);
  EXPECT_GT(w / r, 1.25);
}

TEST(InboundTput, UcAndRcWritesNearlyIdentical) {
  TputSpec uc{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  TputSpec rc{verbs::Opcode::kWrite, verbs::Transport::kRc, true, 32, 32, 4};
  double u = inbound_tput(kApt, uc);
  double r = inbound_tput(kApt, rc);
  EXPECT_NEAR(u, r, u * 0.1);
}

TEST(InboundTput, EverySampledVerbFinishesExactlyOneTailSample) {
  // Concurrent pumps sample verbs at the same per-pump sequence numbers.
  // Keyed by the salted trace id — (pump ordinal << 32) | seq — each
  // sampled verb is its own sample: per pump, the finished ids are the
  // sampling cadence's multiples 1x, 2x, ..., kx with no gap (a sample lost
  // to a restart) and no repeat (one verb finished twice). Both traffic
  // shapes, one QP per process and several (all-to-all), sample alike.
  TputSpec wr;
  wr.opcode = verbs::Opcode::kWrite;
  constexpr std::uint32_t kProcs = 4;
  const sim::Tick measure = sim::us(250);
  const std::pair<const char*, std::function<void()>> runs[] = {
      {"inbound", [&] { inbound_tput(kApt, wr, kProcs, measure); }},
      {"outbound", [&] { outbound_tput(kApt, wr, kProcs, measure); }},
      {"all_to_all_inbound",
       [&] { all_to_all_inbound(kApt, wr, kProcs, measure); }},
      {"all_to_all_outbound",
       [&] { all_to_all_outbound(kApt, wr, kProcs, measure); }},
  };
  for (const auto& [shape, run] : runs) {
    SCOPED_TRACE(shape);
    run();
    const std::vector<std::uint64_t>& ids = last_run().tail_ids;
    ASSERT_FALSE(ids.empty());
    std::map<std::uint64_t, std::vector<std::uint64_t>> seqs;  // by pump
    for (std::uint64_t id : ids) seqs[id >> 32].push_back(id & 0xffffffffu);
    ASSERT_EQ(seqs.size(), kProcs);
    for (auto& [pump, s] : seqs) {
      std::sort(s.begin(), s.end());
      ASSERT_GT(s.size(), 1u) << "pump " << pump;
      for (std::size_t k = 0; k < s.size(); ++k) {
        EXPECT_EQ(s[k], (k + 1) * s[0]) << "pump " << pump << " sample " << k;
      }
    }
  }
}

TEST(OutboundTput, ReadsHoldTwentyTwoMops) {
  TputSpec rd{verbs::Opcode::kRead, verbs::Transport::kRc, false, 32, 16, 1};
  EXPECT_NEAR(outbound_tput(kApt, rd), 22.0, 1.5);
}

TEST(OutboundTput, SampledVerbsChargeTheirPostCpu) {
  // A pump's chained post costs its core chained_post_cost(chain length);
  // a sampled verb's "post_cpu" stage (issue -> doorbell) includes it, so
  // it cannot be zero.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 256, 8, 4};
  outbound_tput(kApt, wr, 16, sim::us(250));
  const obs::Json* stages = last_run().tail.find("stages");
  ASSERT_NE(stages, nullptr);
  const obs::Json* post_cpu = stages->find("post_cpu");
  ASSERT_NE(post_cpu, nullptr);
  // The p99 sample's stage, in µs, covers at least one full post_send.
  EXPECT_GE(post_cpu->as_double() * 1e6,
            0.999 * static_cast<double>(kApt.cpu.post_send));
}

TEST(OutboundTput, DoorbellBatchingFlattensInlineWriteKnee) {
  // One write-combining cacheline holds a 36 B WQE + 28 B payload; per-WR
  // posting halves PIO throughput beyond that (§3.2.2's 64-byte staircase).
  // With doorbell batching only the chain head crosses PIO, so the knee
  // disappears and both payloads run at the (higher) wire-limited rate.
  TputSpec below{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 28, 8, 4};
  TputSpec above{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 40, 8, 4};
  double b = outbound_tput(kApt, below);
  double a = outbound_tput(kApt, above);
  EXPECT_NEAR(b, a, b * 0.1);  // knee gone: no staircase between 28 and 40 B
  EXPECT_GT(b, 28.0);          // and both clear the old PIO-capped plateau

  // The doorbell-per-WR canary (the regression the fig04 gate must catch)
  // restores the staircase: chains still form, but every WR rings its own
  // PIO doorbell again.
  cluster::ClusterConfig per_wr = kApt;
  per_wr.doorbell_per_wr = true;
  double b_per_wr = outbound_tput(per_wr, below);
  double a_per_wr = outbound_tput(per_wr, above);
  // Outside the 10% band the batched rates share: the knee is back.
  EXPECT_LT(a_per_wr, 0.9 * b_per_wr);
  EXPECT_LT(a_per_wr, 0.9 * a);
  const obs::Snapshot& snap = microbench::last_run().snapshot;
  const obs::HistogramStats& chains =
      snap.histograms().at("verbs.host0.chain_len");
  ASSERT_GT(chains.max, 1) << "the pump still posts multi-WR chains";
  // The histogram records chain lengths as ticks: its sum is the number of
  // WRs the server posted.
  auto posted = static_cast<std::uint64_t>(std::llround(
      chains.mean_ns * 1e3 * static_cast<double>(chains.count)));
  EXPECT_EQ(snap.value("pcie.host0.doorbells"), posted);
  EXPECT_EQ(snap.value("rnic.host0.wqe_fetches"), 0u);
}

TEST(OutboundTput, DoorbellBatchingClosesUdSendGap) {
  // Per-WR posting: "due to the larger datagram header, the throughput for
  //  SEND-UD drops for smaller payload sizes than for WRITEs." Chained WQEs
  // are DMA-fetched, so the 65 B UD WQE no longer pays the PIO staircase and
  // SEND-UD pulls even with WRITE at the same payload.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 24, 8, 4};
  TputSpec ud{verbs::Opcode::kSend, verbs::Transport::kUd, true, 24, 8, 4};
  double w = outbound_tput(kApt, wr);
  double u = outbound_tput(kApt, ud);
  EXPECT_NEAR(w, u, w * 0.1);
}

TEST(Echo, OptimizationLadderIsMonotonic) {
  for (auto kind :
       {EchoKind::kSendSend, EchoKind::kWriteWrite, EchoKind::kWriteSend}) {
    double prev = 0;
    for (int lvl = 0; lvl <= 3; ++lvl) {
      EchoOpts o;
      o.opt_level = lvl;
      double m = echo_tput(kApt, kind, o);
      EXPECT_GE(m, prev * 0.98) << echo_kind_name(kind) << " lvl " << lvl;
      prev = m;
    }
  }
}

TEST(Echo, FullyOptimizedMatchesPaperAnchors) {
  EchoOpts o;  // fully optimized by default
  double ss = echo_tput(kApt, EchoKind::kSendSend, o);
  double ww = echo_tput(kApt, EchoKind::kWriteWrite, o);
  double ws = echo_tput(kApt, EchoKind::kWriteSend, o);
  EXPECT_NEAR(ss, 21.0, 1.5);  // "21 Mops" (§3.2.2)
  EXPECT_NEAR(ww, 26.0, 1.5);  // "maximum throughput (26 Mops)"
  EXPECT_NEAR(ws, 26.0, 1.5);  // "this hybrid also achieves 26 Mops"
}

TEST(Echo, SendSendBeatsThreeQuartersOfReadRate) {
  // The paper's refutation: optimized SEND/RECV echoes beat 3/4 of the
  // 26 Mops READ rate, so one echo beats 2.6 READs.
  EchoOpts o;
  EXPECT_GT(echo_tput(kApt, EchoKind::kSendSend, o), 26.0 * 0.75);
}

TEST(AllToAll, InboundScalesOutboundCollapses) {
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  double in16 = all_to_all_inbound(kApt, wr, 16);
  double out16 = all_to_all_outbound(kApt, wr, 16);
  double out4 = all_to_all_outbound(kApt, wr, 4);
  EXPECT_NEAR(in16, 35.0, 2.0);        // inbound flat at 256 QPs
  EXPECT_LT(out16, out4 * 0.45);       // outbound collapses
  EXPECT_NEAR(out16 / 35.0, 0.21, 0.08);  // "degrades to 21% of the maximum"
}

TEST(AllToAll, OnePostingCoreIsNamedAsTheBottleneck) {
  // Fig. 6's In_WRITE_UC N=1 point: one client process posts chained
  // inline WRITEs, so its core, not a NIC stage, bounds the rate.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 32, 4};
  double mops = all_to_all_inbound(kApt, wr, 1, sim::us(250));
  EXPECT_LT(mops, 20.0);
  const obs::Attribution& attr = last_run().attr;
  EXPECT_EQ(attr.bottleneck, "core.client");
  EXPECT_EQ(attr.bottleneck_resource, "core.host1.client0");
  EXPECT_GT(attr.bottleneck_utilization, 0.95);
}

TEST(AllToAll, UdOutboundScales) {
  TputSpec ud{verbs::Opcode::kSend, verbs::Transport::kUd, true, 32, 32, 4};
  double out4 = all_to_all_outbound(kApt, ud, 4);
  double out16 = all_to_all_outbound(kApt, ud, 16);
  // §3.3 promises only a slight sag. Doorbell batching lifts the 4-proc
  // number above the old PIO cap, while at 16 procs the chained WQE fetches
  // of all procs contend on the DMA-read path, so the relative sag widens a
  // little — but aggregate throughput must not collapse.
  EXPECT_GT(out16, out4 * 0.75);
  EXPECT_GT(out16, 22.0);
}

TEST(ManyToOne, SixteenHundredClientsSustainLineRate) {
  // §3.3: 1600 processes over 16 machines, WRITEs over UC -> ~30 Mops.
  TputSpec wr{verbs::Opcode::kWrite, verbs::Transport::kUc, true, 32, 4, 4};
  EXPECT_GT(many_to_one_tput(kApt, wr, 1600, 16), 28.0);
}

TEST(Prefetch, FiveCoresReachPeakWithPrefetching) {
  EchoOpts o;
  o.mem_accesses = 8;
  o.n_server_procs = 5;
  o.prefetch = true;
  double with = echo_tput(kApt, EchoKind::kWriteSend, o);
  o.prefetch = false;
  double without = echo_tput(kApt, EchoKind::kWriteSend, o);
  EXPECT_GT(with, 18.0);        // "5 cores can deliver the peak... N = 8"
  EXPECT_GT(with, without * 2); // prefetching pays
}

}  // namespace
}  // namespace herd::microbench
