// Integration tests: the full HERD stack (client -> UC WRITE -> request
// region -> MICA -> UD SEND -> client) on the simulated cluster.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "herd/testbed.hpp"

namespace herd::core {
namespace {

TestbedConfig small_config() {
  TestbedConfig cfg;
  cfg.herd.n_server_procs = 3;
  cfg.herd.n_clients = 6;
  cfg.herd.window = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 2000;
  cfg.workload.value_len = 32;
  cfg.verify_values = true;
  return cfg;
}

TEST(HerdEndToEnd, GetsReturnPutValues) {
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(r.bad, 0u);
  // Store preloaded with every key: GETs must mostly hit.
  EXPECT_GT(static_cast<double>(r.get_hits) /
                static_cast<double>(r.get_hits + r.get_misses),
            0.99);
}

TEST(HerdEndToEnd, WriteIntensiveWorkloadIsCorrect) {
  TestbedConfig cfg = small_config();
  cfg.workload.get_fraction = 0.5;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
}

TEST(HerdEndToEnd, SendSendModeIsCorrect) {
  // §5.5's SEND/SEND-over-UD variant must be functionally identical.
  TestbedConfig cfg = small_config();
  cfg.herd.mode = RequestMode::kSendUd;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.value_mismatches, 0u);
  EXPECT_EQ(r.bad, 0u);
}

TEST(HerdEndToEnd, RequestsArriveInPollOrder) {
  // The §4.2 polling formula assumes per-(client, proc) round-robin slot
  // order; UC WRITEs on one QP are ordered, so no violations should occur.
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  bed.run(sim::ms(1), sim::ms(2));
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    EXPECT_EQ(bed.service().proc_stats(s).order_violations, 0u);
  }
}

TEST(HerdEndToEnd, KeyspaceIsPartitionedErew) {
  // Every proc serves only its partition: total requests spread roughly
  // evenly under a uniform workload.
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    total += bed.service().proc_stats(s).requests;
  }
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(r.ops),
              static_cast<double>(r.ops) * 0.05);
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    EXPECT_NEAR(static_cast<double>(bed.service().proc_stats(s).requests),
                static_cast<double>(total) / cfg.herd.n_server_procs,
                static_cast<double>(total) * 0.1);
  }
}

TEST(HerdEndToEnd, NoopsKeepPipelineDraining) {
  // With a nearly idle workload the two-stage pipeline must be flushed by
  // no-ops (§4.1.1's deadlock avoidance), so every issued request completes.
  TestbedConfig cfg = small_config();
  cfg.herd.n_clients = 1;
  cfg.herd.window = 1;  // one outstanding request: worst case for the
                        // pipeline, which wants a successor to advance
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 100u);
  std::uint64_t noops = 0;
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    noops += bed.service().proc_stats(s).noops;
  }
  EXPECT_GT(noops, 0u);
}

TEST(HerdEndToEnd, UnloadedLatencyIsMicroseconds) {
  TestbedConfig cfg = small_config();
  cfg.herd.n_clients = 1;
  cfg.herd.window = 1;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.avg_latency_us, 1.0);
  EXPECT_LT(r.avg_latency_us, 8.0);
}

TEST(HerdEndToEnd, LargeValuesUseNonInlinedSends) {
  TestbedConfig cfg = small_config();
  cfg.workload.value_len = 512;  // above the 144 B inline threshold
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.ops, 500u);
  EXPECT_EQ(r.value_mismatches, 0u);
}

TEST(HerdEndToEnd, ZipfWorkloadStaysCorrectAndBalanced) {
  TestbedConfig cfg = small_config();
  cfg.workload.zipf = true;
  cfg.workload.n_keys = 1u << 16;
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_EQ(r.value_mismatches, 0u);
  // MICA-style partitioning keeps the most loaded core within a small factor
  // of the least loaded (§5.7).
  auto pp = bed.per_proc_mops();
  double lo = pp[0], hi = pp[0];
  for (double m : pp) {
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_LT(hi / lo, 3.0);
}

TEST(HerdService, RequiredMemoryIsSufficient) {
  HerdConfig cfg;
  cfg.n_server_procs = 2;
  cfg.n_clients = 4;
  cfg.window = 2;
  std::uint64_t need = HerdService::required_memory(cfg);
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 1, need);
  cluster::CpuModel cpu;
  EXPECT_NO_THROW(HerdService(cl.host(0), cfg, cpu));
}

TEST(HerdService, ThrowsOnTooLittleMemory) {
  HerdConfig cfg;
  cluster::Cluster cl(cluster::ClusterConfig::apt(), 1, 4096);
  cluster::CpuModel cpu;
  EXPECT_THROW(HerdService(cl.host(0), cfg, cpu), std::invalid_argument);
}

TEST(HerdTestbed, HostsAreSizedByRole) {
  // Host 0 holds exactly the server's regions, each client host exactly its
  // clients' arenas plus 16 KiB. Two shapes: one where the server is the
  // larger host, one where a client host is.
  TestbedConfig server_big = small_config();
  TestbedConfig client_big = small_config();
  client_big.herd.n_server_procs = 1;
  client_big.herd.n_clients = 8;
  client_big.herd.window = 1;
  client_big.clients_per_host = 8;
  for (const TestbedConfig& cfg : {server_big, client_big}) {
    HerdTestbed bed(cfg);
    cluster::Cluster& cl = bed.cluster();
    std::uint64_t server_mem = HerdService::required_memory(cfg.herd);
    std::uint64_t client_mem =
        std::uint64_t{cfg.clients_per_host} *
            HerdClient::arena_bytes(cfg.herd) +
        (16u << 10);
    ASSERT_NE(server_mem, client_mem);
    EXPECT_EQ(cl.host(0).memory().size(), server_mem);
    ASSERT_GE(cl.size(), 2u);
    for (std::size_t i = 1; i < cl.size(); ++i) {
      EXPECT_EQ(cl.host(i).memory().size(), client_mem) << "host " << i;
    }
  }
  EXPECT_GT(HerdService::required_memory(server_big.herd),
            std::uint64_t{server_big.clients_per_host} *
                HerdClient::arena_bytes(server_big.herd));
  EXPECT_LT(HerdService::required_memory(client_big.herd),
            std::uint64_t{client_big.clients_per_host} *
                HerdClient::arena_bytes(client_big.herd));
}

TEST(HerdTestbed, ClientDmaPastTheArenasThrows) {
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  verbs::HostMemory& mem = bed.cluster().host(1).memory();
  std::uint64_t end = std::uint64_t{cfg.clients_per_host} *
                          HerdClient::arena_bytes(cfg.herd) +
                      (16u << 10);
  std::array<std::byte, 1> one{std::byte{1}};
  EXPECT_NO_THROW(mem.dma_apply(end - 1, one));
  EXPECT_THROW(mem.dma_apply(end, one), std::out_of_range);
}

TEST(HerdEndToEnd, ThroughputScalesWithClients) {
  TestbedConfig cfg = small_config();
  cfg.verify_values = false;
  cfg.herd.n_clients = 2;
  HerdTestbed small(cfg);
  double small_mops = small.run(sim::ms(1), sim::ms(2)).mops;
  cfg.herd.n_clients = 12;
  HerdTestbed big(cfg);
  double big_mops = big.run(sim::ms(1), sim::ms(2)).mops;
  EXPECT_GT(big_mops, small_mops * 2);
}

TEST(HerdEndToEnd, ResponsesLeaveInChains) {
  // §4.3 doorbell batching: all responses completed in one scheduling
  // quantum leave in ONE chained post_send, so the per-proc chain stats
  // must show multi-response chains and the server's doorbell count must
  // sit well below its response count.
  TestbedConfig cfg = small_config();
  HerdTestbed bed(cfg);
  auto r = bed.run(sim::ms(1), sim::ms(2));
  ASSERT_GT(r.ops, 1000u);

  std::uint64_t chains = 0;
  std::uint64_t chained = 0;
  for (std::uint32_t s = 0; s < cfg.herd.n_server_procs; ++s) {
    const auto& ps = bed.service().proc_stats(s);
    chains += ps.resp_chains;
    chained += ps.resp_chained;
  }
  EXPECT_GT(chains, 0u);
  EXPECT_GE(chained, chains);
  EXPECT_GT(chained, r.ops / 2);  // the hot path carries the traffic

  const auto& pc = bed.cluster().host(0).pcie().counters();
  EXPECT_LT(pc.doorbells, chained);  // batching: fewer doorbells than WRs
}

// The largest value validate() accepts must fit the 1 KB slot together with
// every optional wire header that is on, or encode_request would start the
// right-aligned request before the slot.
TEST(TestbedConfigValidate, ValueCapCountsEveryWireHeader) {
  auto value_len_ok = [](const TestbedConfig& c) {
    for (const std::string& p : c.validate()) {
      if (p.find("workload.value_len") != std::string::npos) return false;
    }
    return true;
  };
  for (unsigned m = 0; m < 16; ++m) {
    const bool token = m & 1, epoch = m & 2, overload = m & 4, trace = m & 8;
    TestbedConfig cfg;
    cfg.herd.request_tokens = token;
    cfg.herd.replicate = epoch;
    cfg.herd.overload.enable = overload;
    cfg.herd.trace = trace;
    std::uint32_t largest = 0;
    for (std::uint32_t v = kSlotBytes; v > 0; --v) {
      cfg.workload.value_len = v;
      if (value_len_ok(cfg)) {
        largest = v;
        break;
      }
    }
    ASSERT_GT(largest, 0u) << "header mask " << m;
    EXPECT_LE(request_wire_bytes(largest, token, epoch, overload, trace),
              kSlotBytes)
        << "header mask " << m;
  }
}

TEST(TestbedConfigValidate, RejectsValueThatOverrunsTheSlotWithAllHeaders) {
  OverloadConfig ov;
  ov.enable = true;
  auto builder = TestbedConfigBuilder()
                     .request_tokens(true)
                     .replicate(true)
                     .overload(ov)
                     .trace(true)
                     .value_len(985);
  ASSERT_GT(request_wire_bytes(985, true, true, true, true), kSlotBytes);
  EXPECT_THROW(builder.build(), std::invalid_argument);
  EXPECT_NO_THROW(builder.value_len(976).build());
}

// Fig. 13's one-core point: a single server process cannot keep up with 51
// clients, so attribution must name its core, not the busiest NIC stage.
TEST(HerdAttribution, OneServerCoreIsNamedAsTheBottleneck) {
  TestbedConfig cfg = small_config();
  cfg.herd.n_server_procs = 1;
  cfg.herd.n_clients = 51;
  cfg.workload.get_fraction = 0.5;
  HerdTestbed bed(cfg);
  bed.run(sim::us(250), sim::us(500));
  const obs::Attribution& a = bed.attribution();
  EXPECT_EQ(a.bottleneck, "core.proc");
  EXPECT_EQ(a.bottleneck_resource, "core.host0.proc0");
  EXPECT_GT(a.bottleneck_utilization, 0.95);
}

}  // namespace
}  // namespace herd::core
