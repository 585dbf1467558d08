// Integration tests: emulated Pilaf-em-OPT / FaRM-em / FaRM-em-VAR.
#include <gtest/gtest.h>

#include "baselines/emulated_kv.hpp"
#include "obs/flight.hpp"

namespace herd::baselines {
namespace {

EmulatedConfig small(System sys, double get_fraction) {
  EmulatedConfig cfg;
  cfg.system = sys;
  cfg.n_clients = 12;
  cfg.n_server_procs = 3;
  cfg.window = 8;
  cfg.get_fraction = get_fraction;
  cfg.value_size = 32;
  return cfg;
}

class AllSystemsTest : public ::testing::TestWithParam<System> {};

TEST_P(AllSystemsTest, GetPathDelivers) {
  EmulatedKvTestbed bed(small(GetParam(), 1.0));
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.mops, 1.0);
  EXPECT_EQ(r.puts, 0u);
  EXPECT_GT(r.gets, 0u);
}

TEST_P(AllSystemsTest, PutPathDelivers) {
  EmulatedKvTestbed bed(small(GetParam(), 0.0));
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.mops, 1.0);
  EXPECT_EQ(r.gets, 0u);
  EXPECT_GT(r.puts, 0u);
}

TEST_P(AllSystemsTest, MixedWorkloadCompletesEverything) {
  EmulatedKvTestbed bed(small(GetParam(), 0.5));
  auto r = bed.run(sim::ms(1), sim::ms(2));
  EXPECT_GT(r.gets, 0u);
  EXPECT_GT(r.puts, 0u);
  EXPECT_NEAR(static_cast<double>(r.gets) /
                  static_cast<double>(r.gets + r.puts),
              0.5, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Systems, AllSystemsTest,
                         ::testing::Values(System::kPilafEmOpt,
                                           System::kFarmEm,
                                           System::kFarmEmVar),
                         [](const auto& info) {
                           return std::string(system_name(info.param))
                                      .substr(0, 4) +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(Baselines, FarmEmSingleReadBeatsPilafMultiRead) {
  // FaRM-em GETs take one READ; Pilaf-em takes 2.6 — both throughput and
  // latency must reflect it (§5.3/5.4).
  auto farm = EmulatedKvTestbed(small(System::kFarmEm, 1.0))
                  .run(sim::ms(1), sim::ms(2));
  auto pilaf = EmulatedKvTestbed(small(System::kPilafEmOpt, 1.0))
                   .run(sim::ms(1), sim::ms(2));
  EXPECT_GT(farm.mops, pilaf.mops * 1.3);
  EXPECT_LT(farm.avg_latency_us, pilaf.avg_latency_us);
}

TEST(Baselines, VarModeSecondReadCostsThroughput) {
  auto inline_mode = EmulatedKvTestbed(small(System::kFarmEm, 1.0))
                         .run(sim::ms(1), sim::ms(2));
  auto var_mode = EmulatedKvTestbed(small(System::kFarmEmVar, 1.0))
                      .run(sim::ms(1), sim::ms(2));
  EXPECT_GT(inline_mode.mops, var_mode.mops * 1.2);
}

TEST(Baselines, FarmReadSizeGrowsWithValueSize) {
  // FaRM-em's READ amplification (6 * (SK + SV)) throttles it as values
  // grow, unlike VAR whose first READ stays fixed (§5.3, Fig. 10).
  auto cfg_small = small(System::kFarmEm, 1.0);
  cfg_small.value_size = 16;
  auto cfg_big = small(System::kFarmEm, 1.0);
  cfg_big.value_size = 512;
  auto small_r = EmulatedKvTestbed(cfg_small).run(sim::ms(1), sim::ms(2));
  auto big_r = EmulatedKvTestbed(cfg_big).run(sim::ms(1), sim::ms(2));
  EXPECT_GT(small_r.mops, big_r.mops * 2);
}

TEST(Baselines, PilafPutCpuCostExceedsFarm) {
  // Pilaf PUTs post RECVs; FaRM PUTs poll a request region. With one core,
  // Pilaf's server-side PUT rate must be lower (Fig. 13).
  auto pilaf_cfg = small(System::kPilafEmOpt, 0.0);
  pilaf_cfg.n_server_procs = 1;
  auto farm_cfg = small(System::kFarmEm, 0.0);
  farm_cfg.n_server_procs = 1;
  auto pilaf = EmulatedKvTestbed(pilaf_cfg).run(sim::ms(1), sim::ms(2));
  auto farm = EmulatedKvTestbed(farm_cfg).run(sim::ms(1), sim::ms(2));
  EXPECT_GT(farm.mops, pilaf.mops * 1.2);
}

TEST(Baselines, SusitnaSlowerThanApt) {
  auto apt_cfg = small(System::kFarmEm, 1.0);
  auto sus_cfg = small(System::kFarmEm, 1.0);
  sus_cfg.cluster = cluster::ClusterConfig::susitna();
  auto apt = EmulatedKvTestbed(apt_cfg).run(sim::ms(1), sim::ms(2));
  auto sus = EmulatedKvTestbed(sus_cfg).run(sim::ms(1), sim::ms(2));
  EXPECT_GT(apt.mops, sus.mops);
}

// Fig. 13: "Pilaf-em-OPT's CPU usage is higher because it must post RECVs
// for new PUT requests" — provisioned with one core for 100% PUTs, the
// server process is the resource attribution names.
TEST(EmulatedAttribution, OneServerCoreIsNamedAsTheBottleneck) {
  EmulatedConfig cfg = small(System::kPilafEmOpt, 0.0);
  cfg.n_server_procs = 1;
  cfg.n_clients = 51;
  EmulatedKvTestbed bed(cfg);
  bed.run(sim::us(250), sim::us(500));
  const obs::Attribution& a = bed.attribution();
  EXPECT_EQ(a.bottleneck, "core.proc");
  EXPECT_EQ(a.bottleneck_resource, "core.host0.proc0");
  EXPECT_GT(a.bottleneck_utilization, 0.95);
  EXPECT_TRUE(obs::validate_timeseries_json(bed.timeseries_json()).empty());
}

TEST(Baselines, SystemNames) {
  EXPECT_STREQ(system_name(System::kPilafEmOpt), "Pilaf-em-OPT");
  EXPECT_STREQ(system_name(System::kFarmEm), "FaRM-em");
  EXPECT_STREQ(system_name(System::kFarmEmVar), "FaRM-em-VAR");
}

}  // namespace
}  // namespace herd::baselines
