// Host-layer probes: each times one public function of one layer on inputs
// taken from the workload, and checks the function's results so the timed
// work cannot be skipped and a wrong answer is caught.
#include <array>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "herd/protocol.hpp"
#include "kv/keyhash.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"

namespace perfbench::probe {

namespace {

namespace core = herd::core;
namespace kv = herd::kv;
namespace sim = herd::sim;
namespace workload = herd::workload;

constexpr int kPasses = 5;

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

// The testbed perturbs the workload stream by its master seed; so do the
// probes, so each sees the requests the deployment sees.
workload::WorkloadConfig stream(const core::TestbedConfig& cfg) {
  workload::WorkloadConfig wl = cfg.workload;
  wl.seed += cfg.seed;
  return wl;
}

}  // namespace

double sched_pop_ns(std::uint64_t depth, std::uint64_t seed) {
  constexpr std::uint64_t kOps = 200'000;
  constexpr sim::Tick kHorizon = sim::us(10);
  sim::Pcg32 rng(seed, 17);
  sim::Engine eng;
  std::uint64_t fired = 0;
  auto cb = [&fired] { ++fired; };
  for (std::uint64_t i = 0; i < std::max<std::uint64_t>(depth, 1); ++i) {
    eng.schedule_at(rng.next_u64() % kHorizon, cb);
  }
  std::vector<sim::Tick> delays(kOps);
  for (sim::Tick& d : delays) d = rng.next_u64() % kHorizon;
  std::vector<double> ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    Clock::time_point t0 = Clock::now();
    for (sim::Tick d : delays) {
      eng.step();
      eng.schedule_at(eng.now() + d, cb);
    }
    ns.push_back(seconds_since(t0) * 1e9 / kOps);
  }
  require(fired == kPasses * kOps, "engine probe: lost events");
  return median(ns);
}

double admit_ns(double gap_ns, double util, std::uint64_t seed) {
  constexpr std::size_t kOps = 500'000;
  constexpr std::size_t kAdvanceEvery = 64;  // engine clock catches up
  sim::Pcg32 rng(seed, 19);
  auto gap = std::max<sim::Tick>(sim::ns(gap_ns), 2);
  auto cost = static_cast<sim::Tick>(static_cast<double>(gap) * util);
  std::vector<sim::Tick> arrivals(kOps);
  sim::Tick t = 0;
  for (sim::Tick& a : arrivals) {
    t += 1 + rng.next_u64() % (2 * gap - 1);  // mean `gap`
    a = t;
  }
  std::vector<double> ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    sim::Engine eng;
    sim::Resource res(eng, "probe");
    sim::Tick last_done = 0;
    bool ordered = true;
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      if (i % kAdvanceEvery == 0) eng.run_until(arrivals[i]);
      sim::Resource::Admission a = res.admit_at(arrivals[i], cost);
      ordered = ordered && a.done >= last_done;
      last_done = a.done;
    }
    ns.push_back(seconds_since(t0) * 1e9 / kOps);
    require(ordered && res.ops() == kOps, "resource probe: FIFO broken");
  }
  return median(ns);
}

KvCost mica(const core::TestbedConfig& cfg) {
  constexpr std::size_t kOps = 100'000;
  const std::uint32_t n_parts = cfg.herd.n_server_procs;
  const workload::WorkloadConfig wl = stream(cfg);
  auto in_part = [n_parts](const kv::KeyHash& k) {
    return kv::partition_of(k, n_parts) == 0;
  };
  kv::MicaCache cache(cfg.herd.mica);
  std::vector<std::byte> value(wl.value_len);
  for (std::uint64_t rank = 0; rank < wl.n_keys; ++rank) {
    kv::KeyHash key = kv::hash_of_rank(rank);
    if (!in_part(key)) continue;
    workload::WorkloadGenerator::fill_value(rank, value);
    cache.put(key, value);
  }

  std::vector<workload::Op> gets;
  std::vector<workload::Op> puts;
  workload::WorkloadGenerator gen(wl);
  while (gets.size() + puts.size() < kOps) {
    workload::Op op = gen.next();
    if (!in_part(op.key)) continue;
    (op.type == workload::OpType::kGet ? gets : puts).push_back(op);
  }
  std::vector<std::byte> put_values(puts.size() * wl.value_len);
  for (std::size_t i = 0; i < puts.size(); ++i) {
    workload::WorkloadGenerator::fill_value(
        puts[i].rank,
        std::span(put_values).subspan(i * wl.value_len, wl.value_len));
  }

  // Untimed pass: every GET must return the value its rank stores.
  std::vector<std::byte> out(kv::MicaCache::kMaxValue);
  for (const workload::Op& op : gets) {
    workload::WorkloadGenerator::fill_value(op.rank, value);
    auto r = cache.get(op.key, out);
    require(r.found && r.value_len == wl.value_len &&
                std::memcmp(out.data(), value.data(), value.size()) == 0,
            "MICA probe: GET returned the wrong value");
  }

  std::vector<double> get_ns;
  std::vector<double> put_ns;
  std::uint64_t got = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    Clock::time_point t0 = Clock::now();
    for (const workload::Op& op : gets) got += cache.get(op.key, out).value_len;
    if (!gets.empty()) {
      get_ns.push_back(seconds_since(t0) * 1e9 /
                       static_cast<double>(gets.size()));
    }
    t0 = Clock::now();
    for (std::size_t i = 0; i < puts.size(); ++i) {
      cache.put(puts[i].key, std::span<const std::byte>(put_values)
                                 .subspan(i * wl.value_len, wl.value_len));
    }
    if (!puts.empty()) {
      put_ns.push_back(seconds_since(t0) * 1e9 /
                       static_cast<double>(puts.size()));
    }
  }
  require(got == kPasses * gets.size() * wl.value_len,
          "MICA probe: GET missed a preloaded key");
  return {median(get_ns), median(put_ns)};
}

double codec_ns(const core::TestbedConfig& cfg) {
  constexpr std::size_t kOps = 100'000;
  const core::HerdConfig& herd = cfg.herd;
  const workload::WorkloadConfig wl = stream(cfg);
  const bool tok = herd.request_tokens;
  const bool epoch = herd.replicate;
  const bool ov = herd.overload.enable;
  const bool tr = herd.trace;

  workload::WorkloadGenerator gen(wl);
  std::vector<core::Request> reqs(kOps);
  std::vector<std::byte> values(kOps * wl.value_len);
  for (std::size_t i = 0; i < kOps; ++i) {
    workload::Op op = gen.next();
    auto v = std::span(values).subspan(i * wl.value_len, wl.value_len);
    workload::WorkloadGenerator::fill_value(op.rank, v);
    core::Request& r = reqs[i];
    r.key = op.key;
    r.is_put = op.type == workload::OpType::kPut;
    r.token = static_cast<std::uint32_t>(i);
    if (r.is_put) r.value = v;
  }

  std::array<std::byte, core::kSlotBytes> slot{};
  std::array<std::byte, core::kSlotBytes> resp{};
  std::vector<double> ns;
  std::uint64_t mismatches = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      const core::Request& r = reqs[i];
      core::encode_request(slot, r, tok, epoch, ov, tr);
      auto got = core::decode_request(slot, tok, epoch, ov, tr);
      // A GET hit answers with the value; a PUT with an empty ack.
      auto answer = r.is_put ? std::span<const std::byte>{}
                             : std::span<const std::byte>(values).subspan(
                                   i * wl.value_len, wl.value_len);
      std::uint32_t n = core::encode_response(resp, core::RespStatus::kOk,
                                              answer, tok, r.token);
      auto back = core::decode_response(
          std::span<const std::byte>(resp.data(), n), tok);
      mismatches += !got || got->key.hi != r.key.hi ||
                    got->key.lo != r.key.lo || got->is_put != r.is_put ||
                    got->value.size() != r.value.size() || !back ||
                    back->value.size() != answer.size() ||
                    (tok && back->token != r.token);
    }
    ns.push_back(seconds_since(t0) * 1e9 / kOps);
  }
  require(mismatches == 0, "codec probe: a message did not round-trip");
  return median(ns);
}

}  // namespace perfbench::probe
