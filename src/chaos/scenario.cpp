#include "chaos/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/rng.hpp"

namespace herd::chaos {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::uint64_t sample_between(sim::Pcg32& rng, std::uint64_t lo,
                             std::uint64_t hi) {
  if (hi <= lo) return lo;
  return lo + rng.next_u64() % (hi - lo + 1);
}

}  // namespace

std::string Scenario::to_json() const {
  std::string s = "{\"seed\":" + std::to_string(seed);
  s += ",\"n_server_procs\":" + std::to_string(n_server_procs);
  s += ",\"n_clients\":" + std::to_string(n_clients);
  s += ",\"window\":" + std::to_string(window);
  s += ",\"n_keys\":" + std::to_string(n_keys);
  s += ",\"get_fraction\":" + fmt_double(get_fraction);
  s += ",\"delete_fraction\":" + fmt_double(delete_fraction);
  s += ",\"zipf\":";
  s += zipf ? "true" : "false";
  s += ",\"value_len\":" + std::to_string(value_len);
  s += ",\"warmup\":" + std::to_string(warmup);
  s += ",\"budget\":" + std::to_string(budget);
  s += ",\"retry_timeout\":" + std::to_string(resilience.retry_timeout);
  s += ",\"deadline\":" + std::to_string(resilience.deadline);
  s += ",\"failover_threshold\":" +
       std::to_string(resilience.failover_threshold);
  s += ",\"break_dedup\":";
  s += break_dedup ? "true" : "false";
  s += ",\"replicate\":";
  s += replicate ? "true" : "false";
  s += ",\"crash_primary\":";
  s += crash_primary ? "true" : "false";
  s += ",\"drop_replication\":";
  s += drop_replication ? "true" : "false";
  s += ",\"overload\":";
  s += overload ? "true" : "false";
  if (overload) {
    s += ",\"overload_cfg\":{\"n_tenants\":" +
         std::to_string(overload_cfg.n_tenants);
    s += ",\"ticks_per_token\":" + std::to_string(overload_cfg.ticks_per_token);
    s += ",\"burst\":" + std::to_string(overload_cfg.burst);
    s += ",\"queue_high\":" + std::to_string(overload_cfg.queue_high);
    s += ",\"queue_low\":" + std::to_string(overload_cfg.queue_low);
    s += ",\"degraded_retry_after\":" +
         std::to_string(overload_cfg.degraded_retry_after);
    s += ",\"weights\":[";
    for (std::size_t i = 0; i < overload_cfg.weights.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(overload_cfg.weights[i]);
    }
    s += "],\"drop_shedding\":";
    s += overload_cfg.drop_shedding ? "true" : "false";
    s += ",\"breaker_threshold\":" +
         std::to_string(resilience.breaker_threshold);
    s += ",\"breaker_cooldown\":" + std::to_string(resilience.breaker_cooldown);
    s += "}";
  }
  s += ",\"trace_sample_every\":" + std::to_string(trace_sample_every);
  s += ",\"flight_windows\":" + std::to_string(flight_windows);
  s += ",\"plan\":" + fault::to_json(plan);
  s += "}";
  return s;
}

Scenario generate_scenario(std::uint64_t seed, const ScenarioEnvelope& env) {
  sim::Pcg32 rng(seed, 0xC4A05CE2A410ULL);
  Scenario sc;
  sc.seed = seed;
  sc.warmup = env.warmup;
  sc.budget = env.budget;

  sc.n_server_procs = static_cast<std::uint32_t>(
      sample_between(rng, env.min_server_procs, env.max_server_procs));
  sc.n_clients = static_cast<std::uint32_t>(
      sample_between(rng, env.min_clients, env.max_clients));
  sc.window =
      static_cast<std::uint32_t>(sample_between(rng, env.min_window,
                                                env.max_window));
  // Sample key count log-uniformly so tiny keyspaces (heavy per-key
  // contention, the interesting case for linearizability) are common.
  std::uint64_t lo = std::max<std::uint64_t>(1, env.min_keys);
  std::uint64_t hi = std::max(lo, env.max_keys);
  std::uint64_t span_log = 0;
  while ((lo << (span_log + 1)) <= hi) ++span_log;
  sc.n_keys = std::min(hi, lo << sample_between(rng, 0, span_log));

  sc.get_fraction = env.min_get_fraction +
                    rng.next_double() *
                        (env.max_get_fraction - env.min_get_fraction);
  sc.delete_fraction = rng.next_double() * env.max_delete_fraction;
  sc.zipf = env.allow_zipf && rng.next_double() < 0.5;
  sc.value_len = 16u + 8u * static_cast<std::uint32_t>(rng.next_below(5));

  // Resilience: always retries + deadline + (multi-proc) failover — chaos
  // runs are about recovery behavior, not the lossless-fabric fast path.
  sc.resilience.retry_timeout =
      sim::us(20) +
      sim::us(static_cast<double>(sample_between(rng, 0, 40)));
  sc.resilience.backoff_multiplier = 2.0;
  sc.resilience.backoff_max =
      sim::us(150) +
      sim::us(static_cast<double>(sample_between(rng, 0, 250)));
  sc.resilience.jitter = 0.2;
  sc.resilience.deadline =
      sim::us(600) +
      sim::us(static_cast<double>(sample_between(rng, 0, 1000)));
  sc.resilience.failover_threshold = sc.n_server_procs > 1 ? 3 : 0;
  sc.resilience.probe_interval = sim::us(300);

  fault::PlanEnvelope pe = env.plan;
  pe.horizon = env.warmup + env.budget;
  pe.n_procs = sc.n_server_procs;
  // Host 0 is the server; clients pack 3 per machine (TestbedConfig
  // default). Stalling the server NIC is the interesting case, so it is
  // always eligible.
  pe.n_hosts = 1 + (sc.n_clients + 2) / 3;
  sc.plan = fault::sample_plan(rng.next_u64(), pe);

  // Replication draws come AFTER everything above so pre-replication seeds
  // keep their sampled topology and fault plan bit for bit.
  sc.replicate = sc.n_server_procs >= 2 &&
                 rng.next_double() < env.replicate_fraction;
  if (env.force_crash_primary && sc.n_server_procs >= 2) {
    sc.replicate = true;
    sc.crash_primary = true;
    // One scripted crash of a shard primary (every process is primary of
    // its own shard at epoch 0), landing mid-budget so acked writes
    // straddle the promotion. Replaces the sampled crashes: the point of
    // this mode is that EVERY seed exercises failover, not the envelope's
    // crash probability.
    sc.plan.proc_crash.clear();
    fault::ProcCrashFault f;
    f.proc = static_cast<std::uint32_t>(rng.next_below(sc.n_server_procs));
    f.crash_at = sample_between(rng, env.warmup + env.budget / 4,
                                env.warmup + (env.budget * 3) / 4);
    // Half the seeds recover and re-replicate; half stay dead so the
    // promoted backup carries the rest of the run (and in-flight requests
    // at the crash become maybe-applied for the checker).
    if (rng.next_double() < 0.5) {
      f.recover_at = f.crash_at + env.budget / 8 +
                     sample_between(rng, 0, env.budget / 4);
    }
    sc.plan.proc_crash.push_back(f);
  }
  sc.drop_replication = env.drop_replication && sc.replicate;

  // Overload draws come AFTER everything above (appended-draws discipline):
  // seeds swept without force_overload_burst keep every earlier draw — and
  // hence their whole scenario — bit for bit.
  if (env.force_overload_burst) {
    sc.overload = true;
    core::OverloadConfig& oc = sc.overload_cfg;
    oc.enable = true;
    oc.n_tenants = 2 + static_cast<std::uint32_t>(rng.next_below(2));
    // Deliberately tight: a token every 100-600 ns per tenant, small burst,
    // low watermarks — modest load should shed.
    oc.ticks_per_token =
        sim::ns(100.0 * static_cast<double>(1 + rng.next_below(6)));
    oc.burst = 4 + rng.next_below(29);
    oc.queue_high = 8 + static_cast<std::uint32_t>(rng.next_below(25));
    oc.queue_low =
        1 + static_cast<std::uint32_t>(rng.next_below(oc.queue_high / 2));
    if (rng.next_double() < 0.5) {
      // Lopsided weights: tenant 0 outranks the rest, so degraded mode has
      // a lowest-priority class to shed first.
      oc.weights.assign(oc.n_tenants, 1);
      oc.weights[0] = 2 + static_cast<std::uint32_t>(rng.next_below(7));
    }
    oc.degraded_retry_after =
        sim::us(10.0 * static_cast<double>(2 + rng.next_below(9)));
    oc.drop_shedding = env.drop_shedding;
    if (rng.next_double() < 0.5) {
      sc.resilience.breaker_threshold =
          2 + static_cast<std::uint32_t>(rng.next_below(4));
      sc.resilience.breaker_cooldown =
          sim::us(25.0 * static_cast<double>(2 + rng.next_below(7)));
    }
  }
  return sc;
}

core::TestbedConfig to_testbed_config(const Scenario& sc) {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = sc.n_server_procs;
  cfg.herd.n_clients = sc.n_clients;
  cfg.herd.window = sc.window;
  cfg.herd.request_tokens = true;
  cfg.herd.mutation_dedup = !sc.break_dedup;
  cfg.herd.replicate = sc.replicate;
  cfg.herd.drop_replication = sc.drop_replication;
  if (sc.overload) cfg.herd.overload = sc.overload_cfg;
  // Exactly-once horizon: past deadline + backoff_max the client never
  // retries, so entries may age out safely.
  cfg.herd.dedup_retention =
      sc.resilience.deadline + sc.resilience.backoff_max + sim::ms(1);
  // Size MICA so the whole sampled keyspace fits with room to spare:
  // evictions and log wraps silently drop keys (cache semantics), which
  // the checker cannot distinguish from a lost PUT.
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 8u << 20;

  cfg.workload.n_keys = sc.n_keys;
  cfg.workload.get_fraction = sc.get_fraction;
  cfg.workload.delete_fraction = sc.delete_fraction;
  cfg.workload.zipf = sc.zipf;
  cfg.workload.value_len = sc.value_len;

  cfg.resilience = sc.resilience;
  cfg.fault_plan = sc.plan;
  cfg.verify_values = true;
  cfg.seed = sc.seed;
  cfg.trace_sample_every = sc.trace_sample_every;
  return cfg;
}

}  // namespace herd::chaos
