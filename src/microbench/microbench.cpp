#include "microbench/microbench.hpp"

#include <utility>

#include "obs/bench_report.hpp"

namespace herd::microbench {

namespace {
RunRecord g_last;            // NOLINT: process-wide last-run record
bool g_trace_capture = false;     // NOLINT: --bench-trace knob
std::uint32_t g_next_pump = 0;    // NOLINT: per-run pump ordinal counter
}  // namespace

const RunRecord& last_run() { return g_last; }

void set_trace_capture(bool on) { g_trace_capture = on; }
bool trace_capture() { return g_trace_capture; }

std::uint32_t next_pump_ordinal() { return ++g_next_pump; }

Microbench::Microbench(std::string name, std::string unit) {
  record_.name = std::move(name);
  record_.unit = std::move(unit);
  g_next_pump = 0;  // identical runs hand out identical trace-id salts
}

std::unique_ptr<cluster::SequentialCore> make_core(cluster::Cluster& cl,
                                                   const std::string& name) {
  auto core = std::make_unique<cluster::SequentialCore>(cl.engine(), name);
  cl.resources().add(name, core->resource());
  return core;
}

double Microbench::publish(double value) {
  record_.value = value;
  g_last = record_;
  return value;
}

double Microbench::measure_rate(cluster::Cluster& cl,
                                const std::function<std::uint64_t()>& count,
                                sim::Tick measure) {
  auto& eng = cl.engine();
  eng.run_until(eng.now() + sim::ms(1));  // warm-up
  if (g_trace_capture) {
    // One window over the whole measurement: every span the cluster's
    // pre-wired tracer sees is recorded, and sampled ops (nonzero WR trace
    // ids) group their RNIC pipeline hops under one trace id each.
    cl.tracer().enable(1);
    cl.tracer().sample();
  }
  std::uint64_t before = count();
  cluster::Window w =
      cl.measure(measure, cluster::kFlightWindows, record_.name);
  record_.attr = std::move(w.attribution);
  record_.timeseries = std::move(w.timeseries);
  finish(cl);
  return static_cast<double>(count() - before) / sim::to_sec(measure) / 1e6;
}

void Microbench::finish(cluster::Cluster& cl) {
  cluster::require_contract_clean(cl);
  record_.snapshot = cl.snapshot();
  obs::TailProfiler& tail = cl.tail();
  record_.tail = obs::p99_tail_json(tail);
  record_.tail_ids.clear();
  for (const obs::TailProfiler::Sample& s : tail.samples()) {
    record_.tail_ids.push_back(s.trace_id);
  }
  tail.clear();
  if (g_trace_capture && cl.tracer().enabled()) {
    record_.trace_json = cl.tracer().chrome_json();
    cl.tracer().release();
    cl.tracer().disable();
  }
}

}  // namespace herd::microbench
