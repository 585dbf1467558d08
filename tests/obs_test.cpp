// herd::obs — registry, snapshot, tracer, and bench-report schema tests.
//
// Covers the observability contract the rest of the repo leans on:
//   - MetricRegistry registration is strict (duplicate / malformed names
//     throw) and snapshots are deterministic;
//   - two identically-seeded testbed runs produce identical snapshots and
//     byte-identical Chrome trace exports;
//   - a traced request's spans appear in simulated-time order (client post,
//     RNIC RX/dispatch/TX, PCIe DMA, MICA op);
//   - Snapshot round-trips through JSON;
//   - validate_bench_json accepts what BenchReport writes and rejects
//     documents that drift from the herd-bench/1 schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "herd/testbed.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace herd::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricRegistry, LinksAndSnapshotsTypedHandles) {
  MetricRegistry reg;
  Counter c;
  Gauge g;
  reg.link("rnic.host0.rx_ops", &c);
  reg.link("herd.utilization", &g);
  c.inc(41);
  ++c;
  g.set(0.75);

  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.value("rnic.host0.rx_ops"), 42u);
  EXPECT_DOUBLE_EQ(s.gauge("herd.utilization"), 0.75);
  EXPECT_TRUE(s.has("rnic.host0.rx_ops"));
  EXPECT_FALSE(s.has("rnic.host1.rx_ops"));
  EXPECT_EQ(s.value("rnic.host1.rx_ops"), 0u);  // absent reads as zero
}

TEST(MetricRegistry, DuplicateNameThrows) {
  MetricRegistry reg;
  Counter a, b;
  reg.link("fabric.loss", &a);
  EXPECT_THROW(reg.link("fabric.loss", &b), std::logic_error);
  // The kind does not matter: a gauge cannot squat on a counter name either.
  Gauge g;
  EXPECT_THROW(reg.link("fabric.loss", &g), std::logic_error);
}

TEST(MetricRegistry, MalformedNameThrows) {
  MetricRegistry reg;
  Counter c;
  EXPECT_THROW(reg.link("", &c), std::logic_error);
  EXPECT_THROW(reg.link("has space", &c), std::logic_error);
  EXPECT_THROW(reg.link("emoji.\xf0\x9f\x90\x9b", &c), std::logic_error);
}

TEST(MetricRegistry, CallbackMetricsEvaluateAtSnapshotTime) {
  MetricRegistry reg;
  std::uint64_t backing = 1;
  reg.counter_fn("derived.total", [&] { return backing; });
  backing = 7;  // mutated after registration, before snapshot
  EXPECT_EQ(reg.snapshot().value("derived.total"), 7u);
}

TEST(MetricRegistry, OwnedCounterSurvivesRegistryGrowth) {
  MetricRegistry reg;
  Counter& first = reg.counter("owned.first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("owned.n" + std::to_string(i));
  }
  first.inc(5);  // must not have been invalidated by growth
  EXPECT_EQ(reg.snapshot().value("owned.first"), 5u);
}

// ---------------------------------------------------------------- snapshot

TEST(Snapshot, JsonRoundTripPreservesEverything) {
  Snapshot s;
  s.set_counter("a.b", 3);
  s.set_counter("a.c", 0);
  s.set_gauge("g.x", 1.5);
  HistogramStats h;
  h.count = 10;
  h.min = 100;
  h.max = 9000;
  h.mean_ns = 4.5;
  h.p50_ns = 4.0;
  h.p95_ns = 8.0;
  h.p99_ns = 9.0;
  s.set_histogram("lat.e2e", h);

  Snapshot back = Snapshot::from_json(Json::parse(s.to_json().dump()));
  EXPECT_EQ(back, s);
}

TEST(Snapshot, SerializationIsSorted) {
  // Deterministic exports need a canonical key order regardless of
  // registration order.
  Snapshot s;
  s.set_counter("z.last", 1);
  s.set_counter("a.first", 2);
  std::string text = s.to_json().dump();
  EXPECT_LT(text.find("a.first"), text.find("z.last"));
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, SamplingOpensEveryNthWindow) {
  Tracer t;
  EXPECT_FALSE(t.sample());  // disabled -> never samples
  t.enable(3);
  int hits = 0;
  for (int i = 0; i < 9; ++i) {
    if (t.sample()) {
      ++hits;
      EXPECT_TRUE(t.active());
      t.release();
    }
  }
  EXPECT_EQ(hits, 3);
  EXPECT_FALSE(t.active());
}

TEST(Tracer, ProducerGateRecordsOnlyInsideWindow) {
  Tracer t;
  t.enable(1);
  EXPECT_FALSE(tracing(&t));  // enabled but no window open
  ASSERT_TRUE(t.sample());
  EXPECT_TRUE(tracing(&t));
  t.span("core", "work", 100, 200);
  t.release();
  EXPECT_FALSE(tracing(&t));
  EXPECT_FALSE(tracing(nullptr));
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events()[0].name, "work");
}

TEST(Tracer, ChromeJsonIsValidAndDeterministic) {
  auto build = [] {
    Tracer t;
    t.span("client", "request", sim::us(1), sim::us(5));
    t.span("rnic", "rx", sim::us(2), sim::us(3), "bytes=64");
    t.instant("rnic", "qp_cache_miss", sim::us(2));
    return t;
  };
  std::string a = build().chrome_json();
  std::string b = build().chrome_json();
  EXPECT_EQ(a, b);

  Json doc = Json::parse(a);
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 3 recorded events + thread_name metadata for the two tracks.
  EXPECT_GE(events->size(), 5u);
}

// --------------------------------------------- causal spans (herd-trace/2)

TEST(Tracer, SpanBeginEndExportsCompleteEventWithCausalArgs) {
  Tracer t;
  TraceCtx root_ctx{0x300000007ULL, 0};
  SpanId root = t.span_begin("client0", "request", sim::us(1), "seq=7",
                             root_ctx);
  ASSERT_NE(root, 0u);
  EXPECT_EQ(t.open_spans(), 1u);
  t.span("client0", "client_post", sim::us(1), sim::us(2), {},
         TraceCtx{0x300000007ULL, root});
  t.span_end(root, sim::us(9));
  EXPECT_EQ(t.open_spans(), 0u);

  Json doc = Json::parse(t.chrome_json());
  EXPECT_EQ(doc.find("schema")->as_string(), kTraceSchema);
  EXPECT_TRUE(validate_trace_json(doc).empty());
  // Both spans export as complete "X" events carrying the trace id; the
  // child's parent arg names the root span.
  int xs = 0;
  bool saw_child = false;
  for (const Json& e : doc.find("traceEvents")->elements()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    ++xs;
    const Json* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("trace")->as_string(), "0x300000007");
    if (e.find("name")->as_string() == "client_post") {
      saw_child = true;
      EXPECT_EQ(args->find("parent")->as_uint(), root);
    }
  }
  EXPECT_EQ(xs, 2);
  EXPECT_TRUE(saw_child);
}

TEST(Tracer, SpanEndOnUnknownIdIsIgnored) {
  Tracer t;
  SpanId id = t.span_begin("proc0", "drr_wait", sim::us(3));
  t.span_end(id + 7, sim::us(4));  // bogus id: no effect
  EXPECT_EQ(t.open_spans(), 1u);
  t.span_end(id, sim::us(4));
  t.span_end(id, sim::us(5));  // double close: no effect, no crash
  EXPECT_EQ(t.open_spans(), 0u);
}

TEST(Tracer, OpenSpanExportsBPhaseWhichValidatorRejects) {
  Tracer t;
  t.span_begin("proc0", "drr_wait", sim::us(3));
  EXPECT_EQ(t.open_spans(), 1u);
  Json doc = Json::parse(t.chrome_json());
  std::vector<std::string> problems = validate_trace_json(doc);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("unpaired begin-span"), std::string::npos);
}

TEST(Tracer, InFlightRootExportsCutAtNowWhileOtherOpenSpansStayOpen) {
  Tracer t;
  TraceCtx root_ctx{0x500000003ULL, 0};
  SpanId root = t.span_begin("client0", "request", sim::us(1), "seq=3",
                             root_ctx);
  t.span_begin("proc0", "drr_wait", sim::us(2));  // a leak, not in flight
  TraceCtx in_flight[] = {{0x500000003ULL, root}};

  Json doc = Json::parse(t.chrome_json(in_flight, sim::us(9)));
  std::vector<std::string> problems = validate_trace_json(doc);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("\"drr_wait\""), std::string::npos);
  bool saw_root = false;
  for (const Json& e : doc.find("traceEvents")->elements()) {
    if (e.find("name")->as_string() != "request") continue;
    saw_root = true;
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_EQ(e.find("dur")->as_double(), 8.0);  // cut at `now`, in µs
    EXPECT_TRUE(e.find("args")->find("in_flight")->as_bool());
  }
  EXPECT_TRUE(saw_root);

  // A root is cut only when both its trace id and span id match.
  TraceCtx other_trace[] = {{0x600000003ULL, root}};
  EXPECT_EQ(validate_trace_json(Json::parse(t.chrome_json(other_trace,
                                                          sim::us(9))))
                .size(),
            2u);
  // Exporting changed nothing: both spans are still open.
  EXPECT_EQ(t.open_spans(), 2u);
}

TEST(TraceValidator, RejectsSchemaDrift) {
  Tracer t;
  t.span("client", "request", sim::us(1), sim::us(5));
  Json doc = Json::parse(t.chrome_json());
  ASSERT_TRUE(validate_trace_json(doc).empty());
  doc["schema"] = Json("herd-trace/1");
  EXPECT_FALSE(validate_trace_json(doc).empty());
}

// ----------------------------------------------- per-request tail profiler

TEST(TailProfiler, StagesTelescopeExactlyToTotal) {
  TailProfiler tp;
  tp.begin(7, sim::us(10));
  tp.stage(7, "client_post", sim::us(11));
  tp.stage(7, "net_in", sim::us(14));
  tp.stage(7, "mica_op", sim::us(15));
  tp.finish(7, "ok", sim::us(20), "net_out");
  ASSERT_EQ(tp.finished(), 1u);
  const TailProfiler::Sample& s = tp.samples()[0];
  EXPECT_EQ(s.total, sim::us(10));
  sim::Tick sum = 0;
  for (const auto& [name, ticks] : s.stages) sum += ticks;
  EXPECT_EQ(sum, s.total);  // the telescoping invariant, exactly
}

TEST(TailProfiler, ChargeAmortizesWithoutBreakingTheTelescope) {
  // charge() bills a fixed share (the chain-amortization hook) and advances
  // the mark by the same amount, so the residual stage picks up the rest.
  TailProfiler tp;
  tp.begin(9, 0);
  tp.charge(9, "doorbell", sim::us(2));
  tp.finish(9, "ok", sim::us(10), "net_rtt");
  const TailProfiler::Sample& s = tp.samples()[0];
  ASSERT_EQ(s.stages.size(), 2u);
  EXPECT_EQ(s.stages[0].first, "doorbell");
  EXPECT_EQ(s.stages[0].second, sim::us(2));
  EXPECT_EQ(s.stages[1].first, "net_rtt");
  EXPECT_EQ(s.stages[1].second, sim::us(8));
  EXPECT_EQ(s.total, sim::us(10));
}

TEST(TailProfiler, QuantileCutMergesRepeatedStages) {
  TailProfiler tp;
  // One slow request with a stage name charged twice (retry loop shape).
  tp.begin(1, 0);
  tp.stage(1, "backoff_hold", sim::us(3));
  tp.stage(1, "net_out", sim::us(4));
  tp.stage(1, "backoff_hold", sim::us(9));
  tp.finish(1, "ok", sim::us(10), "net_out");
  tp.begin(2, 0);
  tp.finish(2, "ok", sim::us(1), "net_out");

  TailProfiler::QuantileCut cut = tp.quantile("ok", 0.99);
  ASSERT_TRUE(cut.valid);
  EXPECT_EQ(cut.trace_id, 1u);  // p99 of {1us, 10us} is the slow one
  EXPECT_DOUBLE_EQ(cut.total_us, 10.0);
  EXPECT_DOUBLE_EQ(cut.stage_sum_us, cut.total_us);
  double backoff = 0, net = 0;
  for (const auto& [name, us] : cut.stages_us) {
    if (name == "backoff_hold") backoff += us;
    if (name == "net_out") net += us;
  }
  EXPECT_DOUBLE_EQ(backoff, 8.0);  // 3 + 5, merged under one name
  EXPECT_DOUBLE_EQ(net, 2.0);
  EXPECT_FALSE(tp.quantile("deadline", 0.99).valid);
}

TEST(TailProfiler, TailJsonRoundTripsThroughBenchValidator) {
  TailProfiler tp;
  tp.begin(5, 0);
  tp.stage(5, "client_post", sim::us(1));
  tp.finish(5, "ok", sim::us(6), "net_out");
  Json tail = tail_json(tp.quantile("ok", 0.99));
  ASSERT_TRUE(tail.is_object());
  EXPECT_DOUBLE_EQ(tail.find("p99_total_us")->as_double(), 6.0);
  EXPECT_DOUBLE_EQ(tail.find("stage_sum_us")->as_double(), 6.0);

  BenchReport rep(BenchSpec{"fig99", "t", {"A"}});
  rep.add_point("A", 1, {{"Mops", 1.0}}, Attribution{}, tail);
  EXPECT_TRUE(validate_bench_json(rep.to_json()).empty());

  EXPECT_TRUE(tail_json(TailProfiler::QuantileCut{}).is_null());
}

// ------------------------------------------------ request hops (one call)

// Counts how often a hop built its event detail.
struct CountingArgs {
  int* built;
  std::string operator()() const {
    ++*built;
    return "seq=1";
  }
};

TEST(TracerHop, UnsampledHopOutsideAWindowTouchesNeitherSink) {
  Tracer t;
  int built = 0;
  t.hop("client", "retry", sim::us(1), TraceCtx{}, "retry_wait",
        CountingArgs{&built});
  t.hop_span("client", "client_post", 0, sim::us(1), TraceCtx{},
             "client_post", CountingArgs{&built});
  t.stage(0, "net_in", sim::us(2));
  t.charge(0, "doorbell", sim::us(1));
  t.request_end("client", "deadline_exceeded", sim::us(3), TraceCtx{},
                "deadline", "deadline_wait", CountingArgs{&built});
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(built, 0);  // the untraced path builds no strings
  EXPECT_EQ(t.tail().in_flight(), 0u);
  EXPECT_EQ(t.tail().finished(), 0u);
  // A sampler that is off never opens a request.
  EXPECT_FALSE(t.request_begin("client", 0, 7, CountingArgs{&built}).sampled());
  EXPECT_EQ(t.tail().in_flight(), 0u);
  EXPECT_EQ(built, 0);
}

TEST(TracerHop, SampledHopWithNoWindowChargesTheStageOnly) {
  Tracer t;
  t.tail().begin(7, 0);  // a live sample whose window is not open
  int built = 0;
  t.hop("client", "retry", sim::us(3), TraceCtx{7, 0}, "retry_wait",
        CountingArgs{&built});
  t.hop_span("proc0", "drr_wait", sim::us(3), sim::us(4), TraceCtx{7, 0},
             "drr_wait", CountingArgs{&built});
  t.stage(7, "net_in", sim::us(5));
  t.charge(7, "doorbell", sim::us(1));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(built, 0);
  t.tail().finish(7, "ok", sim::us(10), "net_out");
  ASSERT_EQ(t.tail().finished(), 1u);
  const TailProfiler::Sample& s = t.tail().samples()[0];
  ASSERT_EQ(s.stages.size(), 5u);
  EXPECT_EQ(s.stages[0], std::make_pair(std::string("retry_wait"), sim::us(3)));
  EXPECT_EQ(s.stages[1], std::make_pair(std::string("drr_wait"), sim::us(1)));
  EXPECT_EQ(s.stages[2], std::make_pair(std::string("net_in"), sim::us(1)));
  EXPECT_EQ(s.stages[3], std::make_pair(std::string("doorbell"), sim::us(1)));
  EXPECT_EQ(s.stages[4], std::make_pair(std::string("net_out"), sim::us(4)));
}

TEST(TracerHop, SampledHopInAWindowRecordsAndChargesExactlyOnce) {
  Tracer t;
  t.enable(1);
  int built = 0;
  TraceCtx ctx = t.request_begin("client", 0, 7, CountingArgs{&built});
  ASSERT_TRUE(ctx.sampled());
  EXPECT_NE(ctx.parent, 0u);  // the root span
  EXPECT_TRUE(t.active());
  EXPECT_EQ(t.open_spans(), 1u);
  EXPECT_EQ(built, 1);

  t.hop("client", "retry", sim::us(3), ctx, "retry_wait",
        CountingArgs{&built});
  EXPECT_EQ(built, 2);
  // An unsampled hop inside the window records (trace id 0) but charges
  // nothing; an empty span is no event.
  t.hop_span("client", "client_post", sim::us(3), sim::us(4), TraceCtx{},
             "client_post");
  t.hop_span("proc0", "drr_wait", sim::us(4), sim::us(4), ctx, "drr_wait");
  t.request_end("client", {}, sim::us(6), ctx, "ok", "net_out",
                CountingArgs{&built});
  EXPECT_EQ(built, 3);
  EXPECT_FALSE(t.active());  // the request's window closed with it
  EXPECT_EQ(t.open_spans(), 0u);

  int retries = 0, posts = 0, waits = 0, roots = 0;
  for (const Tracer::Event& e : t.events()) {
    if (e.name == "retry") {
      ++retries;
      EXPECT_TRUE(e.instant);
      EXPECT_EQ(e.trace_id, 7u);
      EXPECT_EQ(e.parent, ctx.parent);
      EXPECT_EQ(e.args, "seq=1");
    }
    if (e.name == "client_post") {
      ++posts;
      EXPECT_EQ(e.trace_id, 0u);
    }
    if (e.name == "drr_wait") ++waits;
    if (e.name == "request") {
      ++roots;
      EXPECT_EQ(e.start, 0u);
      EXPECT_EQ(e.end, sim::us(6));
    }
  }
  EXPECT_EQ(retries, 1);
  EXPECT_EQ(posts, 1);
  EXPECT_EQ(waits, 0);
  EXPECT_EQ(roots, 1);

  ASSERT_EQ(t.tail().finished(), 1u);
  const TailProfiler::Sample& s = t.tail().samples()[0];
  EXPECT_EQ(s.outcome, "ok");
  EXPECT_EQ(s.total, sim::us(6));
  ASSERT_EQ(s.stages.size(), 3u);
  EXPECT_EQ(s.stages[0], std::make_pair(std::string("retry_wait"), sim::us(3)));
  EXPECT_EQ(s.stages[1], std::make_pair(std::string("drr_wait"), sim::us(1)));
  EXPECT_EQ(s.stages[2], std::make_pair(std::string("net_out"), sim::us(2)));
}

TEST(TracerHop, DeadlineEndRecordsItsInstantAndResidualStage) {
  Tracer t;
  t.enable(1);
  TraceCtx ctx = t.request_begin("client", 0, 9, NoArgs{});
  t.hop("client", "retry", sim::us(2), ctx, "retry_wait");
  t.request_end("client", "deadline_exceeded", sim::us(5), ctx, "deadline",
                "deadline_wait");
  ASSERT_EQ(t.size(), 3u);  // root span, retry, deadline_exceeded
  EXPECT_EQ(t.events()[2].name, "deadline_exceeded");
  EXPECT_TRUE(t.events()[2].instant);
  EXPECT_EQ(t.events()[2].parent, ctx.parent);
  EXPECT_EQ(t.open_spans(), 0u);
  ASSERT_EQ(t.tail().count("deadline"), 1u);
  const TailProfiler::Sample& s = t.tail().samples()[0];
  ASSERT_EQ(s.stages.size(), 2u);
  EXPECT_EQ(s.stages[1],
            std::make_pair(std::string("deadline_wait"), sim::us(3)));
}

TEST(BenchReport, ValidatorRejectsMalformedTail) {
  auto with_tail = [](Json tail) {
    BenchReport rep(BenchSpec{"fig99", "t", {"A"}});
    rep.add_point("A", 1, {{"Mops", 1.0}}, Attribution{}, tail);
    return validate_bench_json(rep.to_json());
  };
  Json missing_sum = Json::object();
  missing_sum["p99_total_us"] = Json(5.0);
  missing_sum["stages"] = Json::object();
  missing_sum["stages"]["net_out"] = Json(5.0);
  EXPECT_FALSE(with_tail(std::move(missing_sum)).empty());

  Json empty_stages = Json::object();
  empty_stages["p99_total_us"] = Json(5.0);
  empty_stages["stage_sum_us"] = Json(5.0);
  empty_stages["stages"] = Json::object();
  EXPECT_FALSE(with_tail(std::move(empty_stages)).empty());
}

// ------------------------------------------------- end-to-end determinism

core::TestbedConfig traced_config() {
  core::TestbedConfig cfg;
  cfg.herd.n_server_procs = 2;
  cfg.herd.n_clients = 4;
  cfg.herd.window = 4;
  cfg.herd.mica.bucket_count_log2 = 12;
  cfg.herd.mica.log_bytes = 4u << 20;
  cfg.workload.n_keys = 1000;
  cfg.workload.value_len = 32;
  cfg.seed = 42;
  cfg.trace_sample_every = 64;
  return cfg;
}

TEST(ObsDeterminism, IdenticalSeedsIdenticalSnapshotsAndTraces) {
  auto run = [] {
    core::HerdTestbed bed(traced_config());
    bed.run(sim::us(200), sim::us(800));
    return std::pair{bed.snapshot(), bed.trace_json()};
  };
  auto [snap1, trace1] = run();
  auto [snap2, trace2] = run();
  EXPECT_EQ(snap1, snap2);
  EXPECT_EQ(trace1, trace2);  // byte-identical Chrome export
  EXPECT_GT(snap1.counters().size(), 50u);
  EXPECT_GT(trace1.size(), 2u);
}

TEST(ObsDeterminism, TracedRequestSpansAppearInSimTimeOrder) {
  core::HerdTestbed bed(traced_config());
  bed.run(sim::us(200), sim::us(800));
  const auto& events = bed.tracer().events();
  ASSERT_FALSE(events.empty());

  // Sampling windows record every event while open, so spans of concurrent
  // requests interleave. The lifecycle ordering we assert is causal, so we
  // follow one chain: the first sampled client post, then the first instance
  // of each later stage at or after the previous stage's start.
  auto first_after = [&](sim::Tick t, auto pred) {
    sim::Tick best = 0;
    bool found = false;
    for (const auto& e : events) {
      if (e.start < t || !pred(e)) continue;
      if (!found || e.start < best) best = e.start;
      found = true;
    }
    EXPECT_TRUE(found);
    return best;
  };
  auto named = [](const std::string& prefix) {
    return [prefix](const Tracer::Event& e) {
      return e.name.compare(0, prefix.size(), prefix) == 0;
    };
  };

  sim::Tick client_post = first_after(0, named("client_post"));
  sim::Tick rnic_rx = first_after(client_post, named("rx_"));
  sim::Tick dispatch = first_after(client_post, named("dispatch"));
  sim::Tick mica = first_after(rnic_rx, named("mica_op"));
  sim::Tick rnic_tx = first_after(mica, named("tx_"));
  sim::Tick dma = first_after(client_post, named("dma_"));

  // client post -> RNIC RX (+ dispatch) -> MICA op -> response TX, with the
  // PCIe DMA activity in between: each later stage exists and starts strictly
  // after the client's post, and the chain is monotone in simulated time.
  EXPECT_LT(client_post, rnic_rx);
  EXPECT_LT(client_post, dispatch);
  EXPECT_LT(rnic_rx, mica);
  EXPECT_LE(mica, rnic_tx);
  EXPECT_LT(client_post, dma);
  EXPECT_LT(rnic_tx, client_post + sim::us(100));  // same neighborhood
}

// ------------------------------------- causal propagation across the wire

core::TestbedConfig wire_traced_config() {
  core::TestbedConfig cfg = traced_config();
  cfg.herd.request_tokens = true;  // trace header requires tokened requests
  cfg.herd.trace = true;
  return cfg;
}

TEST(TraceE2E, ExportValidatesAndKeepsOneTraceIdAcrossClientAndServer) {
  core::HerdTestbed bed(wire_traced_config());
  bed.run(sim::us(200), sim::us(800));
  EXPECT_EQ(bed.tracer().open_spans(), 0u);  // every begin reached its end

  Json doc = Json::parse(bed.trace_json());
  EXPECT_TRUE(validate_trace_json(doc).empty());

  // Resolve tid -> track names, then group traced events by trace id. A
  // sampled request must keep ONE id across the client track and the
  // server-side stages (net_in/drr_wait/mica_op/... live on proc tracks).
  std::map<double, std::string> tracks;
  std::map<std::string, std::set<std::string>> tracks_of;  // trace -> tracks
  for (const Json& e : doc.find("traceEvents")->elements()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr) continue;
    if (ph->as_string() == "M") {
      const Json* name = e.find("name");
      if (name != nullptr && name->as_string() == "thread_name") {
        tracks[e.find("tid")->as_double()] =
            e.find("args")->find("name")->as_string();
      }
      continue;
    }
    const Json* args = e.find("args");
    const Json* trace = args == nullptr ? nullptr : args->find("trace");
    if (trace == nullptr || trace->as_string() == "0x0") continue;
    tracks_of[trace->as_string()].insert(
        tracks[e.find("tid")->as_double()]);
  }
  ASSERT_FALSE(tracks_of.empty());
  // Tracks are "<fabric>/<host>/<unit>"; a sampled id must show up on both
  // a client unit and a server proc unit.
  bool crossed = false;
  for (const auto& [id, tr] : tracks_of) {
    bool client = false, server = false;
    for (const std::string& t : tr) {
      if (t.find("/client") != std::string::npos) client = true;
      if (t.find("/proc") != std::string::npos) server = true;
    }
    crossed = crossed || (client && server);
  }
  EXPECT_TRUE(crossed);
}

TEST(TraceE2E, InFlightRequestsExportClosedAndLeakedSpansStillFail) {
  // Every request is sampled and the run stops mid-flight, so the export
  // sees open "request" roots: each is in a client's in-flight table and
  // exports closed and marked, and the document validates.
  core::TestbedConfig cfg = wire_traced_config();
  cfg.trace_sample_every = 1;
  core::HerdTestbed bed(cfg);
  bed.run(sim::us(50), sim::us(100));
  std::size_t open = bed.tracer().open_spans();
  ASSERT_GT(open, 0u);

  Json doc = Json::parse(bed.trace_json());
  EXPECT_TRUE(validate_trace_json(doc).empty());
  std::size_t marked = 0;
  for (const Json& e : doc.find("traceEvents")->elements()) {
    const Json* args = e.find("args");
    if (args != nullptr && args->find("in_flight") != nullptr) {
      EXPECT_EQ(e.find("name")->as_string(), "request");
      ++marked;
    }
  }
  EXPECT_EQ(marked, open);
  EXPECT_EQ(bed.tracer().open_spans(), open);  // export mutated nothing

  // A span that is not an in-flight request's root still exports as a
  // lone "B" the schema check rejects.
  bed.tracer().span_begin("proc0", "drr_wait", bed.cluster().engine().now());
  std::vector<std::string> problems =
      validate_trace_json(Json::parse(bed.trace_json()));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("\"drr_wait\""), std::string::npos);

  // The run continues after an export, and the requests retire normally.
  bed.run(0, sim::us(100));
  EXPECT_GT(bed.tail().count("ok"), 0u);
}

TEST(TraceE2E, TailStagesSumExactlyToEndToEndLatency) {
  core::HerdTestbed bed(wire_traced_config());
  bed.run(sim::us(200), sim::us(800));
  ASSERT_GT(bed.tail().count("ok"), 0u);
  EXPECT_EQ(bed.tail().in_flight(), 0u);
  // Telescoping is exact on ticks; the bench gate allows 1% only for the
  // tick->us rounding of the emitted JSON.
  for (const TailProfiler::Sample& s : bed.tail().samples()) {
    sim::Tick sum = 0;
    for (const auto& [name, ticks] : s.stages) sum += ticks;
    EXPECT_EQ(sum, s.total) << "sample 0x" << std::hex << s.trace_id;
  }
  TailProfiler::QuantileCut cut = bed.tail().quantile("ok", 0.99);
  ASSERT_TRUE(cut.valid);
  EXPECT_NEAR(cut.stage_sum_us, cut.total_us, 0.01 * cut.total_us);
  // Both sides of the wire contributed stages.
  bool server_side = false;
  for (const auto& [name, us] : cut.stages_us) {
    if (name == "mica_op" || name == "net_in") server_side = true;
  }
  EXPECT_TRUE(server_side);
}

// The request-path stage vocabulary EXPERIMENTS.md documents. Each tracer
// hop call charges one of these; a refactor that drops a hop's charge (or
// renames its stage) shows up here as a stage no testbed produces any more.
TEST(TraceE2E, EveryDocumentedStageIsProducedAndTelescopes) {
  std::set<std::string> stages;
  std::set<std::string> outcomes;
  auto collect = [&](core::HerdTestbed& bed, const char* what) {
    for (const TailProfiler::Sample& s : bed.tail().samples()) {
      sim::Tick sum = 0;
      for (const auto& [name, ticks] : s.stages) {
        sum += ticks;
        stages.insert(name);
      }
      EXPECT_EQ(sum, s.total) << what << ": sample 0x" << std::hex
                              << s.trace_id;
      outcomes.insert(s.outcome);
    }
  };
  // Every request is sampled (one in flight per client at window 1), so
  // each rare path below lands in the profile.
  auto replicated = [] {
    core::TestbedConfig cfg = wire_traced_config();
    cfg.trace_sample_every = 1;
    cfg.herd.n_server_procs = 2;
    cfg.herd.n_clients = 4;
    cfg.herd.window = 1;
    cfg.herd.replicate = true;
    cfg.workload.n_keys = 512;
    cfg.workload.get_fraction = 0.5;
    cfg.resilience.retry_timeout = sim::us(30);
    cfg.resilience.backoff_multiplier = 2.0;
    cfg.resilience.backoff_max = sim::us(120);
    cfg.resilience.jitter = 0.2;
    cfg.resilience.deadline = sim::ms(1);
    cfg.resilience.failover_threshold = 3;
    cfg.resilience.probe_interval = sim::ms(1);
    cfg.seed = 7;
    return cfg;
  };
  {
    // Primary crash with failover: retry_wait, failover_wait, and the
    // replicated write path (repl_fwd, chain_hold, doorbell).
    core::TestbedConfig cfg = replicated();
    cfg.fault_plan.proc_crash.push_back(fault::ProcCrashFault{0, sim::us(300), 0});
    core::HerdTestbed bed(cfg);
    auto r = bed.run(sim::us(200), sim::us(800));
    ASSERT_GT(r.failovers, 0u);
    collect(bed, "crash-failover");
  }
  {
    // Live migration: clients holding the old shard map are redirected.
    core::TestbedConfig cfg = replicated();
    cfg.herd.n_server_procs = 3;
    cfg.herd.migration_stream_time = sim::us(200);
    core::HerdTestbed bed(cfg);
    bed.run(sim::us(200), sim::us(200));
    ASSERT_TRUE(bed.service().migrate_shard(0, 2));
    auto r = bed.run(0, sim::us(800));
    ASSERT_GT(r.stale_epoch_retries, 0u);
    collect(bed, "migration");
  }
  {
    // Primary crash with no failover: requests to the dead process retry
    // until their deadline retires them.
    core::TestbedConfig cfg = replicated();
    cfg.resilience.failover_threshold = 0;
    cfg.resilience.deadline = sim::us(200);
    cfg.fault_plan.proc_crash.push_back(fault::ProcCrashFault{0, sim::us(300), 0});
    core::HerdTestbed bed(cfg);
    auto r = bed.run(sim::us(200), sim::us(800));
    ASSERT_GT(r.deadline_exceeded, 0u);
    collect(bed, "crash-deadline");
  }
  {
    // Overload: a tight admission quota sheds, clients back off.
    core::TestbedConfig cfg = wire_traced_config();
    cfg.trace_sample_every = 1;
    cfg.herd.n_server_procs = 1;
    cfg.herd.n_clients = 4;
    cfg.herd.window = 1;
    cfg.herd.overload.enable = true;
    cfg.herd.overload.n_tenants = 2;
    cfg.herd.overload.ticks_per_token = sim::us(2);
    cfg.herd.overload.burst = 2;
    cfg.herd.overload.queue_high = 16;
    cfg.herd.overload.queue_low = 4;
    cfg.resilience.retry_timeout = sim::us(200);
    cfg.resilience.backoff_multiplier = 2.0;
    cfg.resilience.backoff_max = sim::us(400);
    cfg.resilience.jitter = 0.2;
    core::HerdTestbed bed(cfg);
    bed.run(sim::us(200), sim::us(800));
    collect(bed, "overload");
  }
  for (const char* stage :
       {"client_post", "net_out", "retry_wait", "redirect_rtt",
        "failover_wait", "backoff_hold", "deadline_wait", "net_in",
        "drr_wait", "mica_op", "repl_fwd", "chain_hold", "doorbell"}) {
    EXPECT_EQ(stages.count(stage), 1u) << "no sample charged " << stage;
  }
  EXPECT_EQ(outcomes.count("ok"), 1u);
  EXPECT_EQ(outcomes.count("deadline"), 1u);
}

// ------------------------------------------------------------ bench schema

BenchReport sample_report() {
  BenchReport rep(BenchSpec{"fig99", "Test figure", {"WRITE_UC", "READ_RC"}});
  rep.set_config("payload", Json{std::uint64_t{32}});
  rep.add_point("WRITE_UC", 32, {{"Mops", 34.9}});
  rep.add_point("READ_RC", 32, {{"Mops", 26.0}, {"avg_us", 5.0}});
  Snapshot s;
  s.set_counter("rnic.rx_ops", 123);
  rep.set_snapshot(s);
  rep.set_git_rev("deadbeef");
  return rep;
}

TEST(BenchReport, UndeclaredSeriesThrows) {
  BenchReport rep(BenchSpec{"fig99", "t", {"A"}});
  EXPECT_THROW(rep.add_point("B", 1, {{"Mops", 1.0}}), std::logic_error);
}

TEST(BenchReport, ValidatorAcceptsWhatReportWrites) {
  Json doc = Json::parse(sample_report().to_json().dump());
  EXPECT_TRUE(validate_bench_json(doc).empty());
}

TEST(BenchReport, ValidatorRejectsSchemaDrift) {
  auto mutate = [](auto fn) {
    Json doc = sample_report().to_json();
    fn(doc);
    return validate_bench_json(doc);
  };
  EXPECT_FALSE(mutate([](Json& d) { d["schema"] = "herd-bench/0"; }).empty());
  EXPECT_FALSE(mutate([](Json& d) { d["figure"] = Json(); }).empty());
  EXPECT_FALSE(mutate([](Json& d) { d["series"] = Json(); }).empty());
  EXPECT_FALSE(mutate([](Json& d) {
                 Json bad = Json::object();
                 bad["name"] = "X";  // no "points"
                 d["series"].push_back(std::move(bad));
               }).empty());
  EXPECT_FALSE(validate_bench_json(Json::parse("{}")).empty());
  EXPECT_FALSE(validate_bench_json(Json::parse("[1,2]")).empty());
}

}  // namespace
}  // namespace herd::obs
