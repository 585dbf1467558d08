// Simulated-time tracer: spans and instants over sim::Tick, exported as
// Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev).
//
// The tracer records the request lifecycle the paper reasons about — client
// post -> fabric -> RNIC RX pipeline -> dispatch -> MICA op -> TX -> client
// poll — plus the PCIe PIO/DMA transactions and QP-cache miss stalls under
// it. Each emitting layer appears as its own named track (pid 0, one tid
// per track).
//
// v2 adds causality: every event may carry a TraceCtx (64-bit trace id +
// 32-bit parent span id), and span ids are assigned in deterministic
// emission order, so a request keeps one trace id across client retries,
// kWrongEpoch redirects, failover re-sends, kOverloaded shed/backoff
// cycles, and replication forward/ack hops. Spans that stay open across
// scheduling quanta use span_begin()/span_end(); a begin without a
// matching end exports as a Chrome "B" phase, which the schema checker
// rejects — unpaired spans are a bug, not a rendering quirk.
//
// Sampling: tracing every request of a multi-million-op run would swamp
// memory, so the sampler (the HERD client) opens a window around every Nth
// request via sample()/release(); producers record only while a window is
// open. With tracing disabled, the producer-side gate
// `tracing(tracer_ptr)` costs one predictable branch on the hot path.
//
// Request hops: the tracer also owns the per-request TailProfiler. A HERD
// request's path (client post, retries and re-sends, server arrival, DRR,
// MICA, replication, chain flush) is instrumented with one hop call per
// hop — request_begin/request_end, hop/hop_span, stage/charge — which
// records the event while a window is open and charges the request's tail
// stage whenever its trace id is nonzero.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tail.hpp"
#include "sim/time.hpp"

namespace herd::obs {

/// Causal identity carried alongside an event: which request (trace_id,
/// 0 = untraced) and which enclosing span (parent, 0 = root).
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint32_t parent = 0;
  bool sampled() const { return trace_id != 0; }
};

/// Opaque handle returned by span_begin; 0 = not recording.
using SpanId = std::uint32_t;

inline constexpr std::string_view kTraceSchema = "herd-trace/2";

/// Detail of a hop event that has none. Hop calls take the detail as a
/// callable, invoked only when the event is recorded, so an untraced hop
/// builds no strings.
struct NoArgs {
  std::string_view operator()() const { return {}; }
};

class Tracer {
 public:
  struct Event {
    std::string track;
    std::string name;
    std::string args;  // optional free-form detail ("" = none)
    sim::Tick start = 0;
    sim::Tick end = 0;   // == start for instants
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;  // nonzero for spans (begin/complete)
    std::uint32_t parent = 0;
    bool instant = false;
    bool open = false;  // span_begin with no span_end yet
  };

  /// Turns sampling on: every `sample_every`-th sample() call opens a
  /// recording window. 1 traces everything; 0 disables.
  void enable(std::uint64_t sample_every) { sample_every_ = sample_every; }
  void disable() { sample_every_ = 0; }
  bool enabled() const { return sample_every_ != 0; }

  /// True while at least one sampling window is open — the hot-path gate.
  bool active() const { return active_windows_ != 0; }

  /// Rolls the sampling counter. On a hit, opens a window (recording starts)
  /// and returns true; the caller must release() when its sampled unit of
  /// work retires.
  bool sample() {
    if (sample_every_ == 0) return false;
    if (++seen_ % sample_every_ != 0) return false;
    ++active_windows_;
    return true;
  }
  void release() {
    if (active_windows_ > 0) --active_windows_;
  }

  /// Complete span: both endpoints known at emission time.
  SpanId span(std::string_view track, std::string_view name, sim::Tick start,
              sim::Tick end, std::string_view args = {}, TraceCtx ctx = {}) {
    SpanId id = ++next_span_;
    events_.push_back(Event{std::string(track), std::string(name),
                            std::string(args), start, end, ctx.trace_id, id,
                            ctx.parent, false, false});
    return id;
  }
  void instant(std::string_view track, std::string_view name, sim::Tick at,
               std::string_view args = {}, TraceCtx ctx = {}) {
    events_.push_back(Event{std::string(track), std::string(name),
                            std::string(args), at, at, ctx.trace_id, 0,
                            ctx.parent, true, false});
  }

  /// Opens a span whose end is not yet known (it outlives the current
  /// scheduling quantum). The returned id MUST be closed with span_end on
  /// every path — herd_lint's span-pairing rule enforces this for
  /// src/herd, and an unpaired begin exports as a "B" phase the schema
  /// checker rejects.
  SpanId span_begin(std::string_view track, std::string_view name,
                    sim::Tick start, std::string_view args = {},
                    TraceCtx ctx = {}) {
    SpanId id = ++next_span_;
    events_.push_back(Event{std::string(track), std::string(name),
                            std::string(args), start, start, ctx.trace_id,
                            id, ctx.parent, false, true});
    open_.push_back({id, events_.size() - 1});
    return id;
  }

  /// Closes a span opened by span_begin. Unknown/already-closed ids are
  /// ignored (the begin may predate a clear()).
  void span_end(SpanId id, sim::Tick end, std::string_view args = {}) {
    for (std::size_t i = open_.size(); i-- > 0;) {
      if (open_[i].id != id) continue;
      Event& e = events_[open_[i].index];
      e.end = end >= e.start ? end : e.start;
      if (!args.empty()) e.args = std::string(args);
      e.open = false;
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }

  /// Count of span_begin calls not yet span_end'ed (should be 0 at export).
  std::size_t open_spans() const { return open_.size(); }

  // -------------------------------------------------------- request hops
  //
  // Each call feeds two sinks under independent conditions: the event is
  // recorded while a sampling window is open (any request's window, so an
  // unsampled request's hop inside it records with trace id 0), and the
  // tail stage is charged whenever ctx.trace_id is nonzero (a hop of a
  // request the profiler is not tracking — a late duplicate of a retired
  // one — charges nothing). Callers that want an event only for sampled
  // requests test ctx.sampled() first.

  /// Offers a new request to the sampler. On a hit, opens a sampling
  /// window, the root span "request" at `start`, and the tail sample for
  /// `trace_id`, and returns {trace_id, root span}; every later hop of the
  /// request nests under it. On a miss returns an unsampled context.
  /// request_end() closes all three.
  template <typename Args>
  TraceCtx request_begin(std::string_view track, sim::Tick start,
                         std::uint64_t trace_id, Args&& args) {
    if (!sample()) return {};
    tail_.begin(trace_id, start);
    return TraceCtx{trace_id, span_begin(track, "request", start, args(),
                                         TraceCtx{trace_id, 0})};
  }

  /// Retires the sampled request `ctx` (from request_begin) at `at`:
  /// records the terminal instant `event` ("" = none), closes the root
  /// span (replacing its detail when `args` gives one), finishes the tail
  /// sample under `outcome` with the residue since the last hop charged to
  /// `residual_stage`, and releases the request's window. No-op when ctx
  /// is unsampled.
  template <typename Args = NoArgs>
  void request_end(std::string_view track, std::string_view event,
                   sim::Tick at, TraceCtx ctx, std::string_view outcome,
                   std::string_view residual_stage, Args&& args = {}) {
    if (!ctx.sampled()) return;
    if (active()) {
      if (!event.empty()) instant(track, event, at, {}, ctx);
      span_end(ctx.parent, at, args());
    }
    tail_.finish(ctx.trace_id, outcome, at, residual_stage);
    release();
  }

  /// A hop marked by an instant: records `event` at `at` and charges
  /// [mark, at) to `stage`.
  template <typename Args = NoArgs>
  void hop(std::string_view track, std::string_view event, sim::Tick at,
           TraceCtx ctx, std::string_view stage, Args&& args = {}) {
    if (ctx.sampled()) tail_.stage(ctx.trace_id, stage, at);
    if (active()) instant(track, event, at, args(), ctx);
  }

  /// A hop that took time: records the span [from, at) — unless it is
  /// empty: a wait that did not happen is no event — and charges
  /// [mark, at) to `stage`.
  template <typename Args = NoArgs>
  void hop_span(std::string_view track, std::string_view event,
                sim::Tick from, sim::Tick at, TraceCtx ctx,
                std::string_view stage, Args&& args = {}) {
    if (ctx.sampled()) tail_.stage(ctx.trace_id, stage, at);
    if (active() && at > from) span(track, event, from, at, args(), ctx);
  }

  /// A hop with no event of its own: charges [mark, at) to stage `name`.
  void stage(std::uint64_t trace_id, std::string_view name, sim::Tick at) {
    if (trace_id != 0) tail_.stage(trace_id, name, at);
  }

  /// Bills `amount` ticks to `stage` (TailProfiler::charge: an amortized
  /// share, such as one response's part of a chain's doorbell).
  void charge(std::uint64_t trace_id, std::string_view stage,
              sim::Tick amount) {
    if (trace_id != 0) tail_.charge(trace_id, stage, amount);
  }

  /// The per-request tail profiler the hop calls feed. clear() leaves it
  /// alone; readers clear it themselves.
  TailProfiler& tail() { return tail_; }
  const TailProfiler& tail() const { return tail_; }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() {
    events_.clear();
    open_.clear();
    seen_ = 0;
    next_span_ = 0;
    active_windows_ = 0;
  }

  /// Chrome trace_event JSON, schema "herd-trace/2": complete ("X") events
  /// with ts/dur in microseconds of simulated time, one metadata-named
  /// thread per track, and per-event args carrying trace/span/parent ids.
  /// Spans left open export as "B" phase events, except the root spans of
  /// requests still in flight at `now`, named by `in_flight` (each request's
  /// {trace id, root span}): those export as complete spans cut at `now`
  /// and marked `"in_flight":true`. The tracer itself is not changed, so a
  /// run can continue after an export. Deterministic: timestamps are
  /// formatted from integer ticks, span ids follow emission order, and tids
  /// follow first-appearance order.
  std::string chrome_json(std::span<const TraceCtx> in_flight = {},
                          sim::Tick now = 0) const;

 private:
  struct OpenSpan {
    SpanId id;
    std::size_t index;
  };

  std::uint64_t sample_every_ = 0;
  std::uint64_t seen_ = 0;
  std::uint32_t active_windows_ = 0;
  std::uint32_t next_span_ = 0;
  std::vector<Event> events_;
  std::vector<OpenSpan> open_;
  TailProfiler tail_;
};

/// The producer-side gate: record only when a tracer is attached and a
/// sampling window is open.
inline bool tracing(const Tracer* t) { return t != nullptr && t->active(); }

}  // namespace herd::obs
