// The two measurement flows every workload shares: the end-to-end run,
// with tracing off, and the traced run that reports per-layer metrics.
#include "bench.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace perfbench {

namespace {

namespace obs = herd::obs;

constexpr int kMinSegments = 5;
// The traced build runs a fixed number of segments: tracer memory grows
// with the length of the run.
constexpr int kTracedSegments = 8;
// Share of --seconds a traced run spends timing its untraced builds.
constexpr double kPairedShare = 0.8;
// Builds whose HostMemory exceeds this are timed one after another instead
// of side by side.
constexpr double kSideBySideBytes = 1u << 30;

/// Runs `fn` in a forked child and returns its result. Every set-up is
/// timed in a child: a process that has freed one deployment builds the
/// next from recycled heap pages, far cheaper than a user's run, which
/// starts from a fresh process.
template <class T>
T in_child(const std::function<T()>& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      T out = fn();
      code = write(fds[1], &out, sizeof out) == sizeof out ? 0 : 1;
    } catch (...) {
    }
    _exit(code);  // skips tearing the deployment down
  }
  close(fds[1]);
  T out{};
  ssize_t n = read(fds[0], &out, sizeof out);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof out) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a set-up in a child process failed");
  }
  return out;
}

/// What a child reports back: its set-up time and, when asked, the
/// deterministic window it then ran.
struct ChildRun {
  double setup_s = 0;
  SimWindow win;
  bool correct = true;
};

ChildRun fresh_setup(const Workload& w, bool run_window) {
  return in_child<ChildRun>([&w, run_window] {
    Report report;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Deployment> d = w.make(Variant::kPlain, report);
    ChildRun out;
    out.setup_s = seconds_since(t0);
    if (run_window) {
      out.win = d->run(w.warmup, w.measure);
      d->add_latency(out.win);
    }
    out.correct = report.correct();
    return out;
  });
}

std::string us_label(sim::Tick t) {
  return std::to_string(static_cast<long long>(sim::to_us(t))) + " us";
}

std::string count_label(double n) {
  return std::to_string(static_cast<long long>(n));
}

/// Host time on a shared machine drifts by 15-25% over minutes with other
/// tenants' load. This gauge is a fixed event loop in the benchmark's own
/// code, shaped like the engine's (a 20 k-deep heap of std::function
/// events that allocate and touch a 16 MiB arena), run right after every
/// host-timed segment. The load slows it and the simulator alike: over
/// 100 s on a 4-vCPU VM, their per-segment times correlated at 0.98. Host
/// times are scaled to a reference host that runs the gauge at 1 us per
/// event, which cut the spread of kv_read's host rate from 0.14 to 0.02.
/// Program changes never touch the gauge.
class SpeedGauge {
 public:
  SpeedGauge() : arena_(kArenaWords) {
    for (std::uint64_t i = 0; i < kDepth; ++i) push(next() % kHorizon);
  }
  SpeedGauge(const SpeedGauge&) = delete;
  SpeedGauge& operator=(const SpeedGauge&) = delete;

  /// Runs the gauge and returns reference-host seconds per wall second.
  double speed() {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      Event e = queue_.top();
      queue_.pop();
      e.cb();
      push(e.t + next() % kHorizon);
    }
    return kReferenceNs / (seconds_since(t0) * 1e9 / kEvents);
  }

 private:
  struct Event {
    std::uint64_t t;
    std::uint64_t seq;
    std::function<void()> cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  void push(std::uint64_t t) {
    std::vector<std::uint64_t> payload(6, seq_);
    queue_.push({t, seq_++, [this, payload = std::move(payload)] {
                   arena_[next() % kArenaWords] += payload[0];
                 }});
  }
  std::uint64_t next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  static constexpr std::size_t kArenaWords = 2u << 20;
  static constexpr std::uint64_t kDepth = 20'000;
  static constexpr std::uint64_t kHorizon = 100'000;
  static constexpr int kEvents = 30'000;
  static constexpr double kReferenceNs = 1000;
  std::vector<std::uint64_t> arena_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::uint64_t seq_ = 0;
  std::uint64_t x_ = 88172645463325252ULL;
};

SpeedGauge& gauge() {
  static SpeedGauge g;
  return g;
}

/// One build of the workload whose host cost is timed segment by segment,
/// in reference-host time.
struct Lane {
  explicit Lane(Variant v, std::unique_ptr<Deployment> dep = nullptr)
      : variant(v), d(std::move(dep)) {}

  Variant variant;
  std::unique_ptr<Deployment> d;
  int segments = 0;  // timed since the deployment was built and warmed
  std::vector<double> ns_per_op;
  std::vector<double> events_per_s;
  std::vector<double> pending;  // engine queue depth after each segment

  /// Median host ns per op over the segments timed from `first` on.
  double ns(std::size_t first = 0) const {
    return median({ns_per_op.begin() + static_cast<long>(first),
                   ns_per_op.end()});
  }
};

/// (Re)builds a lane's deployment and runs the workload's warm-up.
void warm(const Workload& w, Lane& l, Report& report, Spans& spans) {
  l.d.reset();  // one build per lane alive at a time
  {
    Spans::Scope s(spans, "deployment.build");
    l.d = w.make(l.variant, report);
  }
  Spans::Scope s(spans, "run.warmup");
  l.d->run(w.warmup, 0);
  l.segments = 0;
}

/// Times segments of w.segment on each lane in turn until `seconds` have
/// passed and each lane has kMinSegments, or each has `max_segments`. Lanes
/// timed together share whatever load the rest of the machine puts on the
/// host, so ratios between them are paired. A workload whose backlog grows
/// rewarms a lane every round_segments segments.
void time_segments(const Workload& w, const std::vector<Lane*>& lanes,
                  double seconds, int max_segments, Report& report,
                  Spans& spans) {
  Clock::time_point start = Clock::now();
  for (int n = 0; n < max_segments &&
                  (n < kMinSegments || seconds_since(start) < seconds);
       ++n) {
    for (Lane* l : lanes) {
      if (w.round_segments > 0 && l->segments == w.round_segments) {
        warm(w, *l, report, spans);
      }
      Spans::Scope s(spans, "run.segment");
      sim::Engine& eng = l->d->cluster().engine();
      std::uint64_t e0 = eng.events_processed();
      Clock::time_point t0 = Clock::now();
      SimWindow r = l->d->run(0, w.segment);
      double host_s = seconds_since(t0) * gauge().speed();
      ++l->segments;
      l->ns_per_op.push_back(host_s * 1e9 / static_cast<double>(r.ops));
      l->events_per_s.push_back(
          static_cast<double>(eng.events_processed() - e0) / host_s);
      l->pending.push_back(static_cast<double>(eng.events_scheduled() -
                                               eng.events_processed()));
    }
  }
}

double counter_delta(const obs::Snapshot& a, const obs::Snapshot& b,
                     const std::string& name) {
  return static_cast<double>(b.value(name) - a.value(name));
}

/// Simulated per-layer counters of the server (host 0) over one measured
/// window, from the registry snapshots on either side of it.
void report_counters(Deployment& d, const obs::Snapshot& s0,
                     const obs::Snapshot& s1, const SimWindow& win,
                     sim::Tick measure, Report& report) {
  auto ops = static_cast<double>(win.ops);
  std::string per_op = "per op, of " + std::to_string(win.ops) +
                       " ops in " + us_label(measure) + " simulated";
  report.add("sim.events_per_op", static_cast<double>(win.events) / ops,
             "count", per_op);
  report.add("pcie.doorbells_per_op",
             counter_delta(s0, s1, "pcie.host0.doorbells") / ops, "count",
             "server doorbells " + per_op);
  report.add("pcie.wqe_fetches_per_op",
             counter_delta(s0, s1, "rnic.host0.wqe_fetches") / ops, "count",
             "server WQE fetches " + per_op);
  double hits = counter_delta(s0, s1, "rnic.host0.qp_cache_hits");
  double misses = counter_delta(s0, s1, "rnic.host0.qp_cache_misses");
  report.add("rnic.qp_cache_miss_rate",
             hits + misses > 0 ? misses / (hits + misses) : 0, "ratio",
             "server, of " + count_label(hits + misses) +
                 " QP-context lookups");
  std::string window = "server, over " + us_label(measure) + " simulated";
  report.add("pcie.pio_util", s1.gauge("pcie.host0.pio_utilization"),
             "ratio", window);
  report.add("rnic.rx_util", s1.gauge("rnic.host0.rx_utilization"), "ratio",
             window);
  report.add("rnic.tx_util", s1.gauge("rnic.host0.tx_utilization"), "ratio",
             window);
  report.add("rnic.dispatch_util",
             s1.gauge("rnic.host0.dispatch_utilization"), "ratio", window);
  report.add(
      "fabric.rx_util",
      d.cluster().resources().find("fabric.host0.rx")->utilization(),
      "ratio", window);
  // chain_len records each posted chain's WR count as ticks; the histogram
  // keeps its sum in ns.
  const obs::HistogramStats& h0 = s0.histograms().at("verbs.host0.chain_len");
  const obs::HistogramStats& h1 = s1.histograms().at("verbs.host0.chain_len");
  double chains = static_cast<double>(h1.count - h0.count);
  double wrs = (h1.mean_ns * static_cast<double>(h1.count) -
                h0.mean_ns * static_cast<double>(h0.count)) *
               static_cast<double>(sim::kTicksPerNs);
  report.add("verbs.chain_len_mean", chains > 0 ? wrs / chains : 0, "count",
             "server, of " + count_label(chains) + " posted chains");
}

}  // namespace

void Deployment::report_service(Report& report) {
  report.add("kv.hit_rate", 0, "ratio", "of 0 GETs: no HERD service");
  report.add("herd.proc_imbalance", 0, "ratio", "no HERD server procs");
}

void Deployment::report_tail(Report& report) {
  for (const char* stage : kTailStages) {
    report.add(std::string("herd.p99_share.") + stage, 0, "ratio",
               "no HERD requests");
  }
}

void run_end_to_end(const Workload& w, const Args& args, Report& report) {
  Spans off(false);
  // A fresh process runs the deterministic window first; this process must
  // then agree with it exactly. Both set-ups, and set-ups in further fresh
  // processes, are the set-up samples.
  ChildRun ref = fresh_setup(w, true);
  std::vector<double> setup = {ref.setup_s};
  for (int rep = 2; rep < w.setups; ++rep) {
    setup.push_back(fresh_setup(w, false).setup_s);
  }
  Clock::time_point t0 = Clock::now();
  Lane lane(Variant::kPlain, w.make(Variant::kPlain, report));
  setup.push_back(seconds_since(t0));
  SimWindow first = lane.d->run(w.warmup, w.measure);
  lane.d->add_latency(first);
  if (!ref.correct) report.fail("the run in a child process was incorrect");
  if (!(first == ref.win)) {
    report.fail("two runs at one seed gave different simulated results");
  }
  if (w.check) w.check(first, report);
  // Every round of a growing-backlog workload starts from the warm-up.
  if (w.round_segments > 0) warm(w, lane, report, off);
  time_segments(w, {&lane}, args.seconds, INT_MAX, report, off);

  report.add("setup_s", median(setup), "s",
             "median of " + std::to_string(w.setups) + " set-ups");
  report.add("host_ops_per_s", 1e9 / lane.ns(), "ops/s",
             "reference-host seconds; median of " +
                 std::to_string(lane.ns_per_op.size()) + " segments, each " +
                 us_label(w.segment) + " simulated");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", "process high-water mark");
  report.add("sim_mops", first.mops, "Mops",
             "of " + std::to_string(first.ops) + " ops in " +
                 us_label(w.measure) + " simulated");
  if (first.latency_samples > 0) {
    std::string n = "of " + std::to_string(first.latency_samples) +
                    " client latency samples";
    report.add("sim_p50_us", first.p50_us, "us", n);
    report.add("sim_p99_us", first.p99_us, "us", n);
  }
}

void run_traced(const Workload& w, const Args& args, Report& report,
                Spans& spans) {
  Spans::Scope root(spans, w.name);
  std::vector<double> builds;
  for (int rep = 0; rep < w.setups; ++rep) {
    Spans::Scope s(spans, "cluster.build");
    builds.push_back(in_child<double>([&w] {
      Clock::time_point t0 = Clock::now();
      std::unique_ptr<herd::cluster::Cluster> cl = w.build_cluster();
      return seconds_since(t0);
    }));
  }
  double build_s = median(builds);
  report.add("cluster.build_s", build_s, "s",
             "median of " + std::to_string(w.setups) + " cluster builds");

  std::vector<double> setups;
  for (int rep = 0; rep < w.setups; ++rep) {
    Spans::Scope s(spans, "deployment.build");
    setups.push_back(fresh_setup(w, false).setup_s);
  }
  double setup_s = median(setups);
  report.add("herd.setup_rest_s", setup_s - build_s, "s",
             "median set-up " + std::to_string(setup_s) +
                 " s minus cluster.build_s");

  Lane plain(Variant::kPlain);
  warm(w, plain, report, spans);
  double mem = 0;
  herd::cluster::Cluster& cl = plain.d->cluster();
  for (std::size_t i = 0; i < cl.size(); ++i) {
    mem += static_cast<double>(cl.host(i).memory().size());
  }
  report.add("verbs.host_mem_mb", mem / (1 << 20), "MB",
             "HostMemory over " + std::to_string(cl.size()) + " hosts");

  obs::Snapshot s0 = cl.snapshot();
  SimWindow win;
  {
    Spans::Scope s(spans, "run.counters");
    win = plain.d->run(0, w.measure);
  }
  obs::Snapshot s1 = cl.snapshot();
  report_counters(*plain.d, s0, s1, win, w.measure, report);
  plain.d->report_service(report);

  // Host cost of the paired builds: without the contract checker, and with
  // tracing. Each is timed side by side with the plain build where the
  // builds are small, else one after another, and then exposed to drift in
  // the machine's load between them.
  const bool side_by_side = mem < kSideBySideBytes;
  const std::string pairing = side_by_side ? "paired" : "unpaired";
  Lane unchecked(Variant::kUnchecked);
  Lane traced(Variant::kTraced);
  if (side_by_side) {
    warm(w, unchecked, report, spans);
    time_segments(w, {&plain, &unchecked}, args.seconds * kPairedShare,
                  INT_MAX, report, spans);
    unchecked.d.reset();
  } else {
    time_segments(w, {&plain}, args.seconds * kPairedShare / 2, INT_MAX,
                  report, spans);
    plain.d.reset();
    warm(w, unchecked, report, spans);
    time_segments(w, {&unchecked}, args.seconds * kPairedShare / 2,
                  INT_MAX, report, spans);
    unchecked.d.reset();
  }
  double plain_ns = plain.ns();
  report.add("sim.events_per_host_s", median(plain.events_per_s), "1/s",
             "median of " + std::to_string(plain.ns_per_op.size()) +
                 " segments");
  double depth = median(plain.pending);
  report.add("sim.pending_depth_p50", depth, "count",
             "events pending after each of " +
                 std::to_string(plain.pending.size()) + " segments");
  report.add("sim.pending_depth_max",
             *std::max_element(plain.pending.begin(), plain.pending.end()),
             "count", "same segments");
  report.add("verbs.contract_ns_per_op", plain_ns - unchecked.ns(), "ns",
             pairing + ": host ns/op " + std::to_string(plain_ns) +
                 " checked minus " + std::to_string(unchecked.ns()) +
                 " unchecked");

  warm(w, traced, report, spans);
  traced.d->clear_tail();
  std::size_t first = plain.ns_per_op.size();
  std::vector<Lane*> lanes = {&traced};
  if (side_by_side) lanes.push_back(&plain);
  double rss0 = current_rss_mb();
  time_segments(w, lanes, 0, kTracedSegments, report, spans);
  double rss_mb = current_rss_mb() - rss0;
  double untraced_ns = side_by_side ? plain.ns(first) : plain_ns;
  report.add("obs.trace_overhead", traced.ns() / untraced_ns, "ratio",
             pairing + ": host ns/op " + std::to_string(traced.ns()) +
                 " traced over " + std::to_string(untraced_ns) +
                 " untraced");
  report.add("obs.trace_rss_mb", rss_mb, "MB",
             "RSS growth over " + std::to_string(kTracedSegments) +
                 " traced segments");
  traced.d->report_tail(report);
  traced.d.reset();
  plain.d.reset();

  Spans::Scope s(spans, "probes");
  {
    Spans::Scope p(spans, "probe.sched_pop");
    report.add("sim.sched_pop_ns",
               probe::sched_pop_ns(static_cast<std::uint64_t>(depth),
                                   args.seed),
               "ns", "step + schedule_at at depth " + count_label(depth));
  }
  {
    Spans::Scope p(spans, "probe.admit");
    double gap_ns = 1e3 / win.mops;
    double util = s1.gauge("rnic.host0.rx_utilization");
    report.add("sim.admit_ns", probe::admit_ns(gap_ns, util, args.seed),
               "ns",
               "arrivals " + std::to_string(gap_ns) +
                   " ns apart at the server rx utilization");
  }
  {
    Spans::Scope p(spans, "probe.mica");
    probe::KvCost kv = probe::mica(w.probe_inputs);
    std::string part = "partition 0 of " +
                       std::to_string(w.probe_inputs.herd.n_server_procs);
    report.add("kv.get_ns", kv.get_ns, "ns", part);
    report.add("kv.put_ns", kv.put_ns, "ns", part);
  }
  {
    Spans::Scope p(spans, "probe.codec");
    report.add("herd.codec_ns", probe::codec_ns(w.probe_inputs), "ns",
               "request + response round trip");
  }
}

}  // namespace perfbench
