// Shared plumbing of the repo benchmark: arguments, host clocks and memory,
// the metric report (printed as a table, then one JSON line), and the spans
// the traced run records around its own calls into each layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // host time one run measures
  bool trace = false;   // per-layer (traced) run instead of end-to-end
  std::string out;      // directory for the span dump of a traced run
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();
/// Current resident set of this process, in MiB.
double current_rss_mb();

/// Every metric a run produced, each with the base it was computed over
/// ("median of 9 set-ups", "of 31250 ops"), plus the run's correctness
/// verdict and its attempted/failed operation counts.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string base);
  /// Marks the run incorrect; `why` is printed with the report.
  void fail(std::string why);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Human-readable table, then the JSON object as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string base;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host-time spans (name, start, end, parent) recorded in memory around
/// the benchmark's calls into the program, written out when the run ends.
/// Disabled spans cost one branch.
class Spans {
 public:
  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

  /// Opens a span whose parent is the innermost span still open.
  class Scope {
   public:
    Scope(Spans& s, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_;
  };

  /// Writes {"spans": [...]} to `path`; a no-op when disabled.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
