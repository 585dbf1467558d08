#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0;
  double resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void Report::add(std::string name, double value, std::string unit,
                 std::string base) {
  if (!std::isfinite(value)) {
    fail(name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(base)});
}

void Report::fail(std::string why) {
  if (std::find(failures_.begin(), failures_.end(), why) == failures_.end()) {
    failures_.push_back(std::move(why));
  }
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const std::string& f : failures_) {
    std::printf("  INCORRECT: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failures_.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + json_escape(m.name) + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Spans::Scope::Scope(Spans& s, std::string name) : spans_(&s), id_(-1) {
  if (!s.on_) return;
  int parent = s.open_.empty() ? -1 : s.open_.back();
  id_ = static_cast<int>(s.spans_.size());
  s.spans_.push_back({std::move(name), seconds_since(s.t0_), 0, parent});
  s.open_.push_back(id_);
}

Spans::Scope::~Scope() {
  if (id_ < 0) return;
  spans_->spans_[static_cast<std::size_t>(id_)].end_s =
      seconds_since(spans_->t0_);
  spans_->open_.pop_back();
}

void Spans::write(const std::string& path) const {
  if (!on_) return;
  std::ofstream out(path);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
        << json_escape(s.name) << "\", \"start_s\": " << number(s.start_s)
        << ", \"end_s\": " << number(s.end_s) << ", \"parent\": " << s.parent
        << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
