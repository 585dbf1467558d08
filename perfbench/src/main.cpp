// perfbench: runs one named workload of the repo benchmark and prints its
// metrics, then one JSON line.
//
//   perfbench --workload kv_read --seed 7 --seconds 10 --trace 0 [--out DIR]
//
// --trace 0 measures end to end with tracing off; --trace 1 is the separate
// traced run that reports per-layer metrics and writes its host-time spans
// to DIR/spans_<workload>.json. README.md lists workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--out") {
      a->out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  perfbench::Workload w;
  if (args.workload == "verbs_inbound") {
    w = perfbench::verbs_inbound_workload(args.seed);
  } else if (!perfbench::find_kv_workload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  perfbench::Report report;
  perfbench::Spans spans(args.trace);
  std::printf("perfbench %s seed %llu, %s run\n", w.name,
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "end-to-end");
  try {
    if (args.trace) {
      perfbench::run_traced(w, args, report, spans);
    } else {
      perfbench::run_end_to_end(w, args, report);
    }
  } catch (const std::exception& e) {
    // A probe's wrong answer, or the program's own contract gate, lands
    // here: the run is incorrect, not a data point.
    report.fail(e.what());
  }
  std::uint64_t attempted = report.attempted();
  double failed_frac =
      attempted > 0 ? static_cast<double>(report.failed()) /
                          static_cast<double>(attempted)
                    : 0;
  report.add("failed_frac", failed_frac, "ratio",
             std::to_string(report.failed()) + " failed of " +
                 std::to_string(attempted) + " attempted");
  if (!args.out.empty()) {
    spans.write(args.out + "/spans_" + args.workload + ".json");
  }
  report.print();
  return 0;
}
