// pmbench — the repository's performance benchmark (see ../README.md).
//
//   pmbench --workload <probe_path|loop_full|serve_rw|live_probe>
//           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints human-readable lines, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. Exit code 0 only when
// every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "pmbench: %s\nusage: pmbench --workload <probe_path|loop_full|serve_rw|"
               "live_probe> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pmbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--smoke") opt.smoke = true;
    else return usage(("unknown argument " + a).c_str());
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  using Runner = void (*)(const Options&, Report&, Values&);
  Runner run = nullptr;
  if (opt.workload == "probe_path") run = run_probe_path;
  else if (opt.workload == "loop_full") run = run_loop_full;
  else if (opt.workload == "serve_rw") run = run_serve_rw;
  else if (opt.workload == "live_probe") run = run_live_probe;
  else return usage("unknown workload");

  std::printf("pmbench workload=%s seed=%llu seconds=%g trace=%d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.smoke ? " smoke" : "");
  Report report;
  Values values;
  try {
    run(opt, report, values);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmbench: workload failed: %s\n", e.what());
    return 1;
  }
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) report.metric(m.name, values[m.name], m.unit);
  } else {
    for (const MetricDef& m : kEndToEnd) report.metric(m.name, values[m.name], m.unit);
  }
  return report.finish();
}
