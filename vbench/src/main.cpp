// vbench: the repository's benchmark program. Usually started through
// vbench/run.py, which builds it first:
//
//   vbench --workload <headline_lte|lossy_3g|deploy_day> --seed <n>
//          --seconds <s> --trace <0|1> [--commit <sha>]
//          [--inject-digest-mismatch]
//
// Prints the host/build fingerprint, one line per metric and per failed
// check, and as its last line one JSON object with every end-to-end and
// per-layer metric it measured. Exits 0 when every output check passed,
// 1 when one failed (the result is still printed), and 2 without a result
// on bad arguments or a build that may not record.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "fingerprint.h"
#include "harness/env.h"
#include "vbench.h"

extern char** environ;

namespace vroom::vbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vbench: %s\nusage: vbench --workload "
               "<headline_lte|lossy_3g|deploy_day> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <sha>] [--inject-digest-mismatch]\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage(std::string(flag) + ": not a whole number: '" + std::string(text) +
          "'");
  }
  return value;
}

struct Parsed {
  Args args;
  std::string commit;
};

Parsed parse_args(int argc, char** argv) {
  Parsed p;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--inject-digest-mismatch") {
      p.args.inject_digest_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      p.args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      p.args.seed = parse_number<std::uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      p.args.seconds = parse_number<int>(flag, value);
      if (p.args.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      const int trace = parse_number<int>(flag, value);
      if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
      p.args.trace = trace == 1;
    } else if (flag == "--commit") {
      p.commit = value;
    } else {
      usage("unknown argument '" + std::string(flag) + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return p;
}

// Every VROOM_* knob goes: the numbers must measure simulation, not a
// result cache, shard files, trace or metrics export, or a capped corpus.
// Checked afterwards through the same parser the library uses.
void scrub_environment(Checks& checks) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry = *e;
    if (entry.rfind("VROOM_", 0) == 0) {
      names.emplace_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  const harness::Env env = harness::Env::from_environment();
  checks.expect(env.result_cache_dir.empty() && !env.shard.has_value() &&
                    env.shard_dir.empty() && !env.trace_enabled() &&
                    !env.metrics_enabled() && env.bench_pages == 0 &&
                    env.deploy_arrivals == 0 && env.deploy_window_hours == 0,
                "VROOM_* environment cleared before the run");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (out.size() > 1) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" +
           m.unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-6s %-34s %14.6g %-9s%s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.exercised ? "" : "  (layer not run)");
  }
}

}  // namespace
}  // namespace vroom::vbench

int main(int argc, char** argv) {
  using namespace vroom::vbench;
  const Parsed parsed = parse_args(argc, argv);
  const Args& args = parsed.args;

  const Fingerprint fp = host_fingerprint(parsed.commit);
  const std::string refused = refuse_reason(fp);
  if (!refused.empty()) {
    std::fprintf(stderr, "vbench: refusing to record: %s\n", refused.c_str());
    return 2;
  }

  void (*workload)(const Args&, Run&) = nullptr;
  if (args.workload == "headline_lte") workload = run_headline_lte;
  if (args.workload == "lossy_3g") workload = run_lossy_3g;
  if (args.workload == "deploy_day") workload = run_deploy_day;
  if (workload == nullptr) usage("unknown workload '" + args.workload + "'");

  std::printf("fingerprint %s\n", to_json(fp).c_str());
  std::printf("run workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Run run;
  scrub_environment(run.checks);
  workload(args, run);

  run.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  const std::int64_t failed = run.checks.failed();
  run.e2e("completed_frac",
          run.attempted > 0
              ? 1.0 - static_cast<double>(run.timeouts + failed) /
                          static_cast<double>(run.attempted)
              : 0.0,
          "ratio");

  print_metrics("e2e", run.end_to_end);
  print_metrics("layer", run.per_layer);
  for (const std::string& f : run.checks.failures()) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  std::printf("checks %s (%lld failed)\n", run.checks.ok() ? "ok" : "FAILED",
              static_cast<long long>(failed));
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
      "\"end_to_end\":%s,\"per_layer\":%s}\n",
      run.checks.ok() ? "true" : "false",
      static_cast<long long>(run.attempted), static_cast<long long>(failed),
      json_metrics(run.end_to_end).c_str(),
      json_metrics(run.per_layer).c_str());
  return run.checks.ok() ? 0 : 1;
}
