#include "fingerprint.h"

#include <fstream>
#include <thread>

#include "trace/trace.h"

namespace vroom::vbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace

Fingerprint host_fingerprint(std::string commit) {
  Fingerprint f;
  f.nproc = static_cast<int>(std::thread::hardware_concurrency());
  f.cpu_model = cpu_model();
  f.compiler = "g++ " __VERSION__;
#ifdef __clang__
  f.compiler = "clang " __clang_version__;
#endif
  f.build_type = VBENCH_BUILD_TYPE;
  f.cxx_flags = VBENCH_CXX_FLAGS;
  f.commit = commit.empty() ? "unknown" : std::move(commit);
  return f;
}

std::string refuse_reason(const Fingerprint& f) {
  const std::string type = lower(f.build_type);
  if (type.empty() || type == "debug") {
    return "build type '" + f.build_type + "' is not an optimized build";
  }
  if (f.cxx_flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer flags in '" + f.cxx_flags + "'";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
  return "";
}

std::string to_json(const Fingerprint& f) {
  using trace::Recorder;
  return "{\"nproc\":" + std::to_string(f.nproc) + ",\"cpu\":\"" +
         Recorder::json_escape(f.cpu_model) + "\",\"compiler\":\"" +
         Recorder::json_escape(f.compiler) + "\",\"build_type\":\"" +
         Recorder::json_escape(f.build_type) + "\",\"cxx_flags\":\"" +
         Recorder::json_escape(f.cxx_flags) + "\",\"commit\":\"" +
         Recorder::json_escape(f.commit) + "\"}";
}

}  // namespace vroom::vbench
