// Host and build fingerprint stamped on every result, and the rule that
// refuses to record numbers from a build that is not optimized.
#pragma once

#include <string>

namespace vroom::vbench {

struct Fingerprint {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::string commit;  // git commit of the measured tree, or "unknown"
};

Fingerprint host_fingerprint(std::string commit);

// Why numbers from this build must not be recorded (a Debug build, a
// sanitizer build, assertions on), or empty when it may record.
std::string refuse_reason(const Fingerprint& f);

std::string to_json(const Fingerprint& f);

}  // namespace vroom::vbench
