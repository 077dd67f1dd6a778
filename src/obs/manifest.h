// Run manifest (DESIGN.md §12): the machine-readable provenance record of a
// run — which knobs, strategies, and code version produced a number.
//
// A Manifest is an *ordered* flat map of string keys to string values
// ("env.jobs" -> "4", "cell.0.fingerprint" -> "...", "digest.metrics_prom"
// -> hex). Flat and ordered on purpose: serialization is a one-screen JSON
// object whose byte layout is a pure function of the entries, and the
// round-trip (write -> read) is exact, so a manifest can be diffed against
// a later reproduction attempt key by key.
//
// The fleet writes `manifest.json` and the deployment scenario
// `deploy_manifest.json` into the VROOM_METRICS directory; the entries
// include every active harness::Env knob, per-cell strategy fingerprints
// and FNV digests of the exported metric snapshots — enough to reconstruct
// (or refuse to trust) any committed figure. Assembly happens at those call
// sites: this library is plain data and stays free of harness dependencies.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vroom::obs {

class Manifest {
 public:
  // Appends (or overwrites, preserving position) `key` with `value`.
  void set(const std::string& key, std::string value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, std::uint64_t value);

  // First value stored under `key`, or nullptr.
  const std::string* find(const std::string& key) const;

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  // One flat JSON object, entries in insertion order, fully escaped.
  std::string to_json() const;
  // Parses to_json() output (a flat string->string object). Returns
  // nullopt on malformed input, on a repeated key, and on anything but
  // whitespace after the closing brace. Exact round-trip:
  // from_json(to_json()) reproduces the entries byte for byte.
  static std::optional<Manifest> from_json(const std::string& json);

  // Writes to_json() to `path` (parent directories created as needed);
  // warns on stderr and returns false on I/O failure.
  bool write(const std::string& path) const;
  static std::optional<Manifest> read(const std::string& path);

  bool operator==(const Manifest& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace vroom::obs
