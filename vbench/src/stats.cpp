#include "stats.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "harness/stats.h"

namespace vroom::vbench {

std::int64_t samples_beyond(std::size_t n, double p) {
  const auto at = static_cast<std::int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return static_cast<std::int64_t>(n) - at;
}

std::optional<double> tail_percentile(std::vector<double> values, double p) {
  if (samples_beyond(values.size(), p) < kMinTailSamples) return std::nullopt;
  return harness::percentile(std::move(values), p);
}

double median(std::vector<double> values) {
  return harness::median(std::move(values));
}

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double speedup_p50(const std::vector<double>& http2_plt,
                   const std::vector<double>& vroom_plt) {
  if (http2_plt.empty() || vroom_plt.empty()) return 0.0;
  const double vroom = median(vroom_plt);
  return vroom > 0 ? median(http2_plt) / vroom : 0.0;
}

double useful_frac(std::int64_t useful, std::int64_t attempts) {
  return attempts > 0
             ? static_cast<double>(useful) / static_cast<double>(attempts)
             : 0.0;
}

void CounterTally::add(const trace::Recorder& recorder) {
  ++loads_;
  for (const auto& [name, value] : recorder.counters().values()) {
    totals_[name] += value;
    std::int64_t& m = maxima_[name];
    m = std::max(m, value);
  }
  for (const trace::Recorder::Event& e : recorder.events()) {
    ++events_[static_cast<int>(e.layer)];
  }
}

std::int64_t CounterTally::total(const std::string& counter) const {
  const auto it = totals_.find(counter);
  return it == totals_.end() ? 0 : it->second;
}

std::int64_t CounterTally::max(const std::string& counter) const {
  const auto it = maxima_.find(counter);
  return it == maxima_.end() ? 0 : it->second;
}

double CounterTally::per_load(const std::string& counter) const {
  return loads_ > 0 ? static_cast<double>(total(counter)) /
                          static_cast<double>(loads_)
                    : 0.0;
}

double CounterTally::events_per_load(trace::Layer layer) const {
  return loads_ > 0 ? static_cast<double>(events_[static_cast<int>(layer)]) /
                          static_cast<double>(loads_)
                    : 0.0;
}

void Digest::add(std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) {
  std::int64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const browser::LoadResult& load) {
  add(static_cast<std::int64_t>(load.finished));
  add(static_cast<std::int64_t>(load.plt));
  add(static_cast<std::int64_t>(load.aft));
  add(load.speed_index_ms);
  add(load.bytes_fetched);
}

bool load_accounted(const browser::LoadResult& load, sim::Time timeout) {
  return load.finished || load.plt == timeout;
}

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

bool Checks::expect_same_digest(const std::string& what,
                                std::uint64_t expected,
                                std::uint64_t actual) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ": digest %016" PRIx64 " != %016" PRIx64,
                expected, actual);
  return expect(expected == actual, what + buf);
}

}  // namespace vroom::vbench
