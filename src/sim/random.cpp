#include "sim/random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace vroom::sim {

std::uint64_t hash64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

// splitmix64 finalizer — a bijective mix that decorrelates nearby inputs.
std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t root, std::string_view purpose) {
  return splitmix64(root ^ hash64(purpose));
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t child) {
  // Finalize the root first so the fold with `child` is not a raw XOR of
  // caller-controlled values (those collide whenever root1^child1 ==
  // root2^child2).
  return splitmix64(splitmix64(root) ^ child);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform() < p;
}

double Rng::lognormal(double median, double sigma) {
  std::lognormal_distribution<double> d(std::log(median), sigma);
  return d(engine_);
}

double Rng::pareto(double scale, double shape, double cap) {
  const double u = uniform(0.0, 1.0);
  const double v = scale / std::pow(1.0 - u, 1.0 / shape);
  return std::min(v, cap);
}

double Rng::exponential(double mean) {
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

std::size_t Rng::weighted(const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0) throw std::invalid_argument("weighted: non-positive total");
  double x = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

}  // namespace vroom::sim
