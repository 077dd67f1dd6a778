// Page-load measurement results.
//
// PLT is the time to the onload event; Above-the-Fold Time (AFT) is when the
// last above-fold element reaches its final rendered state; Speed Index is
// the visual-weight-averaged render time (equivalently, the integral of
// visual incompleteness over time, in milliseconds, as produced by the
// visualmetrics tool the paper uses).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace vroom::browser {

struct ResourceTiming {
  std::string url;
  std::optional<std::uint32_t> template_id;  // nullopt for ghost fetches
  bool referenced = false;   // actually needed by this load
  bool processable = false;  // HTML/CSS/JS
  bool in_iframe = false;
  bool hinted = false;
  bool pushed = false;
  bool from_cache = false;
  std::int64_t bytes = 0;
  sim::Time discovered = sim::kNever;  // client learned the URL
  sim::Time requested = sim::kNever;
  sim::Time complete = sim::kNever;    // body fully received
  sim::Time processed = sim::kNever;   // parsed/executed/decoded
};

struct LoadResult {
  bool finished = false;
  sim::Time plt = sim::kNever;
  sim::Time aft = sim::kNever;
  double speed_index_ms = 0;

  // Milestones: first byte of the root HTML, first paint (first above-fold
  // render event), and the root document's parse completion
  // (DOMContentLoaded, approximately).
  sim::Time ttfb = sim::kNever;
  sim::Time first_paint = sim::kNever;
  sim::Time dom_content_loaded = sim::kNever;

  // Resource-discovery metrics over *referenced* resources (Figure 16).
  sim::Time all_discovered = sim::kNever;
  sim::Time all_fetched = sim::kNever;
  sim::Time high_prio_discovered = sim::kNever;
  sim::Time high_prio_fetched = sim::kNever;

  // Critical-path proxy (Figure 4): virtual time during which the CPU sat
  // idle while at least one fetch was outstanding, before onload.
  sim::Time net_wait = 0;
  sim::Time cpu_busy = 0;

  std::int64_t bytes_fetched = 0;
  std::int64_t wasted_bytes = 0;  // ghost fetches from inaccurate hints
  int requests = 0;
  int cache_hits = 0;
  // Heap events the simulation loop executed for this load. Pure
  // observability (throughput benchmarks report simulated events/sec from
  // it); never feeds back into simulated numbers. It fell about 2.6x when
  // TCP stopped scheduling per-segment events (DESIGN.md §10), with every
  // other field unchanged.
  std::int64_t sim_events = 0;

  std::vector<ResourceTiming> timings;

  // Snapshot of trace::Counters for this load, sorted by name; empty when
  // tracing was disabled (the usual case).
  std::vector<std::pair<std::string, std::int64_t>> trace_counters;

  double net_wait_fraction() const {
    return plt > 0 && plt != sim::kNever
               ? static_cast<double>(net_wait) / static_cast<double>(plt)
               : 0.0;
  }
};

// Speed Index from (render time, visual weight) samples; t=0 completeness is
// zero and each sample contributes weight/total at its render time.
double speed_index_ms(const std::vector<std::pair<sim::Time, double>>& paints);

// Stable binary (de)serialization of a LoadResult — every field including
// per-resource timings and trace_counters — for the on-disk result cache.
// Fixed-width little-endian integers, doubles as IEEE-754 bit patterns,
// length-prefixed strings; a leading format version guards evolution.
// deserialize_load_result returns false (leaving *out unspecified) on any
// truncation, trailing bytes, or version mismatch.
std::string serialize_load_result(const LoadResult& r);
bool deserialize_load_result(std::string_view bytes, LoadResult* out);

}  // namespace vroom::browser
