// Shared Vroom front-end: one hint server for an entire user population.
//
// The paper evaluates Vroom one load at a time, with the origin resolving
// dependencies against its freshest crawls. At deployment scale the hint
// path is a shared service with real capacity limits, and three effects
// appear that per-load evaluation cannot show:
//
//   * a size-capped hint cache — hot pages hit, the long tail misses;
//   * finite hint-generation throughput — misses queue behind a small
//     worker pool, and when the queue exceeds the serve deadline the
//     front-end ships the page with NO hints rather than stall it;
//   * a crawl/recrawl scheduler with finite crawl throughput — hints are
//     generated from the latest crawl *snapshot*, so every served hint set
//     is somewhat stale, and cache hits can be staler still.
//
// FrontEnd models all three deterministically. The hints it serves are the
// real advice for the crawl-time instance (core::advise_document, the same
// path core::VroomProvider takes), not a constant. A generation's outcome
// is a pure function of (page, snapshot), so one SnapshotHints table
// resolves every snapshot of the traffic window once, and any number of
// front-ends read it; the model still performs, counts and charges every
// generation, per (page, device rendering class) cache entry. The
// deployment scenario prices the resulting staleness through the hint_age
// micro benchmarks (see scenario.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/vroom_provider.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "web/corpus.h"
#include "web/device.h"

namespace vroom::deploy {

struct FrontEndConfig {
  // Hint cache entries, keyed by (page, device rendering class). Small by
  // design: the interesting regime is the tail missing.
  int hint_cache_entries = 64;
  // Hint-generation worker pool and per-request cost model.
  int gen_workers = 2;
  sim::Time gen_base_cost = sim::ms(40);
  sim::Time gen_per_hint_cost = sim::ms(2);
  // Budget the front-end will spend (queueing + generation) before giving
  // up and serving the page without hints.
  sim::Time serve_deadline = sim::ms(250);
  // Crawler: target refresh period and per-page crawl cost. The effective
  // period is max(recrawl_period, pages * crawl_cost) — a slow crawler
  // stretches the cycle, and hint staleness grows accordingly.
  sim::Time recrawl_period = sim::hours(1);
  sim::Time crawl_cost = sim::minutes(10);
  // Wall-clock origin of the traffic window (page rotations are computed
  // against day0 + virtual time, matching the harness convention).
  sim::Time day0 = sim::days(45);
  // How the front-end resolves dependencies from its crawls. OfflineOnly
  // with hint_age 0 is forced when the snapshot table is built: a
  // front-end has no online path (it is not the origin rendering the
  // page), and staleness is modelled by snapshot time.
  core::VroomProviderConfig provider;
};

// Effective crawl refresh period for a corpus of `pages`:
// max(recrawl_period, pages * crawl_cost), >= recrawl_period when the
// crawler is throughput-bound.
sim::Time effective_recrawl_period(std::size_t pages,
                                   const FrontEndConfig& config);

// The hint count of every crawl snapshot a front-end can serve in a
// traffic window: for each page and each snapshot time
// last_crawl(0, page) + k * period below `window`, the size of the advice
// core::advise_document resolves from that snapshot's crawl instance. Each
// page's row is resolved with one core::OfflineResolver shared by all of
// its snapshots.
//
// The count does not depend on the device class: a device changes only
// the variant bits of a slot's realized version, never whether the crawls
// agree on it, and scope, stable-set membership and the push choice are
// device-free. So every snapshot is crawled once, as device class 0
// (DESIGN.md §11); the device classes stay in the table only to key the
// front-end's hint cache by rendering class.
//
// Rows are independent: build_row(p) writes row p only, so distinct rows
// may be built concurrently. Once every row is built the table is
// read-only and any number of threads may look up in it.
class SnapshotHints {
 public:
  // An empty table. `corpus` must outlive it; `seed` feeds the crawl
  // nonces only; device class i is `devices[i]`, and there is at least
  // one.
  SnapshotHints(const web::Corpus& corpus, FrontEndConfig config,
                std::uint64_t seed, std::vector<web::DeviceProfile> devices,
                sim::Time window);

  // Resolves every snapshot of page `page_index`.
  void build_row(int page_index);

  // Hint count of the snapshot at crawl time `crawl_t`, for any device
  // class. Aborts, naming the page and crawl time, when the row is unbuilt
  // or `crawl_t` is not one of the window's snapshots: there is no
  // on-demand fallback.
  int hints(int page_index, sim::Time crawl_t) const;

  // Virtual time of the latest completed crawl of `page_index` at `now`.
  // May be negative: the crawler has been cycling since before the window.
  sim::Time last_crawl(sim::Time now, int page_index) const;

  // Effective crawl refresh period of the table's corpus.
  sim::Time period() const { return period_; }
  const web::Corpus& corpus() const { return corpus_; }
  const FrontEndConfig& config() const { return config_; }
  const web::DeviceProfile& device(std::size_t device_class) const {
    return devices_[device_class];
  }

 private:
  // Snapshots of `page_index` inside the window.
  std::size_t snapshot_count(int page_index) const;

  const web::Corpus& corpus_;
  FrontEndConfig config_;
  std::uint64_t seed_;
  std::vector<web::DeviceProfile> devices_;
  sim::Time window_;
  sim::Time period_;
  // rows_[page][snapshot]; empty = unbuilt.
  std::vector<std::vector<int>> rows_;
};

// What kind of hint set a serve produced.
enum class HintSource : std::uint8_t {
  Fresh,   // generated on this request from the latest crawl snapshot
  Cached,  // cache hit, entry still matches the latest snapshot
  Stale,   // cache hit, but a newer crawl exists (stale-while-revalidate)
  None,    // generation would blow the serve deadline; shipped hintless
};

const char* hint_source_name(HintSource s);

// The front-end's answer for one page view.
struct ServeDecision {
  HintSource source = HintSource::None;
  bool cache_hit = false;
  // Extra latency the hint path added to this page view (queueing plus
  // generation when generated synchronously; 0 for cache hits and for
  // deadline-exceeded hintless serves).
  sim::Time queue_wait = 0;
  // Age of the crawl snapshot behind the served hints (serve time minus
  // snapshot time). Meaningless when source == None.
  sim::Time staleness = 0;
  int hints = 0;
};

struct FrontEndStats {
  std::int64_t serves = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t stale_serves = 0;   // subset of cache_hits
  std::int64_t hintless_serves = 0;
  std::int64_t generations = 0;    // synchronous + background revalidations
  sim::Time total_queue_wait = 0;  // summed over serves
  sim::Time total_staleness = 0;   // summed over hint-carrying serves

  double hit_ratio() const {
    const std::int64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

class FrontEnd {
 public:
  // `hints` must be fully built and outlive the front-end; it supplies the
  // corpus, the configuration and the device classes. All scheduling is
  // deterministic arithmetic.
  explicit FrontEnd(const SnapshotHints& hints);

  // Serves one page view arriving at virtual time `now` from device class
  // `device_class` (an index into the table's devices). `recorder` may be
  // nullptr; with one attached, fe.cache_hit / fe.cache_miss /
  // fe.stale_serve / fe.recrawl events are emitted on the Deploy layer.
  ServeDecision serve(sim::Time now, int page_index, std::size_t device_class,
                      trace::Recorder* recorder = nullptr);

  const FrontEndStats& stats() const { return stats_; }

 private:
  struct CacheEntry {
    std::uint64_t key = 0;
    sim::Time snapshot = 0;  // crawl virtual time the hints derive from
    int hints = 0;
  };

  // One hint generation for a (page, device class) cache entry from the
  // snapshot at `crawl_t`: the expensive step the cache and the worker pool
  // exist to amortize. The model performs and counts every one (callers
  // charge the worker pool per call); the simulator reads the resolved
  // count from the shared table.
  int generate(int page_index, sim::Time crawl_t);

  // Charges one generation to the least-busy worker; returns the queueing
  // delay before it could start.
  sim::Time charge_worker(sim::Time now, sim::Time cost);

  CacheEntry* cache_find(std::uint64_t key);
  void cache_insert(CacheEntry entry);

  const SnapshotHints& hints_;
  const FrontEndConfig& config_;
  FrontEndStats stats_;

  std::vector<sim::Time> worker_busy_until_;
  // LRU: most-recent at front; map points into the list.
  std::list<CacheEntry> lru_;
  std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> index_;
};

}  // namespace vroom::deploy
