#include "deploy/front_end.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/arena.h"
#include "sim/random.h"
#include "web/page_instance.h"

namespace vroom::deploy {

const char* hint_source_name(HintSource s) {
  switch (s) {
    case HintSource::Fresh: return "fresh";
    case HintSource::Cached: return "cached";
    case HintSource::Stale: return "stale";
    case HintSource::None: return "none";
  }
  return "?";
}

sim::Time effective_recrawl_period(std::size_t pages,
                                   const FrontEndConfig& config) {
  return std::max(config.recrawl_period,
                  static_cast<sim::Time>(pages) * config.crawl_cost);
}

SnapshotHints::SnapshotHints(const web::Corpus& corpus, FrontEndConfig config,
                             std::uint64_t seed,
                             std::vector<web::DeviceProfile> devices,
                             sim::Time window)
    : corpus_(corpus),
      config_(std::move(config)),
      seed_(seed),
      devices_(std::move(devices)),
      window_(window),
      period_(effective_recrawl_period(corpus.size(), config_)),
      rows_(corpus.size()) {
  // A front-end resolves from its crawls only — it never renders the page
  // at serve time, so the online modes make no sense here.
  config_.provider.mode = core::ResolutionMode::OfflineOnly;
  config_.provider.hint_age = 0;  // staleness is modelled by snapshot time
}

sim::Time SnapshotHints::last_crawl(sim::Time now, int page_index) const {
  // One crawler cycles the corpus round-robin, spending crawl_cost per
  // page; it has been running since before the window, so every page has a
  // well-defined latest crawl (possibly at negative virtual time) and the
  // window starts with staleness already spread over [0, period).
  const sim::Time phase = static_cast<sim::Time>(page_index) *
                          config_.crawl_cost;
  // Largest phase + k*period <= now, for any integer k (floor division
  // that is correct for negative numerators too).
  sim::Time k = (now - phase) / period_;
  if ((now - phase) % period_ < 0) --k;
  return phase + k * period_;
}

std::size_t SnapshotHints::snapshot_count(int page_index) const {
  // Snapshots last_crawl(0, p) + k * period for k >= 0 while < window:
  // every serve at a time in [0, window) reads one of them.
  const sim::Time first = last_crawl(0, page_index);
  if (window_ <= first) return 0;
  return static_cast<std::size_t>((window_ - first + period_ - 1) / period_);
}

void SnapshotHints::build_row(int page_index) {
  const web::PageModel& model =
      corpus_.page(static_cast<std::size_t>(page_index));
  // One resolver for the whole row: its memo holds each snapshot's device
  // clustering and crawl intersections.
  const core::OfflineResolver offline(model, config_.provider.offline);
  const sim::Time first = last_crawl(0, page_index);
  const std::size_t snapshots = snapshot_count(page_index);
  std::vector<int> row(snapshots, 0);
  // A page whose root is not a document gets no advice: its row stays 0.
  const bool has_document =
      model.resource(0).type == web::ResourceType::Html;
  for (std::size_t k = 0; has_document && k < snapshots; ++k) {
    const sim::Time crawl_t = first + static_cast<sim::Time>(k) * period_;
    // The crawl's load identity: wall time of the snapshot, the first
    // device class (the count is the same for every class, see the class
    // comment), no cookie, and a nonce derived from (seed, page, snapshot).
    web::LoadIdentity id;
    id.wall_time = config_.day0 + crawl_t;
    id.device = devices_.front();
    id.user = 0;
    id.nonce = sim::derive_seed(
        sim::derive_seed(seed_, "deploy:crawl"),
        sim::derive_seed(static_cast<std::uint64_t>(model.page_id()),
                         static_cast<std::uint64_t>(crawl_t)));
    // Crawl world on the pooled per-thread arena: built, advised on, and
    // discarded — the same per-load lifetime as a live load's world.
    sim::PooledArena arena;
    const web::PageInstance crawl(model, id, arena.get());
    row[k] = static_cast<int>(
        core::advise_document(crawl, 0, model.first_party(), 0,
                              config_.provider, offline)
            .hints.hints.size());
  }
  rows_[static_cast<std::size_t>(page_index)] = std::move(row);
}

int SnapshotHints::hints(int page_index, sim::Time crawl_t) const {
  const bool page_known =
      page_index >= 0 && static_cast<std::size_t>(page_index) < rows_.size();
  if (page_known) {
    const std::vector<int>& row = rows_[static_cast<std::size_t>(page_index)];
    const sim::Time offset = crawl_t - last_crawl(0, page_index);
    if (offset >= 0 && offset % period_ == 0) {
      const auto slot = static_cast<std::size_t>(offset / period_);
      if (slot < row.size()) return row[slot];
    }
  }
  std::fprintf(stderr,
               "[deploy] fatal: SnapshotHints has no snapshot for page %d at "
               "crawl time %lld us (window %lld us, row %s)\n",
               page_index, static_cast<long long>(crawl_t),
               static_cast<long long>(window_),
               !page_known ? "out of range"
               : rows_[static_cast<std::size_t>(page_index)].empty()
                   ? "unbuilt"
                   : "built");
  std::abort();
}

FrontEnd::FrontEnd(const SnapshotHints& hints)
    : hints_(hints), config_(hints.config()) {
  worker_busy_until_.assign(
      static_cast<std::size_t>(std::max(1, config_.gen_workers)), 0);
}

int FrontEnd::generate(int page_index, sim::Time crawl_t) {
  ++stats_.generations;
  return hints_.hints(page_index, crawl_t);
}

sim::Time FrontEnd::charge_worker(sim::Time now, sim::Time cost) {
  auto it = std::min_element(worker_busy_until_.begin(),
                             worker_busy_until_.end());
  const sim::Time wait = std::max<sim::Time>(0, *it - now);
  *it = now + wait + cost;
  return wait;
}

FrontEnd::CacheEntry* FrontEnd::cache_find(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return &*it->second;
}

void FrontEnd::cache_insert(CacheEntry entry) {
  const auto it = index_.find(entry.key);
  if (it != index_.end()) {
    *it->second = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(entry);
  index_[entry.key] = lru_.begin();
  while (lru_.size() >
         static_cast<std::size_t>(std::max(1, config_.hint_cache_entries))) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

ServeDecision FrontEnd::serve(sim::Time now, int page_index,
                              std::size_t device_class,
                              trace::Recorder* recorder) {
  ++stats_.serves;
  const sim::Time snapshot = hints_.last_crawl(now, page_index);
  // Hints depend on the rendering class, so the cache is keyed by it too.
  const web::DeviceProfile& device = hints_.device(device_class);
  const std::uint64_t key = sim::derive_seed(
      static_cast<std::uint64_t>(page_index),
      static_cast<std::uint64_t>(device.screen * 9 + device.dpi * 3 +
                                 device.width));
  // A reference into the corpus: only the trace calls copy it, so an
  // untraced serve makes no per-view string.
  const std::string& page_label =
      hints_.corpus().page(static_cast<std::size_t>(page_index)).first_party();
  const auto trace_serve = [&](const char* name, const ServeDecision& d) {
    if (recorder == nullptr) return;
    recorder->instant(
        trace::Layer::Deploy, "frontend", "serve", name,
        {trace::arg("page", page_label),
         trace::arg("source", hint_source_name(d.source)),
         trace::arg("staleness_ms", sim::to_ms(d.staleness)),
         trace::arg("wait_ms", sim::to_ms(d.queue_wait))});
  };

  ServeDecision d;
  if (CacheEntry* entry = cache_find(key)) {
    ++stats_.cache_hits;
    d.cache_hit = true;
    d.hints = entry->hints;
    d.staleness = now - entry->snapshot;
    if (entry->snapshot >= snapshot) {
      d.source = HintSource::Cached;
      trace_serve("fe.cache_hit", d);
    } else {
      // Stale-while-revalidate: serve the old hints immediately and charge
      // a background regeneration so future serves catch up. Under load
      // the workers fall behind and stale serves dominate — the effect the
      // deployment report prices.
      d.source = HintSource::Stale;
      ++stats_.stale_serves;
      const int hints = generate(page_index, snapshot);
      charge_worker(now, config_.gen_base_cost +
                             static_cast<sim::Time>(hints) *
                                 config_.gen_per_hint_cost);
      entry->snapshot = snapshot;
      entry->hints = hints;
      trace_serve("fe.stale_serve", d);
      if (recorder != nullptr) {
        recorder->instant(trace::Layer::Deploy, "frontend", "crawler",
                          "fe.recrawl",
                          {trace::arg("page", page_label),
                           trace::arg("hints", hints)});
      }
    }
    stats_.total_staleness += d.staleness;
  } else {
    ++stats_.cache_misses;
    // Synchronous generation: the page view blocks on the hint path. If
    // the worker queue alone already blows the deadline, ship hintless —
    // a front-end must degrade to "no Vroom", never to "slower page".
    const sim::Time queue =
        std::max<sim::Time>(0, *std::min_element(worker_busy_until_.begin(),
                                                 worker_busy_until_.end()) -
                                   now);
    if (queue > config_.serve_deadline) {
      d.source = HintSource::None;
      ++stats_.hintless_serves;
      trace_serve("fe.cache_miss", d);
    } else {
      const int hints = generate(page_index, snapshot);
      const sim::Time cost = config_.gen_base_cost +
                             static_cast<sim::Time>(hints) *
                                 config_.gen_per_hint_cost;
      const sim::Time wait = charge_worker(now, cost) + cost;
      if (wait > config_.serve_deadline) {
        // Generation ran (the entry is still cached for later arrivals)
        // but this page view could not wait for it.
        d.source = HintSource::None;
        ++stats_.hintless_serves;
      } else {
        d.source = HintSource::Fresh;
        d.queue_wait = wait;
        d.hints = hints;
        d.staleness = now - snapshot;
        stats_.total_staleness += d.staleness;
      }
      cache_insert(CacheEntry{key, snapshot, hints});
      trace_serve("fe.cache_miss", d);
      if (recorder != nullptr) {
        recorder->instant(trace::Layer::Deploy, "frontend", "crawler",
                          "fe.recrawl",
                          {trace::arg("page", page_label),
                           trace::arg("hints", hints)});
      }
    }
  }
  stats_.total_queue_wait += d.queue_wait;
  return d;
}

}  // namespace vroom::deploy
