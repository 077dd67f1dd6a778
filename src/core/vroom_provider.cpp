#include "core/vroom_provider.h"

#include "sim/random.h"
#include "web/url.h"

namespace vroom::core {

const char* resolution_mode_name(ResolutionMode m) {
  switch (m) {
    case ResolutionMode::OfflinePlusOnline: return "vroom";
    case ResolutionMode::OfflineOnly: return "offline-only";
    case ResolutionMode::OnlineOnly: return "online-only";
    case ResolutionMode::PreviousLoad: return "previous-load";
  }
  return "?";
}

std::vector<std::pair<std::uint32_t, std::string>> resolve_candidates(
    const web::PageInstance& served, std::uint32_t doc_id,
    const std::string& serving_domain, std::uint32_t user,
    ResolutionMode mode, const OfflineResolver& offline,
    sim::Time hint_age) {
  const web::PageModel& model = served.model();
  const sim::Time now = served.identity().wall_time;
  // Offline knowledge is as fresh as the last crawl: a shared front-end
  // serving cached hints resolves against crawls `hint_age` old.
  const sim::Time crawl_now = now - (hint_age > 0 ? hint_age : 0);
  const web::DeviceProfile& device = served.identity().device;

  // Advice scope: descendants of the requested document, pruned below
  // embedded HTML documents (§4.2).
  const std::vector<std::uint32_t> scope = model.hintable_descendants(doc_id);

  // Candidate URL per template id; empty = not advised (realized URLs are
  // never empty).
  std::vector<std::string> by_id(model.size());
  switch (mode) {
    case ResolutionMode::OfflinePlusOnline:
    case ResolutionMode::OfflineOnly: {
      const auto& stable =
          offline.stable_set(crawl_now, device, serving_domain, user);
      for (std::uint32_t id : scope) {
        auto it = stable.find(id);
        if (it != stable.end()) by_id[id] = it->second;
      }
      if (mode == ResolutionMode::OfflinePlusOnline) {
        // Exact URLs from the served markup win over (possibly stale)
        // crawl-derived URLs for the same slot.
        OnlineScan scan = analyze_served_html(served, doc_id);
        for (auto& [id, url] : scan.links) by_id[id] = std::move(url);
      }
      break;
    }
    case ResolutionMode::OnlineOnly: {
      // Full page load at the server, right now: current time and device,
      // but the *server's* load nonce and only its own cookies.
      const std::uint64_t server_nonce = sim::derive_seed(
          served.identity().nonce ^ 0x5eedf00dULL, "server-online-load");
      web::LoadIdentity id;
      id.wall_time = now;
      id.device = device;
      id.nonce = server_nonce;
      const web::KeyRealizer realize(id);
      for (std::uint32_t rid : scope) {
        const web::Resource& r = model.resource(rid);
        const bool knows = org_knows_user(model, serving_domain, r.domain);
        by_id[rid] = web::format_url(model, r, realize(r, knows ? user : 0));
      }
      break;
    }
    case ResolutionMode::PreviousLoad: {
      // Everything seen in a single crawl within the past hour, per-load
      // churn included.
      const sim::Time when = now - sim::minutes(55);
      const std::uint64_t nonce = sim::derive_seed(
          static_cast<std::uint64_t>(when) ^ model.page_id(), "prev-load");
      auto prev = offline.single_load_urls(when, device, serving_domain, user,
                                           nonce);
      for (std::uint32_t id : scope) {
        auto it = prev.find(id);
        if (it != prev.end()) by_id[id] = std::move(it->second);
      }
      break;
    }
  }

  std::vector<std::pair<std::uint32_t, std::string>> ordered;
  for (std::uint32_t id : scope) {  // scope is already in processing order
    if (!by_id[id].empty()) ordered.emplace_back(id, std::move(by_id[id]));
  }
  return ordered;
}

AdviceBuild advise_document(const web::PageInstance& served,
                            std::uint32_t doc_id,
                            const std::string& serving_domain,
                            std::uint32_t user,
                            const VroomProviderConfig& config,
                            const OfflineResolver& offline) {
  const auto ordered =
      resolve_candidates(served, doc_id, serving_domain, user, config.mode,
                         offline, config.hint_age);
  AdviceBuild build = build_advice(served, ordered, serving_domain,
                                   config.hints_enabled, config.push);
  truncate_hints(build.hints, config.max_hints);
  return build;
}

VroomProvider::VroomProvider(const server::ReplayStore& store,
                             VroomProviderConfig config)
    : store_(store),
      config_(std::move(config)),
      offline_(store.instance().model(), config_.offline) {}

server::DependencyAdvice VroomProvider::advise(const std::string& domain,
                                               const http::Request& req) {
  server::DependencyAdvice advice;
  const web::PageInstance& inst = store_.instance();
  auto entry = store_.lookup(req);
  if (!entry || entry->type != web::ResourceType::Html) return advice;
  const std::uint32_t doc_id = entry->template_id;

  AdviceBuild build =
      advise_document(inst, doc_id, domain, req.user, config_, offline_);
  advice.hints = std::move(build.hints);
  advice.pushes = std::move(build.pushes);
  advice.push_policy = push_selection_name(config_.push);

  switch (config_.mode) {
    case ResolutionMode::OfflinePlusOnline:
      advice.extra_delay = web::scan_cost(inst.resource(doc_id).size);
      break;
    case ResolutionMode::OnlineOnly:
      // A full on-the-fly page load costs far more than an HTML scan.
      advice.extra_delay = sim::ms(400);
      break;
    case ResolutionMode::OfflineOnly:
    case ResolutionMode::PreviousLoad:
      advice.extra_delay = 0;
      break;
  }
  return advice;
}

}  // namespace vroom::core
