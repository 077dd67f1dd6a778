#include "web/trace_io.h"

#include <charconv>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
#include <vector>

#include "web/device.h"

namespace vroom::web {
namespace {

const char* via_name(DiscoveryVia v) {
  switch (v) {
    case DiscoveryVia::HtmlTag: return "tag";
    case DiscoveryVia::CssRef: return "css";
    case DiscoveryVia::JsExec: return "js";
  }
  return "?";
}

std::optional<DiscoveryVia> via_from(const std::string& s) {
  if (s == "tag") return DiscoveryVia::HtmlTag;
  if (s == "css") return DiscoveryVia::CssRef;
  if (s == "js") return DiscoveryVia::JsExec;
  return std::nullopt;
}

std::optional<ResourceType> type_from(const std::string& s) {
  for (ResourceType t :
       {ResourceType::Html, ResourceType::Css, ResourceType::Js,
        ResourceType::Image, ResourceType::Font, ResourceType::Media,
        ResourceType::Other}) {
    if (s == type_name(t)) return t;
  }
  return std::nullopt;
}

std::optional<Volatility> volatility_from(const std::string& s) {
  for (Volatility v :
       {Volatility::Stable, Volatility::Daily, Volatility::Hourly,
        Volatility::PerLoad, Volatility::Personalized}) {
    if (s == volatility_name(v)) return v;
  }
  return std::nullopt;
}

std::optional<PageClass> class_from(const std::string& s) {
  for (PageClass c : {PageClass::Top100, PageClass::News, PageClass::Sports,
                      PageClass::Mixed400}) {
    if (s == page_class_name(c)) return c;
  }
  return std::nullopt;
}

// Splits "key=value key=value ..." tokens of one line into `out`. Returns
// why the line is malformed, or an empty string: a token without '=' (a
// field that lost its '=', such as "weight1") and a key given twice are
// both ambiguous, and the caller rejects the line.
std::string parse_fields(std::istringstream& line,
                         std::map<std::string, std::string>& out) {
  std::string token;
  while (line >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return "token without '=': '" + token + "'";
    std::string key = token.substr(0, eq);
    if (!out.emplace(key, token.substr(eq + 1)).second) {
      return "repeated field '" + key + "'";
    }
  }
  return {};
}

// Splits a comma-separated list value. Returns nullopt when any item is
// empty ("a,,b", "a,", ",a"): an empty domain or flag is never meant.
std::optional<std::vector<std::string>> split_list(const std::string& s) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end == start) return std::nullopt;
    items.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

// The fields each record kind may carry; anything else is a typo.
const std::set<std::string>& known_fields(const std::string& kind) {
  static const std::set<std::string> page = {"id", "class", "first_party",
                                             "shards"};
  static const std::set<std::string> res = {
      "id", "parent", "type", "via", "off", "size", "domain", "vol",
      "period", "phase", "max_age", "weight", "device_axis",
      "page_override", "flags"};
  return kind == "page" ? page : res;
}

template <typename T>
bool get_num(const std::map<std::string, std::string>& f, const char* key,
             T& out) {
  auto it = f.find(key);
  if (it == f.end()) return false;
  const std::string& s = it->second;
  // Both branches follow harness/env.cpp's strict contract: the whole field
  // must be the number. The float path used std::stod, which accepted
  // trailing garbage ("0.5x"), leading whitespace, hex, and inf/nan.
  if constexpr (std::is_floating_point_v<T>) {
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || ptr != s.data() + s.size() || !std::isfinite(v)) {
      return false;
    }
    out = static_cast<T>(v);
    return true;
  } else {
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && ptr == s.data() + s.size();
  }
}

}  // namespace

void write_trace(std::ostream& os, const PageModel& page) {
  os.precision(17);  // doubles must round-trip exactly
  os << "# vroom-sim page trace v1\n";
  os << "page id=" << page.page_id() << " class="
     << page_class_name(page.page_class())
     << " first_party=" << page.first_party();
  if (page.first_party_group().size() > 1) {
    os << " shards=";
    for (std::size_t i = 1; i < page.first_party_group().size(); ++i) {
      if (i > 1) os << ',';
      os << page.first_party_group()[i];
    }
  }
  os << '\n';
  for (const Resource& r : page.resources()) {
    os << "res id=" << r.id << " parent=" << r.parent
       << " type=" << type_name(r.type) << " via=" << via_name(r.via)
       << " off=" << r.discovery_offset << " size=" << r.base_size
       << " domain=" << r.domain << " vol=" << volatility_name(r.volatility)
       << " period=" << r.rotation_period << " phase=" << r.rotation_phase;
    if (r.max_age > 0) os << " max_age=" << r.max_age;
    if (r.visual_weight > 0) os << " weight=" << r.visual_weight;
    if (r.device_axis >= 0) {
      os << " device_axis=" << static_cast<int>(r.device_axis);
    }
    if (r.url_page_override != Resource::kNoPageOverride) {
      os << " page_override=" << r.url_page_override;
    }
    std::string flags;
    auto flag = [&](bool v, const char* name) {
      if (!v) return;
      if (!flags.empty()) flags += ',';
      flags += name;
    };
    flag(r.is_iframe_doc, "iframe_doc");
    flag(r.in_iframe, "in_iframe");
    flag(r.async, "async");
    flag(r.blocks_parser, "blocks_parser");
    flag(r.cacheable, "cacheable");
    flag(r.above_fold, "above_fold");
    flag(r.post_onload, "post_onload");
    flag(!r.blocks_onload, "beacon");
    flag(r.first_party_personalized, "fp_personalized");
    if (!flags.empty()) os << " flags=" << flags;
    os << '\n';
  }
}

std::string page_to_trace(const PageModel& page) {
  std::ostringstream os;
  write_trace(os, page);
  return os.str();
}

std::optional<PageModel> page_from_trace(const std::string& text,
                                         std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<PageModel> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  std::istringstream in(text);
  std::string line;
  std::optional<PageModel> page;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    const std::string at = " (line " + std::to_string(line_no) + ")";
    if (kind != "page" && kind != "res") {
      return fail("unknown record '" + kind + "'" + at);
    }
    std::map<std::string, std::string> fields;
    if (const std::string bad = parse_fields(ls, fields); !bad.empty()) {
      return fail(kind + ": " + bad + at);
    }
    for (const auto& [key, value] : fields) {
      if (known_fields(kind).count(key) == 0) {
        return fail(kind + ": unknown field '" + key + "'" + at);
      }
      if (value.empty()) return fail(kind + ": empty " + key + at);
    }

    if (kind == "page") {
      std::uint32_t id = 0;
      if (!get_num(fields, "id", id)) return fail("page: missing id" + at);
      auto cls = class_from(fields.count("class") ? fields.at("class") : "");
      if (!cls) return fail("page: bad class" + at);
      auto fp = fields.find("first_party");
      if (fp == fields.end()) return fail("page: missing first_party" + at);
      page.emplace(id, *cls, fp->second);
      if (auto sh = fields.find("shards"); sh != fields.end()) {
        const auto shards = split_list(sh->second);
        if (!shards) return fail("page: empty shard" + at);
        for (const std::string& dom : *shards) {
          page->add_first_party_domain(dom);
        }
      }
      continue;
    }
    if (!page) return fail("res before page header" + at);

    Resource r;
    if (!get_num(fields, "id", r.id)) return fail("res: missing id" + at);
    if (!get_num(fields, "parent", r.parent)) {
      return fail("res: missing parent" + at);
    }
    auto type = type_from(fields.count("type") ? fields.at("type") : "");
    if (!type) return fail("res: bad type" + at);
    r.type = *type;
    auto via = via_from(fields.count("via") ? fields.at("via") : "");
    if (!via) return fail("res: bad via" + at);
    r.via = *via;
    if (!get_num(fields, "off", r.discovery_offset) ||
        r.discovery_offset < 0 || r.discovery_offset > 1) {
      return fail("res: bad off" + at);
    }
    if (!get_num(fields, "size", r.base_size) || r.base_size <= 0) {
      return fail("res: bad size" + at);
    }
    auto dom = fields.find("domain");
    if (dom == fields.end()) return fail("res: missing domain" + at);
    r.domain = dom->second;
    auto vol = volatility_from(fields.count("vol") ? fields.at("vol") : "");
    if (!vol) return fail("res: bad vol" + at);
    r.volatility = *vol;
    // The writer always emits period and phase; a trace without them lost
    // them, and their defaults would silently stand in.
    if (!get_num(fields, "period", r.rotation_period)) {
      return fail("res: bad period" + at);
    }
    if (!get_num(fields, "phase", r.rotation_phase)) {
      return fail("res: bad phase" + at);
    }
    // Optional fields: absent keeps the default, present must parse and
    // hold a value the writer would emit (it omits every default).
    if (fields.count("max_age") &&
        (!get_num(fields, "max_age", r.max_age) || r.max_age <= 0)) {
      return fail("res: bad max_age" + at);
    }
    if (fields.count("weight") &&
        (!get_num(fields, "weight", r.visual_weight) ||
         r.visual_weight <= 0)) {
      return fail("res: bad weight" + at);
    }
    if (fields.count("device_axis")) {
      int axis = -1;
      if (!get_num(fields, "device_axis", axis) || axis < 0 ||
          axis >= kNumDeviceAxes) {
        return fail("res: bad device_axis" + at);
      }
      r.device_axis = static_cast<std::int8_t>(axis);
    }
    if (fields.count("page_override") &&
        (!get_num(fields, "page_override", r.url_page_override) ||
         r.url_page_override == Resource::kNoPageOverride)) {
      return fail("res: bad page_override" + at);
    }
    if (auto fl = fields.find("flags"); fl != fields.end()) {
      const auto flags = split_list(fl->second);
      if (!flags) return fail("res: empty flag" + at);
      for (const std::string& flag : *flags) {
        if (flag == "iframe_doc") r.is_iframe_doc = true;
        else if (flag == "in_iframe") r.in_iframe = true;
        else if (flag == "async") r.async = true;
        else if (flag == "blocks_parser") r.blocks_parser = true;
        else if (flag == "cacheable") r.cacheable = true;
        else if (flag == "above_fold") r.above_fold = true;
        else if (flag == "post_onload") r.post_onload = true;
        else if (flag == "beacon") r.blocks_onload = false;
        else if (flag == "fp_personalized") r.first_party_personalized = true;
        else return fail("res: unknown flag '" + flag + "'" + at);
      }
    }
    if (r.id != page->size()) return fail("res: ids must be dense" + at);
    if (r.parent >= static_cast<std::int32_t>(r.id)) {
      return fail("res: parent must precede child" + at);
    }
    // Parent -1 marks the root, and only the root.
    if (r.parent < (r.id == 0 ? -1 : 0)) return fail("res: bad parent" + at);
    if (r.id == 0 && r.type != ResourceType::Html) {
      return fail("resource 0 must be the root HTML" + at);
    }
    if (r.volatility != Volatility::PerLoad && r.rotation_period <= 0) {
      return fail("res: rotating resource needs period" + at);
    }
    page->add(std::move(r));
  }
  if (!page) return fail("empty trace");
  if (page->size() == 0) return fail("trace has no resources");
  return page;
}

}  // namespace vroom::web
