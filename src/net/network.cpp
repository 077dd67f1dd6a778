#include "net/network.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace vroom::net {

std::string NetworkConfig::fingerprint() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "net{down=" << downlink_bps << ";up=" << uplink_bps
     << ";cell_rtt=" << cellular_rtt << ";dns=" << dns_lookup
     << ";mss=" << mss_bytes << ";icwnd=" << init_cwnd_segments
     << ";maxcwnd=" << max_cwnd_segments
     << ";h2win=" << h2_stream_window_bytes
     << ";tls_rtts=" << tls_handshake_rtts << ";think=" << server_think
     << ";rtt_med=" << domain_rtt_median << ";rtt_sig=" << domain_rtt_sigma
     << ";rtt_min=" << domain_rtt_min << ";rtt_max=" << domain_rtt_max
     << ";loss=" << loss_rate << ";rto_min=" << rto_min
     << ";rrc=" << radio_promotion << ";rrc_idle=" << radio_idle_timeout
     << "}";
  return os.str();
}

NetworkConfig NetworkConfig::lte() { return NetworkConfig{}; }

NetworkConfig NetworkConfig::lte_loaded() {
  NetworkConfig c;
  c.downlink_bps = 3e6;
  c.uplink_bps = 1.5e6;
  c.cellular_rtt = sim::ms(90);
  return c;
}

NetworkConfig NetworkConfig::wifi() {
  NetworkConfig c;
  c.downlink_bps = 40e6;
  c.uplink_bps = 20e6;
  c.cellular_rtt = sim::ms(10);
  return c;
}

NetworkConfig NetworkConfig::threeg() {
  NetworkConfig c;
  c.downlink_bps = 1.6e6;
  c.uplink_bps = 0.8e6;
  c.cellular_rtt = sim::ms(150);
  return c;
}

NetworkConfig NetworkConfig::local_usb() {
  NetworkConfig c;
  c.downlink_bps = 1e9;
  c.uplink_bps = 1e9;
  c.cellular_rtt = sim::us(200);
  c.dns_lookup = 0;
  c.tls_handshake_rtts = 0;
  c.server_think = 0;
  c.domain_rtt_median = sim::us(100);
  c.domain_rtt_min = sim::us(50);
  c.domain_rtt_max = sim::us(200);
  return c;
}

Network::Network(sim::EventLoop& loop, NetworkConfig config,
                 std::uint64_t rtt_seed)
    : loop_(loop),
      config_(config),
      downlink_(loop, config.downlink_bps, "downlink"),
      uplink_(loop, config.uplink_bps, "uplink"),
      rtt_seed_(rtt_seed) {
  if (config_.loss_rate > 0) {
    loss_rng_ = std::make_unique<sim::Rng>(rtt_seed, "segment-loss");
  }
}

sim::Time Network::radio_wakeup_delay() {
  if (config_.radio_promotion <= 0) return 0;
  const sim::Time now = loop_.now();
  const sim::Time delay =
      now > radio_active_until_ + config_.radio_idle_timeout
          ? config_.radio_promotion
          : 0;
  radio_active_until_ = now + delay;
  return delay;
}

bool Network::draw_loss() {
  if (!loss_rng_) return false;
  return loss_rng_->chance(config_.loss_rate);
}

sim::Time Network::rtt(const std::string& domain) {
  auto it = rtt_cache_.find(domain);
  if (it != rtt_cache_.end()) return it->second;
  sim::Rng rng(rtt_seed_, "domain_rtt:" + domain);
  auto wide_area = static_cast<sim::Time>(
      rng.lognormal(static_cast<double>(config_.domain_rtt_median),
                    config_.domain_rtt_sigma));
  wide_area = std::clamp(wide_area, config_.domain_rtt_min,
                         config_.domain_rtt_max);
  const sim::Time total = config_.cellular_rtt + wide_area;
  rtt_cache_.emplace(domain, total);
  return total;
}

namespace {
constexpr sim::Time kRttUnset = INT64_MIN;
}  // namespace

sim::Time Network::rtt(std::uint32_t domain_id, const std::string& domain) {
  if (domain_id == 0xffffffffu) return rtt(domain);
  if (domain_id < rtt_by_id_.size() && rtt_by_id_[domain_id] != kRttUnset) {
    return rtt_by_id_[domain_id];
  }
  const sim::Time total = rtt(domain);
  if (domain_id >= rtt_by_id_.size()) {
    rtt_by_id_.resize(domain_id + 1, kRttUnset);
  }
  rtt_by_id_[domain_id] = total;
  return total;
}

void Network::set_rtt(const std::string& domain, sim::Time rtt) {
  rtt_cache_[domain] = rtt;
  // Drop the id overlay: ids are not recorded against domains here, so the
  // conservative invalidation is to forget every memoized entry.
  rtt_by_id_.assign(rtt_by_id_.size(), kRttUnset);
}

}  // namespace vroom::net
