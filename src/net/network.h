// Network topology and configuration profiles.
//
// A `Network` bundles the client's shared downlink/uplink with per-domain
// round-trip times, mirroring the paper's replay setup (Figure 12): traffic
// between phone and any web server experiences the cellular delay plus the
// median RTT recorded between the replay desktop and that origin.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

// (sim::Rng is used for deterministic loss draws.)

#include "net/link.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "sim/time.h"

namespace vroom::net {

struct NetworkConfig {
  double downlink_bps = 10e6;  // LTE downlink, good signal
  double uplink_bps = 5e6;
  sim::Time cellular_rtt = sim::ms(90);  // radio + core network
  sim::Time dns_lookup = sim::ms(25);    // once per domain per page load
  int mss_bytes = 1460;
  int init_cwnd_segments = 10;
  int max_cwnd_segments = 128;  // ~BDP of LTE at these rates

  // HTTP/2 per-stream flow-control window (nghttpx serves 64 KB by default,
  // the reverse proxy the paper's replay fronts every origin with). A large
  // response can have at most this many un-acknowledged bytes in flight on
  // its stream; WINDOW_UPDATEs return with the ACKs. 0 disables.
  std::int64_t h2_stream_window_bytes = 64 * 1024;
  int tls_handshake_rtts = 2;   // TLS 1.2 full handshake (2017 deployment)
  sim::Time server_think = sim::ms(25);  // per-request origin processing

  // Per-domain wide-area RTT draw (desktop <-> origin in the replay setup):
  // lognormal with this median/sigma, clamped to [min, max].
  sim::Time domain_rtt_median = sim::ms(55);
  double domain_rtt_sigma = 0.6;
  sim::Time domain_rtt_min = sim::ms(5);
  sim::Time domain_rtt_max = sim::ms(400);

  // Random segment loss (deterministic per seed). A lost segment costs the
  // flow a retransmission timeout and halves its congestion window —
  // HTTP/2's single connection is far more exposed than HTTP/1.1's six
  // (Erman et al., CoNEXT'13, cited as [24] in the paper). Default off: the
  // paper's replay runs over a good-signal hotspot.
  double loss_rate = 0.0;
  sim::Time rto_min = sim::ms(250);

  // LTE RRC state machine: the radio drops to idle after `radio_idle_timeout`
  // without traffic and pays `radio_promotion` to come back up. Only the
  // start of a load (and long gaps) hit this. Zero disables it.
  sim::Time radio_promotion = 0;
  sim::Time radio_idle_timeout = sim::seconds(5);

  // Canonical text of every field above, for run identity (trace file
  // names, alongside baselines::Strategy::fingerprint()). Two configs with
  // equal fingerprints simulate identically; a new field must join it.
  std::string fingerprint() const;

  static NetworkConfig lte();
  static NetworkConfig lte_loaded();  // congested cell: lower rate, higher RTT
  static NetworkConfig wifi();
  static NetworkConfig threeg();
  // Zero-latency, (effectively) infinite-bandwidth profile for the
  // CPU-bottleneck lower bound of Figure 2.
  static NetworkConfig local_usb();
};

// Invariant audit of the TCP delivery model over whole page loads
// (RunOptions::delivery_audit, tests/property_test.cpp). While one is
// attached, every connection wraps its chunks' callbacks to check that each
// fires exactly once, first byte before delivered, and records its totals
// here when it is destroyed. Not thread-safe: attach it to serial loads.
struct DeliveryAudit {
  struct Connection {
    std::int64_t bytes_sent = 0;       // chunk bytes queued by send_chunk
    std::int64_t bytes_delivered = 0;  // bytes_delivered() at teardown
    std::int64_t chunks = 0;
    std::int64_t chunks_completed = 0;  // first byte, then delivered
    std::int64_t misfires = 0;          // callbacks out of that order
  };
  std::vector<Connection> connections;
};

class Network {
 public:
  Network(sim::EventLoop& loop, NetworkConfig config, std::uint64_t rtt_seed);

  sim::EventLoop& loop() { return loop_; }
  // Backs the per-load storage of the connections and HTTP sessions built
  // on this network (TCP stream tables and queues, exchange records), so a
  // buffer one of them frees serves the next that needs one of its size
  // class (DESIGN.md §10). The network must outlive them.
  std::pmr::memory_resource* memory() { return &memory_; }
  const NetworkConfig& config() const { return config_; }
  Link& downlink() { return downlink_; }
  Link& uplink() { return uplink_; }

  // Full client<->origin RTT for a domain: cellular leg + per-domain wide-area
  // leg. Deterministic per (seed, domain).
  sim::Time rtt(const std::string& domain);

  // Id-keyed overlay on the RTT cache: `domain_id` is the caller's dense
  // interner id for `domain` (see web/intern.h). The draw stays a pure
  // function of (seed, domain string) — the id only indexes the memo, so
  // results are identical to the string path.
  sim::Time rtt(std::uint32_t domain_id, const std::string& domain);

  // Overrides the drawn RTT (used by tests and by record/replay fidelity
  // checks).
  void set_rtt(const std::string& domain, sim::Time rtt);

  // RRC model: extra delay the next transmission must absorb if the radio
  // has gone idle; also marks the radio active through `now + busy`.
  sim::Time radio_wakeup_delay();

  // Deterministic per-network loss draws for the TCP model.
  bool draw_loss();

  // Sequential connection ids for trace lane naming ("conn#<n>"); purely
  // cosmetic, derived from creation order, which the event loop makes
  // deterministic.
  int alloc_conn_id() { return ++conn_seq_; }

  DeliveryAudit* delivery_audit() const { return delivery_audit_; }
  void set_delivery_audit(DeliveryAudit* audit) { delivery_audit_ = audit; }

 private:
  sim::EventLoop& loop_;
  sim::RecyclingResource memory_;
  NetworkConfig config_;
  Link downlink_;
  Link uplink_;
  std::uint64_t rtt_seed_;
  int conn_seq_ = 0;
  std::map<std::string, sim::Time> rtt_cache_;
  std::vector<sim::Time> rtt_by_id_;  // kRttUnset where not yet drawn
  // Starts deep in the past: the radio is idle when a session begins.
  sim::Time radio_active_until_ = INT64_MIN / 2;
  std::unique_ptr<sim::Rng> loss_rng_;
  DeliveryAudit* delivery_audit_ = nullptr;
};

}  // namespace vroom::net
