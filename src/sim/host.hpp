// An IP host in the peering LAN: a member-router interface or an LG server.
//
// Hosts implement just enough of the stack for the study: ARP resolution and
// ICMP echo. Reply behavior is configurable to reproduce every measurement
// artefact of §3.1 — OS-dependent initial TTLs (64/255, occasionally 32/128),
// TTL switches mid-campaign (OS changes), echo blackholing, rate-limited or
// lossy responders, processing delay, and proxied replies that take extra IP
// hops and arrive with a decremented TTL from a different source address.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/link.hpp"

namespace rp::sim {

/// Static configuration of a host.
struct HostConfig {
  std::string name;
  net::MacAddr mac;
  net::Ipv4Addr ip;
  net::Ipv4Prefix subnet;
  /// Initial TTL the host's OS stamps on generated packets (commonly 64 for
  /// Unix-likes, 255 for network gear, rarely 32/128).
  std::uint8_t initial_ttl = 64;
  /// Scheduled initial-TTL changes (time, new value): OS upgrades during the
  /// measurement period, the artefact behind the TTL-switch filter.
  std::vector<std::pair<util::SimTime, std::uint8_t>> ttl_changes;
  /// Never answer echo requests (intentional blackholing, §3.1).
  bool blackhole_icmp = false;
  /// Probability of silently dropping any single echo reply (rate limiting).
  double reply_loss_probability = 0.0;
  /// If > 0, replies are emitted after this many extra IP hops: the TTL
  /// decreases accordingly and each hop adds forwarding delay. Models the
  /// "replies from one of its other interfaces" danger of §3.1.
  int reply_extra_hops = 0;
  /// Source address stamped on replies when proxied (reply_extra_hops > 0).
  std::optional<net::Ipv4Addr> reply_src_override;
  /// Persistently inflated service for one specific requester address
  /// (e.g. the path segment toward one looking glass crosses a sick trunk
  /// in a multi-switch fabric): echo replies to that requester see this
  /// extra delay as a floor, plus exponential jitter of a quarter of it.
  /// The LG-consistent filter's target.
  std::optional<std::pair<net::Ipv4Addr, util::SimDuration>>
      per_requester_extra;
  /// Median ICMP processing delay (lognormal) before a reply leaves.
  util::SimDuration processing_median = util::SimDuration::micros(150);
  double processing_sigma = 0.3;
  /// Forwarding delay per extra IP hop for proxied replies.
  util::SimDuration per_hop_delay = util::SimDuration::micros(250);
};

/// Result of one echo probe.
struct PingOutcome {
  bool replied = false;
  util::SimDuration rtt;
  std::uint8_t reply_ttl = 0;
  net::Ipv4Addr reply_src;
  std::uint16_t sequence = 0;
};

class Host : public Device {
 public:
  Host(Simulator& sim, HostConfig config, util::Rng rng);

  void receive(std::size_t ifindex, const EthernetFrame& frame) override;
  std::size_t allocate_interface() override;

  const HostConfig& config() const { return config_; }
  /// The initial TTL in force at `now`, honoring scheduled changes.
  std::uint8_t current_initial_ttl(util::SimTime now) const;

  /// Sends one echo request to `target`; `callback` fires exactly once, with
  /// the reply or, after `timeout`, with replied == false. Unresolvable
  /// targets (no ARP answer) also report failure at the timeout.
  void ping(net::Ipv4Addr target, util::SimDuration timeout,
            std::function<void(const PingOutcome&)> callback);

  std::uint64_t echo_requests_received() const {
    return echo_requests_received_;
  }

 private:
  struct Outstanding {
    util::SimTime sent_at;
    std::function<void(const PingOutcome&)> callback;
  };
  struct PendingEcho {
    std::uint16_t sequence;
  };

  /// The learned MAC for `ip`, or nullptr when unresolved.
  const net::MacAddr* arp_lookup(net::Ipv4Addr ip) const;
  /// Inserts or overwrites the mapping for `ip`.
  void arp_learn(net::Ipv4Addr ip, net::MacAddr mac);

  void handle_arp(const ArpMessage& arp);
  void handle_ipv4(const Ipv4Packet& packet);
  void answer_echo(const Ipv4Packet& request);
  void send_echo_to(net::MacAddr dst_mac, net::Ipv4Addr dst_ip,
                    std::uint16_t sequence);
  void send_arp_request(net::Ipv4Addr target);
  util::SimDuration processing_delay();

  Simulator* sim_;
  HostConfig config_;
  util::Rng rng_;
  bool attached_ = false;
  std::uint16_t icmp_id_;
  std::uint16_t next_sequence_ = 1;
  /// ARP cache as a flat (ip, mac) table sorted by address. Every flooded
  /// ARP request refreshes the requester's entry in every host, once per
  /// flood copy, so a refresh is an in-place update with no hashing and no
  /// allocation. In a campaign only the LG and route-server hosts send
  /// requests, so a member host's table holds at most 3 entries; a prober's
  /// holds one per resolved target, and bisection keeps its lookups
  /// logarithmic.
  std::vector<std::pair<net::Ipv4Addr, net::MacAddr>> arp_cache_;
  std::unordered_map<net::Ipv4Addr, std::vector<PendingEcho>> awaiting_arp_;
  std::unordered_map<std::uint16_t, Outstanding> outstanding_;
  std::uint64_t echo_requests_received_ = 0;
};

}  // namespace rp::sim
