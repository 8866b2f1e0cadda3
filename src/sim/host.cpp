#include "sim/host.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rp::sim {

Host::Host(Simulator& sim, HostConfig config, util::Rng rng)
    : Device(config.name),
      sim_(&sim),
      config_(std::move(config)),
      rng_(rng),
      icmp_id_(static_cast<std::uint16_t>(config_.mac.to_u64() & 0xFFFF)) {}

std::size_t Host::allocate_interface() {
  if (attached_) throw std::logic_error("Host " + name() + ": already wired");
  attached_ = true;
  return 0;
}

std::uint8_t Host::current_initial_ttl(util::SimTime now) const {
  std::uint8_t ttl = config_.initial_ttl;
  for (const auto& [when, value] : config_.ttl_changes) {
    if (when <= now) ttl = value;
  }
  return ttl;
}

void Host::receive(std::size_t /*ifindex*/, const EthernetFrame& frame) {
  if (frame.is_arp()) {
    handle_arp(frame.arp());
    return;
  }
  // NIC filtering: accept only frames addressed to us (flooded unknown
  // unicast for another MAC is dropped, as a real NIC would).
  if (frame.dst != config_.mac && !frame.dst.is_broadcast()) return;
  if (frame.is_ipv4()) handle_ipv4(frame.ipv4());
}

namespace {

/// First entry of the sorted ARP table whose address is not below `ip`.
template <typename Table>
auto arp_slot(Table& table, net::Ipv4Addr ip) {
  return std::lower_bound(
      table.begin(), table.end(), ip,
      [](const auto& entry, net::Ipv4Addr key) { return entry.first < key; });
}

}  // namespace

const net::MacAddr* Host::arp_lookup(net::Ipv4Addr ip) const {
  const auto it = arp_slot(arp_cache_, ip);
  return it != arp_cache_.end() && it->first == ip ? &it->second : nullptr;
}

void Host::arp_learn(net::Ipv4Addr ip, net::MacAddr mac) {
  const auto it = arp_slot(arp_cache_, ip);
  if (it != arp_cache_.end() && it->first == ip)
    it->second = mac;
  else
    arp_cache_.emplace(it, ip, mac);
}

void Host::handle_arp(const ArpMessage& arp) {
  // Gratuitously cache the sender's mapping (hosts in a LAN learn the
  // requester's address from the broadcast request itself).
  arp_learn(arp.sender_ip, arp.sender_mac);

  if (arp.op == ArpMessage::Op::kRequest && arp.target_ip == config_.ip) {
    EthernetFrame reply;
    reply.src = config_.mac;
    reply.dst = arp.sender_mac;
    reply.payload = ArpMessage{ArpMessage::Op::kReply, config_.mac, config_.ip,
                               arp.sender_mac, arp.sender_ip};
    // Tiny control-plane turnaround.
    auto send = [this, reply] { transmit(0, reply); };
    static_assert(Simulator::stored_inline<decltype(send)>(),
                  "ARP turnaround must stay slab-resident");
    sim_->schedule_in(util::SimDuration::micros(20), std::move(send));
    return;
  }

  if (arp.op == ArpMessage::Op::kReply) {
    const auto pending = awaiting_arp_.find(arp.sender_ip);
    if (pending == awaiting_arp_.end()) return;
    const auto queued = std::move(pending->second);
    awaiting_arp_.erase(pending);
    for (const auto& echo : queued)
      send_echo_to(arp.sender_mac, arp.sender_ip, echo.sequence);
  }
}

void Host::handle_ipv4(const Ipv4Packet& packet) {
  if (packet.dst != config_.ip) return;
  if (packet.icmp.type == IcmpEcho::Type::kRequest) {
    ++echo_requests_received_;
    if (config_.blackhole_icmp) return;
    if (config_.reply_loss_probability > 0.0 &&
        rng_.chance(config_.reply_loss_probability))
      return;
    answer_echo(packet);
    return;
  }
  // Echo reply: match an outstanding probe of ours.
  if (packet.icmp.id != icmp_id_) return;
  const auto it = outstanding_.find(packet.icmp.sequence);
  if (it == outstanding_.end()) return;  // Late reply after timeout.
  PingOutcome outcome;
  outcome.replied = true;
  outcome.rtt = sim_->now() - it->second.sent_at;
  outcome.reply_ttl = packet.ttl;
  outcome.reply_src = packet.src;
  outcome.sequence = packet.icmp.sequence;
  auto callback = std::move(it->second.callback);
  outstanding_.erase(it);
  callback(outcome);
}

void Host::answer_echo(const Ipv4Packet& request) {
  const net::MacAddr* requester_mac = arp_lookup(request.src);
  if (requester_mac == nullptr) return;  // Can't route the reply.

  Ipv4Packet reply;
  reply.dst = request.src;
  reply.icmp = IcmpEcho{IcmpEcho::Type::kReply, request.icmp.id,
                        request.icmp.sequence};

  util::SimDuration delay = processing_delay();
  if (config_.per_requester_extra &&
      config_.per_requester_extra->first == request.src) {
    const double floor_s = config_.per_requester_extra->second.as_seconds_f();
    delay += util::SimDuration::from_seconds_f(
        floor_s + rng_.exponential(floor_s / 4.0));
  }
  std::uint8_t ttl = current_initial_ttl(sim_->now());
  if (config_.reply_extra_hops > 0) {
    // Proxied reply: it leaves another device and crosses extra IP hops on
    // the way back, so the TTL drops and the source address may differ.
    const int hops = config_.reply_extra_hops;
    ttl = static_cast<std::uint8_t>(ttl > hops ? ttl - hops : 1);
    delay += config_.per_hop_delay * hops;
    reply.src = config_.reply_src_override.value_or(config_.ip);
  } else {
    reply.src = config_.ip;
  }
  reply.ttl = ttl;

  EthernetFrame frame;
  frame.src = config_.mac;
  frame.dst = *requester_mac;
  frame.payload = reply;
  auto send = [this, frame] { transmit(0, frame); };
  static_assert(Simulator::stored_inline<decltype(send)>(),
                "echo-reply emission must stay slab-resident");
  sim_->schedule_in(delay, std::move(send));
}

void Host::ping(net::Ipv4Addr target, util::SimDuration timeout,
                std::function<void(const PingOutcome&)> callback) {
  const std::uint16_t sequence = next_sequence_++;
  outstanding_.emplace(sequence,
                       Outstanding{sim_->now(), std::move(callback)});

  // Give up at the timeout whether the hold-up is ARP or the echo itself.
  sim_->schedule_in(timeout, [this, sequence, target] {
    const auto it = outstanding_.find(sequence);
    if (it == outstanding_.end()) return;  // Answered in time.
    PingOutcome outcome;
    outcome.replied = false;
    outcome.sequence = sequence;
    auto cb = std::move(it->second.callback);
    outstanding_.erase(it);
    // Drop any stale ARP queue entry for this sequence.
    const auto pending = awaiting_arp_.find(target);
    if (pending != awaiting_arp_.end()) {
      auto& queue = pending->second;
      queue.erase(std::remove_if(queue.begin(), queue.end(),
                                 [sequence](const PendingEcho& e) {
                                   return e.sequence == sequence;
                                 }),
                  queue.end());
      if (queue.empty()) awaiting_arp_.erase(pending);
    }
    cb(outcome);
  });

  if (const net::MacAddr* mac = arp_lookup(target)) {
    send_echo_to(*mac, target, sequence);
    return;
  }
  const bool arp_in_flight = awaiting_arp_.contains(target);
  awaiting_arp_[target].push_back(PendingEcho{sequence});
  if (!arp_in_flight) send_arp_request(target);
}

void Host::send_echo_to(net::MacAddr dst_mac, net::Ipv4Addr dst_ip,
                        std::uint16_t sequence) {
  Ipv4Packet packet;
  packet.src = config_.ip;
  packet.dst = dst_ip;
  packet.ttl = current_initial_ttl(sim_->now());
  packet.icmp = IcmpEcho{IcmpEcho::Type::kRequest, icmp_id_, sequence};
  EthernetFrame frame;
  frame.src = config_.mac;
  frame.dst = dst_mac;
  frame.payload = packet;
  transmit(0, frame);
}

void Host::send_arp_request(net::Ipv4Addr target) {
  EthernetFrame frame;
  frame.src = config_.mac;
  frame.dst = net::MacAddr::broadcast();
  frame.payload = ArpMessage{ArpMessage::Op::kRequest, config_.mac, config_.ip,
                             net::MacAddr{}, target};
  transmit(0, frame);
}

util::SimDuration Host::processing_delay() {
  const double median_s = config_.processing_median.as_seconds_f();
  return util::SimDuration::from_seconds_f(
      rng_.lognormal(std::log(median_s), config_.processing_sigma));
}

}  // namespace rp::sim
