#include "sim/l2_switch.hpp"

#include "obs/metrics.hpp"

namespace rp::sim {

void L2Switch::receive(std::size_t ifindex, const EthernetFrame& frame) {
  // Learn the sender's port (MAC moves are honored: last seen wins).
  if (!frame.src.is_multicast()) mac_table_[frame.src] = ifindex;

  if (!frame.dst.is_broadcast() && !frame.dst.is_multicast()) {
    const auto it = mac_table_.find(frame.dst);
    if (it != mac_table_.end()) {
      if (it->second != ifindex) {
        transmit(it->second, frame);
        ++frames_forwarded_;
      }
      return;  // Destination hangs off the ingress port: filter the frame.
    }
  }
  // Broadcast, multicast, or unknown unicast: flood all other ports.
  ++frames_flooded_;
  for (std::size_t port = 0; port < port_count_; ++port)
    if (port != ifindex) transmit(port, frame);
}

FrameTotals FrameTotals::of(const Network& network,
                            std::span<const L2Switch* const> switches) {
  FrameTotals totals;
  for (const L2Switch* sw : switches) {
    totals.flooded += sw->frames_flooded();
    totals.forwarded += sw->frames_forwarded();
  }
  for (const auto& link : network.links()) {
    totals.delivered += link->frames_delivered();
    totals.dropped += link->frames_dropped();
  }
  return totals;
}

void FrameTotals::record() const {
  if (!obs::metrics_enabled()) return;
  static obs::Counter flooded_counter("rp.sim.frames.flooded");
  static obs::Counter forwarded_counter("rp.sim.frames.forwarded");
  static obs::Counter delivered_counter("rp.sim.frames.delivered");
  static obs::Counter dropped_counter("rp.sim.frames.dropped");
  flooded_counter.add(flooded);
  forwarded_counter.add(forwarded);
  delivered_counter.add(delivered);
  dropped_counter.add(dropped);
}

}  // namespace rp::sim
