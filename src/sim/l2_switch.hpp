// A learning Ethernet switch — the IXP fabric.
//
// Standard transparent-bridge behavior: learn the source MAC per ingress
// port, forward to the learned port, flood unknown unicast and broadcast.
// The peering LAN of every simulated IXP is one (or a few interconnected)
// instance(s) of this switch; a remote member's pseudowire terminates on a
// port just like a co-located member's cross-connect, which is precisely why
// remoteness is invisible at layers 2-3 and must be inferred from delay.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "sim/link.hpp"

namespace rp::sim {

class L2Switch : public Device {
 public:
  explicit L2Switch(std::string name) : Device(std::move(name)) {}

  void receive(std::size_t ifindex, const EthernetFrame& frame) override;
  std::size_t allocate_interface() override { return port_count_++; }

  std::size_t port_count() const { return port_count_; }
  std::size_t mac_table_size() const { return mac_table_.size(); }
  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_flooded() const { return frames_flooded_; }

 private:
  std::size_t port_count_ = 0;
  std::unordered_map<net::MacAddr, std::size_t> mac_table_;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_flooded_ = 0;
};

/// Frame totals of one fabric after a run: floods and forwards of its
/// switches (one per frame a switch handled, however many ports a flood
/// reached), deliveries and drops of every link (one per copy). Folded from
/// the per-instance counters after the run, so the per-frame path pays
/// nothing, and a pure function of the run's inputs.
struct FrameTotals {
  std::uint64_t flooded = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  static FrameTotals of(const Network& network,
                        std::span<const L2Switch* const> switches);

  /// Adds the totals to the deterministic rp.sim.frames.{flooded,forwarded,
  /// delivered,dropped} counters (no-op while metrics are disabled).
  void record() const;
};

}  // namespace rp::sim
