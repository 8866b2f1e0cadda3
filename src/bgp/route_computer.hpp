// Valley-free (Gao-Rexford) route computation over the AS graph.
//
// Routing policy follows the canonical economic model:
//   * Preference: customer-learned > peer-learned > provider-learned routes,
//     then shorter AS path, then lower next-hop ASN (deterministic tiebreak).
//   * Export: customer routes are announced to everyone; peer- and
//     provider-learned routes are announced only to customers.
// The export rule is what confines peering traffic to the peers and their
// customer cones (§2.2) — the exact property the offload analysis relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/route.hpp"
#include "topology/as_graph.hpp"

namespace rp::bgp {

/// Best routes of every AS toward one destination AS, indexed by the
/// AsGraph's node index.
class DestinationRoutes {
 public:
  DestinationRoutes(const topology::AsGraph& graph, net::Asn destination,
                    std::vector<RouteSource> source, std::vector<unsigned> hops,
                    std::vector<std::int32_t> next_hop,
                    std::vector<bool> reachable);

  net::Asn destination() const { return destination_; }

  bool reachable_from(net::Asn asn) const;
  RouteSource source_at(net::Asn asn) const;
  unsigned path_length_from(net::Asn asn) const;

  /// The full route from `asn`; nullopt if the destination is unreachable
  /// under valley-free policy.
  std::optional<Route> route_from(net::Asn asn) const;

 private:
  const topology::AsGraph* graph_;
  net::Asn destination_;
  std::vector<RouteSource> source_;
  std::vector<unsigned> hops_;
  std::vector<std::int32_t> next_hop_;  ///< node index; -1 for none/self.
  std::vector<bool> reachable_;
};

/// Computes valley-free routes on a fixed graph. The graph must outlive the
/// computer and must not gain ASes or links while the computer is in use
/// (adjacency is indexed once at construction so that the per-destination
/// pass is free of hash lookups).
class RouteComputer {
 public:
  explicit RouteComputer(const topology::AsGraph& graph);

  /// Best route of every AS toward `destination`. O(V + E): a level-by-level
  /// BFS up provider edges, one pass over the peers of the ASes it reached,
  /// and a level-by-level BFS down customer edges. Ties at equal hops go to
  /// the lower next-hop ASN.
  DestinationRoutes routes_to(net::Asn destination) const;

  /// Convenience: the single route from `source` toward `destination`.
  std::optional<Route> route(net::Asn source, net::Asn destination) const;

 private:
  const topology::AsGraph* graph_;
  /// Adjacency by node index, in the graph's node order.
  std::vector<std::vector<std::uint32_t>> providers_;
  std::vector<std::vector<std::uint32_t>> customers_;
  std::vector<std::vector<std::uint32_t>> peers_;
  std::vector<std::uint32_t> asn_values_;  ///< ASN value per node index.
};

}  // namespace rp::bgp
