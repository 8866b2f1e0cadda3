#include "bgp/route_computer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace rp::bgp {

std::string to_string(RouteSource s) {
  switch (s) {
    case RouteSource::kOrigin: return "origin";
    case RouteSource::kCustomer: return "customer";
    case RouteSource::kPeer: return "peer";
    case RouteSource::kProvider: return "provider";
  }
  return "unknown";
}

DestinationRoutes::DestinationRoutes(const topology::AsGraph& graph,
                                     net::Asn destination,
                                     std::vector<RouteSource> source,
                                     std::vector<unsigned> hops,
                                     std::vector<std::int32_t> next_hop,
                                     std::vector<bool> reachable)
    : graph_(&graph),
      destination_(destination),
      source_(std::move(source)),
      hops_(std::move(hops)),
      next_hop_(std::move(next_hop)),
      reachable_(std::move(reachable)) {}

bool DestinationRoutes::reachable_from(net::Asn asn) const {
  return reachable_[graph_->index_of(asn)];
}

RouteSource DestinationRoutes::source_at(net::Asn asn) const {
  const std::size_t i = graph_->index_of(asn);
  if (!reachable_[i])
    throw std::out_of_range("DestinationRoutes: unreachable from " +
                            asn.to_string());
  return source_[i];
}

unsigned DestinationRoutes::path_length_from(net::Asn asn) const {
  const std::size_t i = graph_->index_of(asn);
  if (!reachable_[i])
    throw std::out_of_range("DestinationRoutes: unreachable from " +
                            asn.to_string());
  return hops_[i];
}

std::optional<Route> DestinationRoutes::route_from(net::Asn asn) const {
  std::size_t i = graph_->index_of(asn);
  if (!reachable_[i]) return std::nullopt;
  Route route;
  route.destination = destination_;
  route.source = source_[i];
  while (next_hop_[i] >= 0) {
    i = static_cast<std::size_t>(next_hop_[i]);
    route.as_path.push_back(graph_->nodes()[i].asn);
  }
  return route;
}

RouteComputer::RouteComputer(const topology::AsGraph& graph)
    : graph_(&graph) {
  const std::size_t n = graph.as_count();
  providers_.resize(n);
  customers_.resize(n);
  peers_.resize(n);
  asn_values_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::Asn asn = graph.nodes()[i].asn;
    asn_values_[i] = asn.value();
    for (net::Asn p : graph.providers_of(asn))
      providers_[i].push_back(static_cast<std::uint32_t>(graph.index_of(p)));
    for (net::Asn c : graph.customers_of(asn))
      customers_[i].push_back(static_cast<std::uint32_t>(graph.index_of(c)));
    for (net::Asn p : graph.peers_of(asn))
      peers_[i].push_back(static_cast<std::uint32_t>(graph.index_of(p)));
  }
}

DestinationRoutes RouteComputer::routes_to(net::Asn destination) const {
  const auto& graph = *graph_;
  const std::size_t n = graph.as_count();
  constexpr unsigned kUnset = std::numeric_limits<unsigned>::max();

  std::vector<RouteSource> source(n, RouteSource::kProvider);
  std::vector<unsigned> hops(n, kUnset);  // kUnset: no route (yet).
  std::vector<std::int32_t> next(n, -1);

  const std::size_t dest_index = graph.index_of(destination);
  source[dest_index] = RouteSource::kOrigin;
  hops[dest_index] = 0;

  // Phase 1 — customer routes ripple *up* the provider hierarchy: an AS that
  // reaches the destination through a customer announces it to everyone,
  // including its own providers. Level-synchronous BFS; ties between equal-
  // level parents break toward the lower parent ASN.
  // Every AS phases 1 and 2 give a route, in the order they find it.
  std::vector<std::uint32_t> routed{static_cast<std::uint32_t>(dest_index)};
  for (std::size_t first = 0, last = 1; first < last;
       first = last, last = routed.size()) {
    for (std::size_t k = first; k < last; ++k) {
      const std::uint32_t x = routed[k];
      for (std::uint32_t p : providers_[x]) {
        if (hops[p] == kUnset) {
          source[p] = RouteSource::kCustomer;
          hops[p] = hops[x] + 1;
          next[p] = static_cast<std::int32_t>(x);
          routed.push_back(p);
        } else if (source[p] == RouteSource::kCustomer &&
                   hops[p] == hops[x] + 1 &&
                   asn_values_[x] <
                       asn_values_[static_cast<std::size_t>(next[p])]) {
          next[p] = static_cast<std::int32_t>(x);  // Same level, lower ASN.
        }
      }
    }
  }

  // Phase 2 — peer routes: one settlement-free edge at the top of the path.
  // Only customer routes (or origination) may be announced across a peering
  // edge, so each AS without one takes the shortest such route among its
  // peers, ties toward the lower peer ASN.
  const std::size_t customer_routes = routed.size();
  for (std::size_t k = 0; k < customer_routes; ++k) {
    const std::uint32_t y = routed[k];
    const unsigned candidate_hops = hops[y] + 1;
    for (std::uint32_t x : peers_[y]) {
      if (hops[x] == kUnset) {
        source[x] = RouteSource::kPeer;
        hops[x] = candidate_hops;
        next[x] = static_cast<std::int32_t>(y);
        routed.push_back(x);
      } else if (source[x] == RouteSource::kPeer &&
                 (candidate_hops < hops[x] ||
                  (candidate_hops == hops[x] &&
                   asn_values_[y] <
                       asn_values_[static_cast<std::size_t>(next[x])]))) {
        hops[x] = candidate_hops;
        next[x] = static_cast<std::int32_t>(y);
      }
    }
  }

  // Phase 3 — provider routes ripple *down* customer edges: any AS with a
  // route announces it to its customers. Edge weights are all 1, so this is
  // a multi-source BFS over hop levels: sources join the frontier at their
  // own depth, and level h settles every unreached customer of level h - 1,
  // each toward its lowest-ASN parent at that level. A Dijkstra heap keyed
  // by (hops, parent ASN) pops in exactly this order, so the routes equal
  // what the heap would produce — in O(V + E). The phase 1/2 routes are
  // the sources, counting-sorted by hops.
  unsigned max_hops = 0;
  for (std::uint32_t x : routed) max_hops = std::max(max_hops, hops[x]);
  std::vector<std::size_t> slot(max_hops + 2, 0);
  for (std::uint32_t x : routed) ++slot[hops[x] + 1];
  std::partial_sum(slot.begin(), slot.end(), slot.begin());
  std::vector<std::uint32_t> sources(routed.size());
  for (std::uint32_t x : routed) sources[slot[hops[x]]++] = x;
  std::size_t next_source = 0;
  std::vector<std::uint32_t> settled;  // Phase-3 routes of the last level.
  std::vector<std::uint32_t> settling;
  settled.reserve(n);
  settling.reserve(n);
  for (unsigned h = 1; next_source < sources.size() || !settled.empty(); ++h) {
    auto offer = [&](std::uint32_t x) {
      for (std::uint32_t c : customers_[x]) {
        if (hops[c] == kUnset) {
          source[c] = RouteSource::kProvider;
          hops[c] = h;
          next[c] = static_cast<std::int32_t>(x);
          settling.push_back(c);
        } else if (source[c] == RouteSource::kProvider && hops[c] == h &&
                   asn_values_[x] <
                       asn_values_[static_cast<std::size_t>(next[c])]) {
          next[c] = static_cast<std::int32_t>(x);  // Same level, lower ASN.
        }
      }
    };
    for (; next_source < sources.size() && hops[sources[next_source]] < h;
         ++next_source)
      offer(sources[next_source]);
    for (std::uint32_t x : settled) offer(x);
    settled.swap(settling);
    settling.clear();
  }

  std::vector<bool> reachable(n);
  for (std::size_t x = 0; x < n; ++x) reachable[x] = hops[x] != kUnset;
  return DestinationRoutes(graph, destination, std::move(source),
                           std::move(hops), std::move(next),
                           std::move(reachable));
}

std::optional<Route> RouteComputer::route(net::Asn source,
                                          net::Asn destination) const {
  return routes_to(destination).route_from(source);
}

}  // namespace rp::bgp
