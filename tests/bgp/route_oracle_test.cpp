// RouteComputer against a heap-based oracle. The oracle settles provider
// routes with a Dijkstra heap keyed by (hops, parent ASN) — the definition
// of the tie-break — while routes_to walks hop levels in linear time. For
// every destination on several generated worlds, both must agree on each
// AS's route source, hop count and full AS path.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <vector>

#include "bgp/route_computer.hpp"
#include "topology/generator.hpp"

namespace rp::bgp {
namespace {

constexpr unsigned kUnset = std::numeric_limits<unsigned>::max();

struct OracleRoutes {
  std::vector<RouteSource> source;
  std::vector<unsigned> hops;  ///< kUnset when unreachable.
  std::vector<std::int32_t> next;
};

OracleRoutes oracle_routes_to(const topology::AsGraph& graph,
                              net::Asn destination) {
  const std::size_t n = graph.as_count();
  const auto& nodes = graph.nodes();
  auto index = [&graph](net::Asn asn) { return graph.index_of(asn); };
  auto asn_of = [&nodes](std::size_t i) { return nodes[i].asn.value(); };
  OracleRoutes r{std::vector<RouteSource>(n, RouteSource::kProvider),
                 std::vector<unsigned>(n, kUnset),
                 std::vector<std::int32_t>(n, -1)};
  const std::size_t d = index(destination);
  r.source[d] = RouteSource::kOrigin;
  r.hops[d] = 0;

  // Customer routes, level by level up provider edges.
  std::vector<std::size_t> level{d};
  while (!level.empty()) {
    std::vector<std::size_t> next_level;
    for (std::size_t x : level) {
      for (net::Asn p_asn : graph.providers_of(nodes[x].asn)) {
        const std::size_t p = index(p_asn);
        if (r.hops[p] == kUnset) {
          r.source[p] = RouteSource::kCustomer;
          r.hops[p] = r.hops[x] + 1;
          r.next[p] = static_cast<std::int32_t>(x);
          next_level.push_back(p);
        } else if (r.source[p] == RouteSource::kCustomer &&
                   r.hops[p] == r.hops[x] + 1 &&
                   asn_of(x) < asn_of(static_cast<std::size_t>(r.next[p]))) {
          r.next[p] = static_cast<std::int32_t>(x);
        }
      }
    }
    level = std::move(next_level);
  }

  // Peer routes: one peering edge onto a customer or origin route.
  for (std::size_t x = 0; x < n; ++x) {
    if (r.hops[x] != kUnset) continue;
    std::int32_t best = -1;
    unsigned best_hops = kUnset;
    for (net::Asn y_asn : graph.peers_of(nodes[x].asn)) {
      const std::size_t y = index(y_asn);
      if (r.hops[y] == kUnset || r.source[y] == RouteSource::kPeer) continue;
      const unsigned h = r.hops[y] + 1;
      if (h < best_hops ||
          (h == best_hops && asn_of(y) < asn_of(static_cast<std::size_t>(best)))) {
        best_hops = h;
        best = static_cast<std::int32_t>(y);
      }
    }
    if (best >= 0) {
      r.source[x] = RouteSource::kPeer;
      r.hops[x] = best_hops;
      r.next[x] = best;
    }
  }

  // Provider routes: Dijkstra down customer edges, popping (hops, parent
  // ASN) in ascending order.
  using Entry = std::tuple<unsigned, std::uint32_t, std::size_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  auto push_customers = [&](std::size_t x) {
    for (net::Asn c_asn : graph.customers_of(nodes[x].asn)) {
      const std::size_t c = index(c_asn);
      if (r.hops[c] == kUnset) heap.emplace(r.hops[x] + 1, asn_of(x), x, c);
    }
  };
  for (std::size_t x = 0; x < n; ++x)
    if (r.hops[x] != kUnset) push_customers(x);
  while (!heap.empty()) {
    const auto [h, parent_asn, parent, x] = heap.top();
    heap.pop();
    if (r.hops[x] != kUnset) continue;
    r.source[x] = RouteSource::kProvider;
    r.hops[x] = h;
    r.next[x] = static_cast<std::int32_t>(parent);
    push_customers(x);
  }
  return r;
}

topology::AsGraph generated(std::uint64_t seed) {
  topology::GeneratorConfig config;
  config.tier1_count = 4;
  config.tier2_count = 24;
  config.access_count = 80;
  config.content_count = 20;
  config.cdn_count = 4;
  config.nren_count = 5;
  config.enterprise_count = 60;
  util::Rng rng(seed);
  return topology::generate_topology(config, rng);
}

class RouteOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteOracle, EveryRouteMatchesTheHeapOracle) {
  const auto graph = generated(GetParam());
  const auto& nodes = graph.nodes();
  const RouteComputer computer(graph);
  std::size_t provider_routes = 0;
  for (const auto& dest : nodes) {
    const auto routes = computer.routes_to(dest.asn);
    const OracleRoutes expected = oracle_routes_to(graph, dest.asn);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const net::Asn src = nodes[i].asn;
      const auto route = routes.route_from(src);
      ASSERT_EQ(route.has_value(), expected.hops[i] != kUnset)
          << src.to_string() << " -> " << dest.asn.to_string();
      if (!route) continue;
      ASSERT_EQ(route->source, expected.source[i]);
      ASSERT_EQ(routes.path_length_from(src), expected.hops[i]);
      std::vector<net::Asn> path;
      for (std::int32_t j = expected.next[i]; j >= 0;
           j = expected.next[static_cast<std::size_t>(j)])
        path.push_back(nodes[static_cast<std::size_t>(j)].asn);
      ASSERT_EQ(route->as_path, path)
          << src.to_string() << " -> " << dest.asn.to_string();
      if (route->source == RouteSource::kProvider) ++provider_routes;
    }
  }
  // The sweep must exercise phase 3, not just customer and peer routes.
  EXPECT_GT(provider_routes, nodes.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteOracle, ::testing::Values(3, 17, 1234));

}  // namespace
}  // namespace rp::bgp
