#include "layer2/entity_path.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "bgp/route_computer.hpp"
#include "util/thread_pool.hpp"

namespace rp::layer2 {

std::string to_string(EntityKind kind) {
  switch (kind) {
    case EntityKind::kAs: return "AS";
    case EntityKind::kIxp: return "IXP";
    case EntityKind::kRemotePeeringProvider: return "remote-peering-provider";
  }
  return "unknown";
}

std::size_t EntityPath::l3_intermediaries() const {
  return static_cast<std::size_t>(
      std::count_if(intermediaries.begin(), intermediaries.end(),
                    [](const PathEntity& e) {
                      return e.kind == EntityKind::kAs;
                    }));
}

std::size_t EntityPath::invisible_intermediaries() const {
  return static_cast<std::size_t>(
      std::count_if(intermediaries.begin(), intermediaries.end(),
                    [](const PathEntity& e) { return e.invisible_on_l3; }));
}

PathEntity EntityPathAnalyzer::as_entity(net::Asn asn) const {
  PathEntity entity;
  entity.kind = EntityKind::kAs;
  entity.asn = asn;
  entity.name = graph_->contains(asn) ? graph_->node(asn).name
                                      : asn.to_string();
  entity.invisible_on_l3 = false;
  return entity;
}

EntityPath EntityPathAnalyzer::from_bgp_route(const bgp::Route& route) const {
  // Hops of a transit (or private-peering) path are private interconnects:
  // the organizations on the path are exactly the intermediate ASes.
  EntityPath path;
  if (route.as_path.size() <= 1) return path;  // Direct or origin.
  for (std::size_t i = 0; i + 1 < route.as_path.size(); ++i)
    path.intermediaries.push_back(as_entity(route.as_path[i]));
  return path;
}

EntityPath EntityPathAnalyzer::via_peering(const PeeringMediation& mediation,
                                           net::Asn peer,
                                           const bgp::Route& tail) const {
  EntityPath path;
  auto add_circuit = [this, &path](ixp::AttachmentKind kind,
                                   const std::optional<std::size_t>& provider) {
    if (kind == ixp::AttachmentKind::kRemoteViaProvider) {
      PathEntity entity;
      entity.kind = EntityKind::kRemotePeeringProvider;
      entity.invisible_on_l3 = true;
      entity.name = provider && *provider < ecosystem_->providers().size()
                        ? ecosystem_->providers()[*provider].name
                        : "remote-peering-provider";
      path.intermediaries.push_back(std::move(entity));
    } else if (kind == ixp::AttachmentKind::kPartnerIxp) {
      PathEntity entity;
      entity.kind = EntityKind::kRemotePeeringProvider;
      entity.invisible_on_l3 = true;
      entity.name = "partner-ixp-interconnect";
      path.intermediaries.push_back(std::move(entity));
    }
    // Direct colo / IP transport: the member has IP presence at the IXP;
    // no additional organization mediates the hop.
  };

  // Source side circuit, then the exchange itself, then the peer's side.
  add_circuit(mediation.left_kind, mediation.left_provider);
  {
    PathEntity entity;
    entity.kind = EntityKind::kIxp;
    entity.invisible_on_l3 = true;  // The fabric does not appear in BGP.
    entity.name = ecosystem_->ixp(mediation.ixp_id).acronym();
    path.intermediaries.push_back(std::move(entity));
  }
  add_circuit(mediation.right_kind, mediation.right_provider);

  // The peer itself mediates unless it is the destination, then the tail's
  // intermediate ASes.
  const bool peer_is_destination = tail.as_path.empty();
  if (!peer_is_destination) {
    path.intermediaries.push_back(as_entity(peer));
    for (std::size_t i = 0; i + 1 < tail.as_path.size(); ++i)
      path.intermediaries.push_back(as_entity(tail.as_path[i]));
  }
  return path;
}

FlatteningStudy::FlatteningStudy(const topology::AsGraph& graph,
                                 const ixp::IxpEcosystem& ecosystem,
                                 net::Asn vantage, const bgp::Rib& vantage_rib,
                                 const offload::OffloadAnalyzer& analyzer)
    : graph_(&graph),
      ecosystem_(&ecosystem),
      vantage_(vantage),
      rib_(&vantage_rib),
      analyzer_(&analyzer),
      paths_(graph, ecosystem) {}

namespace {

/// The vantage's cheapest remote-peering circuit into an IXP: provider
/// index, or nullopt if the ecosystem has no providers.
std::optional<std::size_t> cheapest_provider(
    const ixp::IxpEcosystem& ecosystem, const geo::City& from,
    const geo::City& to) {
  std::optional<std::size_t> best;
  util::SimDuration best_delay = util::SimDuration::days(365);
  for (std::size_t i = 0; i < ecosystem.providers().size(); ++i) {
    const auto delay = ecosystem.providers()[i].circuit_delay(from, to);
    if (delay < best_delay) {
      best_delay = delay;
      best = i;
    }
  }
  return best;
}

/// The peer's attachment at the IXP (first interface).
const ixp::MemberInterface* attachment_of(const ixp::Ixp& ixp, net::Asn peer) {
  for (const auto& iface : ixp.interfaces())
    if (iface.asn == peer) return &iface;
  return nullptr;
}

/// The carrying peer among (peer, IXP) candidates toward the destination of
/// `routes`: the shortest customer or origin tail (peering traffic stays in
/// the peer's customer cone, §2.2), ties toward the lower peer ASN, and the
/// earlier candidate among repeats of one peer.
std::optional<FlatteningStudy::Assignment> choose_carrier(
    const bgp::DestinationRoutes& routes,
    std::span<const std::pair<net::Asn, ixp::IxpId>> candidates) {
  const std::pair<net::Asn, ixp::IxpId>* chosen = nullptr;
  unsigned best_hops = std::numeric_limits<unsigned>::max();
  for (const auto& candidate : candidates) {
    if (!routes.reachable_from(candidate.first)) continue;
    const bgp::RouteSource source = routes.source_at(candidate.first);
    if (source != bgp::RouteSource::kOrigin &&
        source != bgp::RouteSource::kCustomer)
      continue;
    const unsigned hops = routes.path_length_from(candidate.first);
    if (hops < best_hops || (hops == best_hops && chosen != nullptr &&
                             candidate.first < chosen->first)) {
      best_hops = hops;
      chosen = &candidate;
    }
  }
  if (chosen == nullptr) return std::nullopt;
  return FlatteningStudy::Assignment{chosen->first, chosen->second,
                                     *routes.route_from(chosen->first)};
}

}  // namespace

std::optional<FlatteningStudy::Assignment> FlatteningStudy::assignment_for(
    net::Asn endpoint, std::span<const ixp::IxpId> ixps,
    offload::PeerGroup group) const {
  std::unordered_set<net::Asn> group_peers;
  for (net::Asn peer : analyzer_->peers_in_group(group))
    group_peers.insert(peer);
  std::vector<std::pair<net::Asn, ixp::IxpId>> candidates;
  for (ixp::IxpId id : ixps)
    for (net::Asn member : ecosystem_->ixp(id).member_asns())
      if (group_peers.contains(member)) candidates.emplace_back(member, id);

  const bgp::RouteComputer computer(*graph_);
  return choose_carrier(computer.routes_to(endpoint), candidates);
}

FlatteningReport FlatteningStudy::compare(std::span<const ixp::IxpId> ixps,
                                          offload::PeerGroup group) const {
  // Candidate (peer, first IXP in span order) pairs per offloadable
  // endpoint: expand the cones of every group peer present at a reached IXP.
  std::unordered_set<net::Asn> group_peers;
  for (net::Asn peer : analyzer_->peers_in_group(group))
    group_peers.insert(peer);
  std::unordered_map<net::Asn, std::vector<std::pair<net::Asn, ixp::IxpId>>>
      candidates;
  std::unordered_set<net::Asn> peer_seen;
  for (ixp::IxpId id : ixps) {
    for (net::Asn member : ecosystem_->ixp(id).member_asns()) {
      if (!group_peers.contains(member)) continue;
      if (!peer_seen.insert(member).second) continue;  // First IXP wins.
      for (net::Asn in_cone : graph_->customer_cone(member))
        candidates[in_cone].emplace_back(member, id);
    }
  }

  const bgp::RouteComputer computer(*graph_);
  const geo::City& home = graph_->node(vantage_).home_city;

  // Each endpoint's (before, after) paths are independent: compute them on
  // the pool, then fold the report serially in endpoint order.
  const auto& endpoints = analyzer_->transit_endpoints();
  const auto flows = util::ThreadPool::global().parallel_transform(
      endpoints.size(),
      [&](std::size_t i) -> std::optional<std::pair<EntityPath, EntityPath>> {
        const net::Asn endpoint = endpoints[i].asn;
        const auto candidate_it = candidates.find(endpoint);
        if (candidate_it == candidates.end()) return std::nullopt;
        const bgp::Route* before_route = rib_->route_to(endpoint);
        if (before_route == nullptr) return std::nullopt;
        const auto chosen =
            choose_carrier(computer.routes_to(endpoint), candidate_it->second);
        if (!chosen) return std::nullopt;

        // After: the vantage reaches the IXP remotely; the peer attaches as
        // its membership record says.
        const ixp::Ixp& ixp = ecosystem_->ixp(chosen->ixp_id);
        PeeringMediation mediation;
        mediation.ixp_id = chosen->ixp_id;
        mediation.left_kind = ixp::AttachmentKind::kRemoteViaProvider;
        mediation.left_provider =
            cheapest_provider(*ecosystem_, home, ixp.city());
        if (const auto* iface = attachment_of(ixp, chosen->peer)) {
          mediation.right_kind = iface->kind;
          mediation.right_provider = iface->provider_index;
        }
        return std::pair{paths_.from_bgp_route(*before_route),
                         paths_.via_peering(mediation, chosen->peer,
                                            chosen->tail)};
      });

  FlatteningReport report;
  for (const auto& flow : flows) {
    if (!flow) continue;
    const auto& [before, after] = *flow;
    ++report.flows;
    report.mean_l3_before += static_cast<double>(before.l3_intermediaries());
    report.mean_l3_after += static_cast<double>(after.l3_intermediaries());
    report.mean_org_before +=
        static_cast<double>(before.organization_intermediaries());
    report.mean_org_after +=
        static_cast<double>(after.organization_intermediaries());
    report.mean_invisible_after +=
        static_cast<double>(after.invisible_intermediaries());
    if (after.l3_intermediaries() < before.l3_intermediaries())
      ++report.l3_flatter;
    if (after.organization_intermediaries() >=
        before.organization_intermediaries())
      ++report.org_not_flatter;
    if (after.invisible_intermediaries() > 0)
      ++report.with_invisible_intermediaries;
  }

  if (report.flows > 0) {
    const double n = static_cast<double>(report.flows);
    report.mean_l3_before /= n;
    report.mean_l3_after /= n;
    report.mean_org_before /= n;
    report.mean_org_after /= n;
    report.mean_invisible_after /= n;
  }
  return report;
}

}  // namespace rp::layer2
