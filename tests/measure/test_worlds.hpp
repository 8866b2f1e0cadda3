// IXP worlds shared by the campaign tests: a 56-IXP batch world with both
// LG kinds and a local/remote member mix, and a multi-site exchange whose
// LGs sit at different sites.
#pragma once

#include <string>
#include <vector>

#include "geo/cities.hpp"
#include "ixp/ixp.hpp"
#include "net/subnet_allocator.hpp"

namespace rp::measure::test_worlds {

inline const geo::City& city(const char* name) {
  return geo::CityRegistry::world().at(name);
}

/// A small but non-trivial world: 56 IXPs (the acceptance bar is >= 50),
/// each with both LG kinds and a local/remote member mix.
inline std::vector<ixp::Ixp> batch_world() {
  const char* const cities[] = {"Amsterdam", "London",   "Frankfurt",
                                "Budapest",  "New York", "Hong Kong",
                                "Tokyo"};
  std::vector<ixp::Ixp> ixps;
  for (std::uint32_t i = 0; i < 56; ++i) {
    const char* home = cities[i % 5];  // IXPs sit in the first five cities.
    ixp::Ixp ixp{i, "IX" + std::to_string(i), "Exchange " + std::to_string(i),
                 city(home), 0.5,
                 net::Ipv4Prefix::make(net::Ipv4Addr(198, 18, i, 0), 24)};
    net::HostAllocator addrs{ixp.peering_lan()};
    ixp.add_looking_glass(ixp::LookingGlass::pch(addrs.allocate()));
    ixp.add_looking_glass(ixp::LookingGlass::ripe(addrs.allocate()));
    std::uint32_t serial = 1;
    for (std::uint32_t m = 0; m < 3 + i % 3; ++m) {
      ixp::MemberInterface iface;
      iface.asn = net::Asn{64500 + 100 * i + m};
      iface.addr = addrs.allocate();
      iface.mac = net::MacAddr::from_id(1000 * i + serial++);
      if (m % 3 == 2) {
        iface.kind = ixp::AttachmentKind::kRemoteViaProvider;
        iface.equipment_city = city(cities[(i + m) % 7]);
        iface.circuit_one_way = geo::propagation_delay(
            iface.equipment_city.position, ixp.city().position, 1.5);
      } else {
        iface.kind = ixp::AttachmentKind::kDirectColo;
        iface.equipment_city = ixp.city();
      }
      ixp.add_interface(iface);
    }
    ixps.push_back(std::move(ixp));
  }
  return ixps;
}

/// One exchange in Moscow spread over `sites` switches, with co-located
/// members and members remote in Frankfurt.
inline ixp::Ixp multi_site_ixp(int sites, int direct_members,
                               int remote_members) {
  ixp::Ixp ixp(0, "MULTI", "Multi-site Exchange", city("Moscow"), 1.3,
               *net::Ipv4Prefix::parse("198.18.4.0/24"));
  ixp.set_site_count(sites);
  net::HostAllocator addrs(ixp.peering_lan());
  ixp.add_looking_glass(ixp::LookingGlass::pch(addrs.allocate()));
  ixp.add_looking_glass(ixp::LookingGlass::ripe(addrs.allocate()));
  std::uint32_t serial = 1;
  for (int i = 0; i < direct_members; ++i) {
    ixp::MemberInterface iface;
    iface.asn = net::Asn{1000 + serial};
    iface.addr = addrs.allocate();
    iface.mac = net::MacAddr::from_id(serial++);
    iface.kind = ixp::AttachmentKind::kDirectColo;
    iface.equipment_city = ixp.city();
    ixp.add_interface(iface);
  }
  for (int i = 0; i < remote_members; ++i) {
    ixp::MemberInterface iface;
    iface.asn = net::Asn{2000 + serial};
    iface.addr = addrs.allocate();
    iface.mac = net::MacAddr::from_id(serial++);
    iface.kind = ixp::AttachmentKind::kRemoteViaProvider;
    iface.equipment_city = city("Frankfurt");
    iface.circuit_one_way = geo::propagation_delay(
        iface.equipment_city.position, ixp.city().position, 1.5);
    ixp.add_interface(iface);
  }
  return ixp;
}

}  // namespace rp::measure::test_worlds
