// Multi-site IXP fabrics (§3.1, "IXPs with multiple locations"): probes
// from an LG at one site to a member at another cross metro trunks; the
// classifier's 10 ms threshold must absorb that without false positives,
// and the LG-consistent filter must tolerate LGs at different sites.
#include <gtest/gtest.h>

#include "measure/campaign.hpp"
#include "measure/classifier.hpp"
#include "measure/filters.hpp"
#include "test_worlds.hpp"

namespace rp::measure {
namespace {

using test_worlds::city;
using test_worlds::multi_site_ixp;

CampaignConfig clean_campaign() {
  CampaignConfig config;
  config.length = util::SimDuration::days(4);
  config.queries_per_pch_lg = 4;
  config.queries_per_ripe_lg = 3;
  config.faults = FaultPlanConfig{};
  config.faults.blackhole_rate = 0.0;
  config.faults.absent_rate = 0.0;
  config.faults.ttl_switch_rate = 0.0;
  config.faults.odd_ttl_rate = 0.0;
  config.faults.proxy_reply_rate = 0.0;
  config.faults.persistent_congestion_rate = 0.0;
  config.faults.lg_asymmetry_rate = 0.0;
  config.faults.asn_change_rate = 0.0;
  config.faults.unidentified_rate = 0.0;
  config.faults.lossy_rate = 0.0;
  return config;
}

TEST(MultiSite, SetSiteCountValidates) {
  ixp::Ixp ixp(0, "X", "X", city("Moscow"), 1.0,
               *net::Ipv4Prefix::parse("198.18.4.0/24"));
  EXPECT_EQ(ixp.site_count(), 1);
  ixp.set_site_count(3);
  EXPECT_EQ(ixp.site_count(), 3);
  EXPECT_THROW(ixp.set_site_count(0), std::invalid_argument);
}

TEST(MultiSite, TestbedBuildsOneSwitchPerSite) {
  const auto ixp = multi_site_ixp(3, 4, 0);
  const FaultPlan no_faults;
  IxpTestbed testbed(ixp, no_faults, TestbedConfig{}, util::SimTime::origin(),
                     util::SimDuration::days(1), util::Rng(1));
  EXPECT_EQ(testbed.site_count(), 3u);
}

TEST(MultiSite, NoFalsePositivesAcrossMetroTrunks) {
  // 24 direct members spread over 3 sites, probed from LGs at two different
  // sites: every minimum RTT must stay far below the 10 ms threshold.
  const auto ixp = multi_site_ixp(3, 24, 0);
  util::Rng rng(7);
  const auto raw = run_ixp_campaign(ixp, clean_campaign(), rng);
  const auto analysis = apply_filters(raw, FilterConfig{});
  const ClassifierConfig classifier;
  EXPECT_EQ(analysis.analyzed_count(), 24u);
  for (const auto& iface : analysis.interfaces) {
    ASSERT_TRUE(iface.analyzed()) << iface.addr.to_string();
    EXPECT_FALSE(is_remote(iface.min_rtt, classifier))
        << iface.min_rtt.to_string();
    // Metro trunks add well under 2 ms round trip.
    EXPECT_LT(iface.min_rtt.as_millis_f(), 5.0);
  }
}

TEST(MultiSite, LgConsistencySurvivesCrossSiteLgs) {
  // The PCH LG sits at site 0 and the RIPE LG at the far site; their minima
  // differ by at most the trunk RTT, far inside the max(5ms, 10%) margin,
  // so no interface may be discarded as LG-inconsistent.
  const auto ixp = multi_site_ixp(3, 12, 3);
  util::Rng rng(8);
  const auto raw = run_ixp_campaign(ixp, clean_campaign(), rng);
  const auto analysis = apply_filters(raw, FilterConfig{});
  EXPECT_EQ(analysis.discard_counts[static_cast<std::size_t>(
                Filter::kLgConsistent)], 0u);
}

TEST(MultiSite, RemoteMembersStillDetected) {
  const auto ixp = multi_site_ixp(2, 6, 4);
  util::Rng rng(9);
  const auto raw = run_ixp_campaign(ixp, clean_campaign(), rng);
  const auto analysis = apply_filters(raw, FilterConfig{});
  const ClassifierConfig classifier;
  std::size_t remote = 0;
  for (const auto& iface : analysis.interfaces) {
    ASSERT_TRUE(iface.analyzed());
    if (is_remote(iface.min_rtt, classifier)) {
      ++remote;
      EXPECT_TRUE(iface.truth_remote);
    }
  }
  EXPECT_EQ(remote, 4u);
}

}  // namespace
}  // namespace rp::measure
