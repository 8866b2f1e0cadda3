// Property sweep over generated worlds: invariants of the offload analysis
// that must hold for any seed — greedy monotonicity, coverage bounds, group
// nesting, and consistency between the greedy curve and direct potentials —
// plus the greedy curve's byte-identity across thread-pool widths.
#include <gtest/gtest.h>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "util/thread_pool.hpp"

namespace rp::offload {
namespace {

core::Scenario make_scenario(std::uint64_t seed) {
  core::ScenarioConfig config;
  config.seed = seed;
  config.membership_scale = 0.08;
  config.topology.tier2_count = 40;
  config.topology.access_count = 120;
  config.topology.content_count = 40;
  config.topology.cdn_count = 6;
  config.topology.nren_count = 5;
  config.topology.enterprise_count = 100;
  return core::Scenario::build(config);
}

class OffloadProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OffloadProperty, GreedyInvariants) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();

  const double total =
      analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps();
  const auto steps = analyzer.greedy_by_traffic(PeerGroup::kAll, 65);

  double cumulative = 0.0;
  double previous_gain = 1e18;
  for (const auto& step : steps) {
    // Gains are positive and non-increasing (diminishing marginal utility).
    EXPECT_GT(step.gained, 0.0);
    EXPECT_LE(step.gained, previous_gain + 1e-6);
    previous_gain = step.gained;
    cumulative += step.gained;
    // Remaining + cumulative == total throughout.
    EXPECT_NEAR(step.remaining + cumulative, total, total * 1e-9 + 1.0);
    EXPECT_GE(step.remaining, -1e-6);
    EXPECT_NEAR(step.remaining,
                step.remaining_inbound_bps + step.remaining_outbound_bps,
                1.0);
  }

  // The greedy total equals the full-reach potential.
  const auto everywhere = analyzer.all_ixps();
  const auto full = analyzer.potential_at(everywhere, PeerGroup::kAll);
  EXPECT_NEAR(cumulative, full.total_bps(), total * 1e-9 + 1.0);
  // The first step equals the best single-IXP potential.
  if (!steps.empty()) {
    double best_single = 0.0;
    for (const auto& ixp : scenario.ecosystem().ixps()) {
      const std::vector<ixp::IxpId> just_this{ixp.id()};
      best_single = std::max(
          best_single,
          analyzer.potential_at(just_this, PeerGroup::kAll).total_bps());
    }
    EXPECT_NEAR(steps.front().gained, best_single, best_single * 1e-9 + 1.0);
  }
}

TEST_P(OffloadProperty, GroupNestingHoldsPerIxp) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();
  // Sampled per-IXP: potentials must be nested across the four groups.
  for (std::size_t i = 0; i < scenario.ecosystem().ixps().size(); i += 7) {
    const std::vector<ixp::IxpId> just_this{
        scenario.ecosystem().ixps()[i].id()};
    double previous = -1.0;
    for (PeerGroup group : {PeerGroup::kOpen, PeerGroup::kOpenTop10Selective,
                            PeerGroup::kOpenSelective, PeerGroup::kAll}) {
      const double bps = analyzer.potential_at(just_this, group).total_bps();
      EXPECT_GE(bps, previous - 1e-9);
      previous = bps;
    }
  }
}

TEST_P(OffloadProperty, CoverageBoundedByEligibleCones) {
  const auto scenario = make_scenario(GetParam());
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const auto study = core::OffloadStudy::run(scenario, config);
  const auto& analyzer = study.analyzer();
  const auto everywhere = analyzer.all_ixps();
  const auto covered = analyzer.covered_endpoints(everywhere, PeerGroup::kAll);

  // Every covered endpoint must sit inside some eligible peer's cone.
  std::unordered_set<net::Asn> cone_union;
  for (net::Asn peer : analyzer.eligible_peers())
    for (net::Asn member : scenario.graph().customer_cone(peer))
      cone_union.insert(member);
  for (net::Asn endpoint : covered)
    EXPECT_TRUE(cone_union.contains(endpoint)) << endpoint.to_string();

  // Excluded entities never appear among eligible peers.
  const auto eligible = analyzer.eligible_peers();
  for (net::Asn provider : scenario.graph().providers_of(scenario.vantage()))
    EXPECT_EQ(std::count(eligible.begin(), eligible.end(), provider), 0);
  EXPECT_EQ(std::count(eligible.begin(), eligible.end(), scenario.vantage()),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OffloadProperty,
                         ::testing::Values(3, 17, 42, 2014));

// The cone masks, the per-IXP coverage masks and every greedy step's gain
// scan fan out over the pool. Each analyzer is built at its own width, so
// all three run at 1 and at 8 threads, and the curves must agree in every
// field of every step.
TEST(OffloadAnalyzer, GreedyCurveIdenticalAcrossThreadWidths) {
  const auto scenario = make_scenario(2014);
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(2);
  const PeerGroup groups[] = {PeerGroup::kOpen, PeerGroup::kOpenTop10Selective,
                              PeerGroup::kOpenSelective, PeerGroup::kAll};
  // curves[w] holds, per group, the traffic curve then the address curve.
  std::vector<std::vector<GreedyStep>> curves[2];
  const unsigned widths[] = {1, 8};
  for (int w = 0; w < 2; ++w) {
    util::ThreadPool::set_global_threads(widths[w]);
    const auto study = core::OffloadStudy::run(scenario, config);
    for (PeerGroup group : groups) {
      curves[w].push_back(study.analyzer().greedy_by_traffic(group, 65));
      curves[w].push_back(study.analyzer().greedy_by_addresses(group, 65));
    }
  }
  util::ThreadPool::set_global_threads(0);

  ASSERT_EQ(curves[0].size(), curves[1].size());
  for (std::size_t c = 0; c < curves[0].size(); ++c) {
    const auto& narrow = curves[0][c];
    const auto& wide = curves[1][c];
    ASSERT_GT(narrow.size(), 1u) << "curve " << c;
    ASSERT_EQ(narrow.size(), wide.size()) << "curve " << c;
    for (std::size_t i = 0; i < narrow.size(); ++i) {
      EXPECT_EQ(narrow[i].ixp_id, wide[i].ixp_id) << c << " step " << i;
      EXPECT_EQ(narrow[i].acronym, wide[i].acronym) << c << " step " << i;
      EXPECT_EQ(narrow[i].gained, wide[i].gained) << c << " step " << i;
      EXPECT_EQ(narrow[i].remaining, wide[i].remaining) << c << " step " << i;
      EXPECT_EQ(narrow[i].remaining_inbound_bps, wide[i].remaining_inbound_bps)
          << c << " step " << i;
      EXPECT_EQ(narrow[i].remaining_outbound_bps,
                wide[i].remaining_outbound_bps)
          << c << " step " << i;
    }
  }
}

}  // namespace
}  // namespace rp::offload
