// The flattening analysis against a full generated scenario: the paper's
// headline must hold for any seed, not just hand-built examples.
#include <gtest/gtest.h>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "layer2/entity_path.hpp"
#include "layer2/risk.hpp"
#include "util/thread_pool.hpp"

namespace rp::layer2 {
namespace {

struct Fixture {
  core::Scenario scenario = [] {
    core::ScenarioConfig config;
    config.seed = 23;
    config.membership_scale = 0.08;
    config.topology.tier2_count = 40;
    config.topology.access_count = 120;
    config.topology.content_count = 40;
    config.topology.cdn_count = 6;
    config.topology.nren_count = 5;
    config.topology.enterprise_count = 100;
    return core::Scenario::build(config);
  }();
  core::OffloadStudy study = [this] {
    core::OffloadStudyConfig config;
    config.rate_model.span = util::SimDuration::days(2);
    return core::OffloadStudy::run(scenario, config);
  }();
};

TEST(FlatteningIntegration, HeadlineHoldsOnGeneratedWorld) {
  Fixture f;
  FlatteningStudy flattening(f.scenario.graph(), f.scenario.ecosystem(),
                             f.scenario.vantage(), f.study.rib(),
                             f.study.analyzer());
  const auto steps =
      f.study.analyzer().greedy_by_traffic(offload::PeerGroup::kAll, 3);
  ASSERT_FALSE(steps.empty());
  std::vector<ixp::IxpId> reached;
  for (const auto& step : steps) reached.push_back(step.ixp_id);

  const auto report = flattening.compare(reached, offload::PeerGroup::kAll);
  ASSERT_GT(report.flows, 10u);
  // Layer 3 flattens...
  EXPECT_LT(report.mean_l3_after, report.mean_l3_before);
  EXPECT_EQ(report.l3_flatter, report.flows);
  // ...the organization view does not (for most flows), and every offloaded
  // path crosses at least the IXP fabric plus the vantage's own circuit.
  EXPECT_GT(static_cast<double>(report.org_not_flatter) /
                static_cast<double>(report.flows),
            0.5);
  EXPECT_EQ(report.with_invisible_intermediaries, report.flows);
  EXPECT_GE(report.mean_invisible_after, 2.0);
}

TEST(FlatteningIntegration, AssignmentsRespectConesAndMembership) {
  Fixture f;
  FlatteningStudy flattening(f.scenario.graph(), f.scenario.ecosystem(),
                             f.scenario.vantage(), f.study.rib(),
                             f.study.analyzer());
  const auto everywhere = f.study.analyzer().all_ixps();
  const auto covered = f.study.analyzer().covered_endpoints(
      everywhere, offload::PeerGroup::kAll);
  ASSERT_FALSE(covered.empty());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < covered.size() && checked < 20; i += 11) {
    const auto assignment = flattening.assignment_for(
        covered[i], everywhere, offload::PeerGroup::kAll);
    ASSERT_TRUE(assignment.has_value()) << covered[i].to_string();
    // The carrying peer is a member of the claimed IXP and holds the
    // endpoint in its cone.
    EXPECT_TRUE(f.scenario.ecosystem()
                    .ixp(assignment->ixp_id)
                    .has_member(assignment->peer));
    const auto cone = f.scenario.graph().customer_cone(assignment->peer);
    EXPECT_NE(std::find(cone.begin(), cone.end(), covered[i]), cone.end());
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(FlatteningIntegration, ReportIdenticalAcrossThreadWidths) {
  // compare() fans endpoints over the pool and folds in endpoint order, so
  // every field — the means included — must match at any width.
  Fixture f;
  FlatteningStudy flattening(f.scenario.graph(), f.scenario.ecosystem(),
                             f.scenario.vantage(), f.study.rib(),
                             f.study.analyzer());
  const auto everywhere = f.study.analyzer().all_ixps();
  std::vector<FlatteningReport> reports;
  for (const unsigned threads : {1u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    reports.push_back(flattening.compare(everywhere, offload::PeerGroup::kAll));
  }
  util::ThreadPool::set_global_threads(0);
  const FlatteningReport& narrow = reports[0];
  const FlatteningReport& wide = reports[1];
  ASSERT_GT(narrow.flows, 10u);
  EXPECT_EQ(narrow.flows, wide.flows);
  EXPECT_EQ(narrow.mean_l3_before, wide.mean_l3_before);
  EXPECT_EQ(narrow.mean_l3_after, wide.mean_l3_after);
  EXPECT_EQ(narrow.mean_org_before, wide.mean_org_before);
  EXPECT_EQ(narrow.mean_org_after, wide.mean_org_after);
  EXPECT_EQ(narrow.l3_flatter, wide.l3_flatter);
  EXPECT_EQ(narrow.org_not_flatter, wide.org_not_flatter);
  EXPECT_EQ(narrow.with_invisible_intermediaries,
            wide.with_invisible_intermediaries);
  EXPECT_EQ(narrow.mean_invisible_after, wide.mean_invisible_after);
}

TEST(FlatteningIntegration, RiskOrderingOnGeneratedWorld) {
  Fixture f;
  MultihomingRiskStudy risk(f.scenario.graph(), f.scenario.ecosystem(),
                            f.scenario.vantage(), f.study.analyzer());
  const auto everywhere = f.study.analyzer().all_ixps();
  const auto dual = risk.evaluate(Procurement::kDualTransit, everywhere,
                                  offload::PeerGroup::kAll, 0);
  const auto independent =
      risk.evaluate(Procurement::kTransitPlusIndependentRemote, everywhere,
                    offload::PeerGroup::kAll, 0);
  const auto conflated =
      risk.evaluate(Procurement::kTransitPlusConflatedRemote, everywhere,
                    offload::PeerGroup::kAll, 0);
  EXPECT_DOUBLE_EQ(dual.worst_case_surviving, 1.0);
  EXPECT_GT(independent.worst_case_surviving, 0.0);
  EXPECT_LT(independent.worst_case_surviving, 1.0);
  EXPECT_DOUBLE_EQ(conflated.worst_case_surviving, 0.0);
}

}  // namespace
}  // namespace rp::layer2
