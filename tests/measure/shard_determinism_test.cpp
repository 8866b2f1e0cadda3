// CampaignRunner's determinism contract: an all-IXP campaign batch is
// byte-identical at any RP_THREADS x RP_SIM_SHARDS combination and
// invariant under IXP submission order, because every campaign's RNG is a
// pure function of the IXP alone and shards only decide *where* work runs.
#include "measure/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "measure/dataset_io.hpp"
#include "test_worlds.hpp"
#include "util/thread_pool.hpp"

namespace rp::measure {
namespace {

using test_worlds::batch_world;

CampaignConfig short_campaign() {
  CampaignConfig config;
  config.length = util::SimDuration::days(1);
  config.queries_per_pch_lg = 2;
  config.queries_per_ripe_lg = 2;
  return config;
}

util::Rng rng_for_ixp(const ixp::Ixp& ixp) {
  return util::Rng(0xC0FFEE00 + ixp.id());
}

/// Serializes one measurement to the exact on-disk dataset bytes.
std::string fingerprint(const IxpMeasurement& measurement) {
  std::ostringstream os;
  write_dataset(measurement, os);
  return os.str();
}

std::string run_fingerprint(const std::vector<const ixp::Ixp*>& ixps,
                            std::size_t shards) {
  const auto results =
      CampaignRunner::run(ixps, short_campaign(), rng_for_ixp, shards);
  std::string all;
  for (const auto& measurement : results) all += fingerprint(measurement);
  return all;
}

class ShardDeterminismTest : public testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_threads(0);
    ::unsetenv("RP_SIM_SHARDS");
  }
};

TEST_F(ShardDeterminismTest, AllIxpBatchIsByteIdenticalAcrossThreadsAndShards) {
  const std::vector<ixp::Ixp> world = batch_world();
  std::vector<const ixp::Ixp*> ixps;
  for (const auto& ixp : world) ixps.push_back(&ixp);
  ASSERT_GE(ixps.size(), 50u);

  std::string reference;
  for (unsigned threads : {1u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    for (std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      const std::string fp = run_fingerprint(ixps, shards);
      if (reference.empty()) {
        reference = fp;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(fp, reference)
            << "diverged at RP_THREADS=" << threads << " shards=" << shards;
      }
    }
  }
  // The one-shard-per-IXP default (shards beyond the IXP count clamp down)
  // lands on the same bytes.
  util::ThreadPool::set_global_threads(8);
  EXPECT_EQ(run_fingerprint(ixps, ixps.size() * 2), reference);
}

TEST_F(ShardDeterminismTest, SubmissionOrderOnlyPermutesTheOutput) {
  const std::vector<ixp::Ixp> world = batch_world();
  std::vector<const ixp::Ixp*> forward;
  for (const auto& ixp : world) forward.push_back(&ixp);
  std::vector<const ixp::Ixp*> reversed(forward.rbegin(), forward.rend());

  util::ThreadPool::set_global_threads(8);
  const auto a = CampaignRunner::run(forward, short_campaign(), rng_for_ixp, 8);
  const auto b = CampaignRunner::run(reversed, short_campaign(), rng_for_ixp, 8);
  ASSERT_EQ(a.size(), b.size());

  // Results land in submission order; each IXP's bytes are identical no
  // matter where in the batch it was submitted.
  std::map<std::string, std::string> by_acronym;
  for (const auto& measurement : a)
    by_acronym[measurement.ixp_acronym] = fingerprint(measurement);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i].ixp_acronym, forward[forward.size() - 1 - i]->acronym());
    EXPECT_EQ(fingerprint(b[i]), by_acronym.at(b[i].ixp_acronym));
  }
}

TEST_F(ShardDeterminismTest, ConfiguredShardsParsesTheEnvironment) {
  ::unsetenv("RP_SIM_SHARDS");
  EXPECT_EQ(CampaignRunner::configured_shards(), 0u);
  ::setenv("RP_SIM_SHARDS", "8", 1);
  EXPECT_EQ(CampaignRunner::configured_shards(), 8u);
  ::setenv("RP_SIM_SHARDS", "0", 1);
  EXPECT_EQ(CampaignRunner::configured_shards(), 1u);  // Clamped up.
  ::setenv("RP_SIM_SHARDS", "garbage", 1);
  EXPECT_EQ(CampaignRunner::configured_shards(), 0u);  // Default fan-out.

  // The env setting feeds the shards=0 path and preserves the bytes.
  const std::vector<ixp::Ixp> world = batch_world();
  std::vector<const ixp::Ixp*> ixps;
  for (const auto& ixp : world) ixps.push_back(&ixp);
  util::ThreadPool::set_global_threads(4);
  ::setenv("RP_SIM_SHARDS", "3", 1);
  const std::string via_env = run_fingerprint(ixps, 0);
  ::unsetenv("RP_SIM_SHARDS");
  EXPECT_EQ(via_env, run_fingerprint(ixps, 3));
  EXPECT_EQ(via_env, run_fingerprint(ixps, 1));
}

}  // namespace
}  // namespace rp::measure
