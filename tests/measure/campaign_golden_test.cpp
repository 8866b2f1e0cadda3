// Golden campaign bytes: every ping sample, route-server sample and event
// count of two fixed campaign sets, hashed and compared with constants
// recorded before the simulator's flood path was reworked. Any change to an
// RNG stream, a draw order or a delivery time in rp::sim moves a hash, so a
// speed-up of the simulator must leave both constants untouched; a
// deliberate model change re-records them and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "io/container.hpp"
#include "measure/campaign.hpp"
#include "test_worlds.hpp"

namespace rp::measure {
namespace {

class Digest {
 public:
  void u64(std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    state_ = io::fnv1a64_accumulate(state_,
                                    std::span<const std::uint8_t>(bytes));
  }
  void sample(const PingSample& s) {
    u64(static_cast<std::uint64_t>(s.sent_at.count_nanos()));
    u64(s.replied ? 1 : 0);
    u64(static_cast<std::uint64_t>(s.rtt.count_nanos()));
    u64(s.reply_ttl);
    u64(s.reply_src.to_u32());
  }
  void measurement(const IxpMeasurement& m) {
    u64(m.ixp_id);
    u64(m.events_executed);
    u64(m.interfaces.size());
    for (const auto& iface : m.interfaces) {
      u64(iface.addr.to_u32());
      for (const auto& [op, list] : iface.samples) {
        u64(static_cast<std::uint64_t>(op));
        u64(list.size());
        for (const auto& s : list) sample(s);
      }
      u64(iface.route_server_samples.size());
      for (const auto& s : iface.route_server_samples) sample(s);
    }
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = io::kFnvOffset;
};

TEST(CampaignGolden, BatchWorldSamplesMatchRecordedHash) {
  // The 56-IXP world of the shard-determinism test, default fault mix (so
  // busy-hour and persistent congestion ride on member links), with the
  // route-server cross-check on.
  const std::vector<ixp::Ixp> world = test_worlds::batch_world();
  std::vector<const ixp::Ixp*> ixps;
  for (const auto& ixp : world) ixps.push_back(&ixp);
  CampaignConfig config;
  config.length = util::SimDuration::days(1);
  config.queries_per_pch_lg = 2;
  config.queries_per_ripe_lg = 2;
  config.route_server_crosscheck = true;
  config.rs_queries = 2;
  const auto results = CampaignRunner::run(
      ixps, config,
      [](const ixp::Ixp& ixp) { return util::Rng(0xC0FFEE00 + ixp.id()); });

  Digest digest;
  std::uint64_t events = 0;
  for (const auto& measurement : results) {
    digest.measurement(measurement);
    events += measurement.events_executed;
  }
  EXPECT_EQ(events, 40646u);
  EXPECT_EQ(digest.value(), 8166893139082108068ull);
}

TEST(CampaignGolden, MultiSiteSamplesMatchRecordedHash) {
  // Three sites: trunk links carry their own jitter stream, and the LGs sit
  // at different sites. Four days cross four busy hours, and one member port
  // in ten is persistently congested.
  const ixp::Ixp ixp = test_worlds::multi_site_ixp(3, 40, 12);
  CampaignConfig config;
  config.length = util::SimDuration::days(4);
  config.faults.persistent_congestion_rate = 0.1;
  config.queries_per_pch_lg = 4;
  config.queries_per_ripe_lg = 3;
  config.route_server_crosscheck = true;
  config.rs_queries = 3;
  util::Rng rng(11);
  const IxpMeasurement measurement = run_ixp_campaign(ixp, config, rng);

  Digest digest;
  digest.measurement(measurement);
  EXPECT_EQ(measurement.events_executed, 26023u);
  EXPECT_EQ(digest.value(), 17672541829104108202ull);
}

}  // namespace
}  // namespace rp::measure
