#include "sim/delay_model.hpp"

#include <cmath>

namespace rp::sim {

QueueJitter::QueueJitter(util::SimDuration median, double sigma)
    : mu_(std::log(median.as_seconds_f())), sigma_(sigma) {}

util::SimDuration QueueJitter::sample(util::SimTime /*now*/,
                                      util::Rng& rng) const {
  return util::SimDuration::from_seconds_f(rng.lognormal(mu_, sigma_));
}

CongestionEpisodes::CongestionEpisodes(std::vector<Episode> episodes)
    : episodes_(std::move(episodes)) {}

util::SimDuration CongestionEpisodes::sample(util::SimTime now,
                                             util::Rng& rng) const {
  for (const auto& episode : episodes_) {
    if (now >= episode.start && now < episode.end)
      return util::SimDuration::from_seconds_f(
          rng.exponential(episode.mean_extra.as_seconds_f()));
  }
  return util::SimDuration::nanos(0);
}

CongestionEpisodes CongestionEpisodes::daily_busy_hours(
    util::SimTime campaign_start, util::SimDuration campaign_length,
    util::SimDuration busy_start_offset, util::SimDuration busy_length,
    util::SimDuration mean_extra) {
  std::vector<Episode> episodes;
  const auto day = util::SimDuration::days(1);
  for (util::SimDuration offset = busy_start_offset;
       offset < campaign_length; offset += day) {
    episodes.push_back(Episode{campaign_start + offset,
                               campaign_start + offset + busy_length,
                               mean_extra});
  }
  return CongestionEpisodes(std::move(episodes));
}

PersistentCongestion::PersistentCongestion(util::SimDuration min_extra,
                                           util::SimDuration max_extra)
    : min_extra_(min_extra), max_extra_(max_extra) {}

util::SimDuration PersistentCongestion::sample(util::SimTime /*now*/,
                                               util::Rng& rng) const {
  return util::SimDuration::from_seconds_f(rng.uniform(
      min_extra_.as_seconds_f(), max_extra_.as_seconds_f()));
}

}  // namespace rp::sim
