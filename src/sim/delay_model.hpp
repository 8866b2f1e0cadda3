// Stochastic delay models for links: queueing jitter and congestion episodes.
//
// The paper's RTT measurements fight two delay artefacts (§3.1): transient
// congestion (handled by repeating probes and keeping the minimum) and
// persistent congestion (handled by the RTT-consistent and LG-consistent
// filters plus the high 10 ms threshold). Both artefacts are injected here so
// each counter-measure is exercised against the condition it was built for.
//
// The models are plain values: a Link holds its jitter and its congestion
// part inline (LinkNoise), so drawing a frame's extra delay — done once per
// flood copy — chases no pointer and makes no virtual call.
#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace rp::sim {

/// Light-tailed queueing jitter: lognormal with a microsecond-scale median.
/// Models normal switch/port queueing inside a healthy fabric.
class QueueJitter {
 public:
  /// `median` is the typical extra delay; `sigma` the lognormal shape.
  QueueJitter(util::SimDuration median, double sigma);
  util::SimDuration sample(util::SimTime now, util::Rng& rng) const;

 private:
  double mu_;  ///< log(median in seconds)
  double sigma_;
};

/// Recurring congestion episodes: within configured windows, frames see an
/// extra heavy delay (e.g. several ms). Outside the windows, nothing.
class CongestionEpisodes {
 public:
  struct Episode {
    util::SimTime start;
    util::SimTime end;
    /// Mean extra delay while the episode is active (exponentially
    /// distributed per frame).
    util::SimDuration mean_extra;
  };

  explicit CongestionEpisodes(std::vector<Episode> episodes);
  util::SimDuration sample(util::SimTime now, util::Rng& rng) const;

  /// Convenience: periodic daily busy-hour episodes across a whole campaign.
  static CongestionEpisodes daily_busy_hours(
      util::SimTime campaign_start, util::SimDuration campaign_length,
      util::SimDuration busy_start_offset, util::SimDuration busy_length,
      util::SimDuration mean_extra);

 private:
  std::vector<Episode> episodes_;
};

/// Persistent congestion: every frame sees heavy, widely dispersed extra
/// delay (a saturated port whose queue swings between deep and deeper).
/// The minimum RTT of such an interface is a lucky outlier that few other
/// samples come close to — exactly the pathology the RTT-consistent filter
/// discards. Per-frame extra delay is uniform in [min_extra, max_extra].
class PersistentCongestion {
 public:
  PersistentCongestion(util::SimDuration min_extra,
                       util::SimDuration max_extra);
  /// Convenience: a default heavy sweep of [mean/3, 3 * mean].
  explicit PersistentCongestion(util::SimDuration mean_extra)
      : PersistentCongestion(mean_extra / 3, mean_extra * 3) {}
  util::SimDuration sample(util::SimTime now, util::Rng& rng) const;

 private:
  util::SimDuration min_extra_;
  util::SimDuration max_extra_;
};

/// The stochastic extra delay of one link, held by value: an optional
/// queueing jitter and an optional congestion part (busy-hour episodes or a
/// persistently congested port). Default-constructed, a link adds nothing
/// and draws nothing.
///
/// Draw-order contract: per frame, the jitter draws first and the congestion
/// part second, both from the link's own RNG stream, and each part is
/// rounded to a SimDuration before the integer sum. Every RNG stream and
/// every delivery time of a campaign depends on this order.
struct LinkNoise {
  std::optional<QueueJitter> jitter;
  std::variant<std::monostate, CongestionEpisodes, PersistentCongestion>
      congestion;

  util::SimDuration sample(util::SimTime now, util::Rng& rng) const {
    util::SimDuration extra = util::SimDuration::nanos(0);
    if (jitter) extra += jitter->sample(now, rng);
    if (const auto* episodes = std::get_if<CongestionEpisodes>(&congestion))
      extra += episodes->sample(now, rng);
    else if (const auto* persistent =
                 std::get_if<PersistentCongestion>(&congestion))
      extra += persistent->sample(now, rng);
    return extra;
  }
};

}  // namespace rp::sim
