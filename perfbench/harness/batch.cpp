// The two batch workloads: paper_1x (the work behind the paper's artefacts)
// and campaign_6x (the all-IXP measurement campaign on a 6x stress world).
//
// Both build their world several times (setup_s is the median), then repeat
// one pass of the pipeline until the run's seconds are spent. Their inputs
// depend on seed % kInputSets, and every pass's result digest (and, on
// campaign_6x, its exact event count) is checked against the value recorded
// for that input in perfbench/expected.txt. Each call into
// a layer sits in its own span; the pass is the root span "pipeline", so the
// root's self time is whatever no layer accounts for. The layer calls are the
// ones SpreadStudy::run and OffloadStudy::run make, issued one by one so that
// each can be timed from outside.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "core/viability_study.hpp"
#include "flow/rate_model.hpp"
#include "flow/traffic_matrix.hpp"
#include "io/snapshot.hpp"
#include "layer2/entity_path.hpp"
#include "layer2/risk.hpp"
#include "measure/campaign.hpp"
#include "measure/filters.hpp"
#include "measure/report.hpp"
#include "offload/analyzer.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace rp::perfbench {

namespace {

constexpr offload::PeerGroup kGroups[] = {
    offload::PeerGroup::kOpen, offload::PeerGroup::kOpenTop10Selective,
    offload::PeerGroup::kOpenSelective, offload::PeerGroup::kAll};

/// World builds per run; setup_s is their median. A paper-scale build takes
/// about 0.6 s, a 6x build about 1.5 s.
constexpr int kPaperSetupRepeats = 9;
constexpr int kStressSetupRepeats = 5;

/// Distinct inputs of a batch workload: seed s runs input s % kInputSets,
/// and expected.txt records the results of every input.
constexpr std::uint64_t kInputSets = 10;

/// The bounds tests/core/studies_test.cpp holds the §3 study to. The
/// trimmed campaign on the 6x world meets them too.
constexpr double kMinPrecision = 0.95;
constexpr double kMinRecall = 0.9;
constexpr double kMinIxpsWithRemote = 0.7;

/// The default paper-scale world of the bench harnesses (seeded with 2014).
/// It is the same in every run: --seed varies what is measured on it, so
/// that run-to-run spread reflects the program, not a different world.
core::ScenarioConfig paper_config() {
  core::ScenarioConfig config;
  config.seed = 2014;
  config.euroix = true;
  return config;
}

/// The world of perf_sim's all_ixp_world(6).
core::ScenarioConfig stress_config() {
  core::ScenarioConfig config = paper_config();
  config.measure_all_ixps = true;
  config.membership_scale *= 6;
  config.member_pool_size *= 6;
  return config;
}

/// Builds the world `repeats` times, keeping the last, and records setup_s
/// and the traced build time.
core::Scenario build_world(const core::ScenarioConfig& config, int repeats,
                           WorkloadResult& result) {
  std::vector<double> seconds;
  std::optional<core::Scenario> world;
  for (int i = 0; i < repeats; ++i) {
    world.reset();
    const std::uint64_t start = now_ns();
    {
      auto span = result.spans.span("core.scenario_build");
      world.emplace(core::Scenario::build(config));
    }
    seconds.push_back(seconds_since(start));
  }
  result.add("setup_s", order_stats(seconds).median, "s");
  return std::move(*world);
}

std::vector<const ixp::Ixp*> measured_ixps(const core::Scenario& world) {
  std::vector<const ixp::Ixp*> ixps;
  for (const ixp::IxpId id : world.measured_ixps())
    ixps.push_back(&world.ecosystem().ixp(id));
  return ixps;
}

struct SpreadOutput {
  std::vector<measure::IxpMeasurement> raw;
  std::vector<measure::IxpAnalysis> analyses;
  std::optional<measure::SpreadReport> report;
};

/// The §3 chain. Campaign randomness (probe timing, loss, congestion) comes
/// from the run's seed, one stream per IXP as SpreadStudy::run forks them.
SpreadOutput run_spread(const core::Scenario& world,
                        const measure::CampaignConfig& campaign,
                        std::uint64_t seed, SpanLog& log) {
  SpreadOutput out;
  const std::vector<const ixp::Ixp*> ixps = measured_ixps(world);
  {
    auto span = log.span("measure.campaigns");
    out.raw = measure::CampaignRunner::run(
        ixps, campaign, [seed](const ixp::Ixp& ixp) {
          return util::Rng(seed).fork(0x100 + ixp.id());
        });
  }
  {
    auto span = log.span("measure.filters");
    const measure::FilterConfig filters;
    out.analyses = util::ThreadPool::global().parallel_transform(
        out.raw.size(), [&out, &filters](std::size_t k) {
          return measure::apply_filters(out.raw[k], filters);
        });
  }
  {
    auto span = log.span("measure.report");
    out.report.emplace(
        measure::SpreadReport::build(out.analyses, measure::ClassifierConfig{}));
  }
  return out;
}

void add_report(Digest& digest, const measure::SpreadReport& report) {
  for (const measure::IxpSpreadRow& row : report.rows()) {
    digest.add(row.acronym);
    digest.add(static_cast<std::uint64_t>(row.probed));
    digest.add(static_cast<std::uint64_t>(row.analyzed));
    digest.add(static_cast<std::uint64_t>(row.remote_interfaces));
    for (const std::size_t n : row.band_counts) digest.add(std::uint64_t{n});
    for (const std::size_t n : row.discard_counts) digest.add(std::uint64_t{n});
  }
  for (const double rtt : report.min_rtts_ms()) digest.add(rtt);
  const measure::ValidationSummary& v = report.validation();
  for (const std::size_t n : {v.true_positives, v.false_positives,
                              v.true_negatives, v.false_negatives})
    digest.add(std::uint64_t{n});
}

void add_steps(Digest& digest, const std::vector<offload::GreedyStep>& steps) {
  for (const offload::GreedyStep& step : steps) {
    digest.add(std::uint64_t{step.ixp_id});
    digest.add(step.gained);
    digest.add(step.remaining);
  }
}

void add_potential(Digest& digest, const offload::Potential& p) {
  digest.add(p.inbound_bps);
  digest.add(p.outbound_bps);
  digest.add(static_cast<std::uint64_t>(p.covered_networks));
}

/// What one pass's campaigns did: exact counts, identical in every pass.
struct CampaignCounts {
  std::uint64_t events = 0;
  std::uint64_t largest = 0;  ///< Events of the costliest single campaign.
  std::size_t probed = 0;
  std::size_t analyzed = 0;
};

CampaignCounts count_campaigns(const SpreadOutput& spread, Digest& digest) {
  CampaignCounts counts;
  for (const measure::IxpMeasurement& m : spread.raw) {
    digest.add(m.ixp_acronym);
    digest.add(m.events_executed);
    counts.events += m.events_executed;
    counts.largest = std::max(counts.largest, m.events_executed);
  }
  counts.probed = spread.report->total_probed();
  counts.analyzed = spread.report->total_analyzed();
  return counts;
}

/// The share of probed interfaces the filters keep, and in a traced run the
/// simulator's event counts.
void add_campaign_metrics(WorkloadResult& result, const CampaignCounts& c) {
  result.add("measure.kept_ratio",
             static_cast<double>(c.analyzed) / static_cast<double>(c.probed),
             "ratio");
  if (!result.spans.enabled()) return;
  const std::vector<double> campaigns =
      result.spans.durations("measure.campaigns");
  double campaign_s = 0.0;
  for (const double s : campaigns) campaign_s += s;
  campaign_s /= static_cast<double>(campaigns.size());
  const auto events = static_cast<double>(c.events);
  result.add("sim.events", events, "count");
  result.add("sim.events_per_s", events / campaign_s, "1/s");
  result.add("sim.events_per_interface",
             events / static_cast<double>(c.probed), "count");
  result.add("measure.max_campaign_share",
             static_cast<double>(c.largest) / events, "ratio");
}

/// Checks the §3 report against simulator ground truth, and notes it.
void check_report(WorkloadResult& result, const measure::SpreadReport& report) {
  const measure::ValidationSummary& v = report.validation();
  char line[160];
  std::snprintf(line, sizeof line,
                "report: precision %.4f, recall %.4f, remote peering at "
                "%.3f of the IXPs",
                v.precision(), v.recall(), report.ixps_with_remote_fraction());
  result.notes.emplace_back(line);
  result.check(v.precision() >= kMinPrecision && v.recall() >= kMinRecall,
               "classifier precision >= 0.95 and recall >= 0.9");
  result.check(report.ixps_with_remote_fraction() >= kMinIxpsWithRemote,
               "remote peering found at >= 70% of the measured IXPs");
}

/// Repeats `pass` until `options.seconds` have elapsed and at least
/// `min_untraced` untraced passes ran: untraced passes give pipeline_s; in a
/// traced run, traced and untraced passes alternate (at least one traced)
/// and their difference is the tracing overhead.
template <typename Pass>
void timed_passes(const RunOptions& options, std::size_t min_untraced,
                  WorkloadResult& result, Pass&& pass) {
  std::vector<double> untraced;
  std::vector<double> traced;
  SpanLog quiet(false);
  const std::uint64_t begin = now_ns();
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    SpanLog& log = trace_this ? result.spans : quiet;
    const std::uint64_t start = now_ns();
    {
      auto root = log.span("pipeline");
      pass(log);
    }
    (trace_this ? traced : untraced).push_back(seconds_since(start));
    const bool enough = untraced.size() >= min_untraced &&
                        (!options.trace || !traced.empty());
    if (enough && seconds_since(begin) >= options.seconds) break;
  }
  const OrderStats stats = order_stats(untraced);
  result.add("pipeline_s", stats.median, "s");
  // On a batch workload one request is one pass of the pipeline.
  double busy = 0.0;
  for (const double s : untraced) busy += s;
  std::vector<double> sorted = untraced;
  std::sort(sorted.begin(), sorted.end());
  result.add("requests_per_s", static_cast<double>(untraced.size()) / busy,
             "1/s");
  result.add("latency_p50_us", stats.median * 1e6, "us");
  result.add("latency_p99_us", nearest_rank(sorted, 99.0) * 1e6, "us");
  std::string passes;
  for (const double s : untraced) passes += " " + std::to_string(s);
  result.notes.push_back("pipeline_s: median " + std::to_string(stats.median) +
                         " s over " + std::to_string(stats.count) +
                         " untraced passes:" + passes);
  if (options.trace) {
    const double traced_s = order_stats(traced).median;
    result.add("trace.pipeline_s", traced_s, "s");
    result.add("trace.overhead_s", traced_s - stats.median, "s");
  }
}

/// Per-layer self times (per pass; the world build per build), the
/// attributed share of the traced pipeline, and the "where the time went"
/// table. `layers` maps span names to metric names.
void add_layer_times(
    WorkloadResult& result,
    const std::vector<std::pair<std::string, std::string>>& layers) {
  if (!result.spans.enabled()) return;
  const std::map<std::string, double> self = result.spans.self_seconds();
  const std::vector<double> passes = result.spans.durations("pipeline");
  const auto pass_count = static_cast<double>(passes.size());
  double pipeline = 0.0;
  for (const double s : passes) pipeline += s;
  double attributed = 0.0;
  std::vector<std::pair<double, std::string>> table;
  for (const auto& [span, metric] : layers) {
    const auto it = self.find(span);
    const double total = it == self.end() ? 0.0 : it->second;
    if (span == "core.scenario_build") {
      const auto builds =
          static_cast<double>(result.spans.durations(span).size());
      result.add(metric, total / builds, "s");
      continue;
    }
    attributed += total;
    table.emplace_back(total, span);
    result.add(metric, total / pass_count, "s");
  }
  const double ratio = pipeline > 0.0 ? attributed / pipeline : 0.0;
  result.add("trace.attributed_ratio", ratio, "ratio");
  std::sort(table.rbegin(), table.rend());
  result.notes.push_back("where the time went (self time per traced pass):");
  char line[128];
  for (const auto& [seconds, span] : table) {
    std::snprintf(line, sizeof line, "  %-22s %10.4f s  %5.1f%%", span.c_str(),
                  seconds / pass_count,
                  pipeline > 0.0 ? 100.0 * seconds / pipeline : 0.0);
    result.notes.emplace_back(line);
  }
  std::snprintf(line, sizeof line, "  attributed_ratio %.4f%s", ratio,
                std::abs(ratio - 1.0) > 0.1
                    ? "  (FLAGGED: more than 10% away from 1)"
                    : "");
  result.notes.emplace_back(line);
}

}  // namespace

WorkloadResult run_paper_1x(const RunOptions& options) {
  WorkloadResult result;
  result.spans = SpanLog(options.trace);
  const core::Scenario world =
      build_world(paper_config(), kPaperSetupRepeats, result);
  result.check(world.measured_ixps().size() == 22,
               "paper world measures 22 IXPs");

  measure::CampaignConfig campaign;
  // Collect the §3.3 route-server cross-check everywhere, as the bench
  // harnesses' shared spread study does.
  campaign.route_server_crosscheck = true;
  const std::filesystem::path snapshot = options.work_dir / "paper_1x.rpsnap";
  double snapshot_mib = 0.0;
  CampaignCounts counts;
  const std::uint64_t input = options.seed % kInputSets;

  // One pass is about 50 s, so a run times a single one.
  timed_passes(options, 1, result, [&](SpanLog& log) {
    Digest digest;
    {
      auto span = log.span("io.save");
      io::save_scenario(world, snapshot);
    }
    snapshot_mib =
        static_cast<double>(std::filesystem::file_size(snapshot)) / 1048576.0;
    {
      auto span = log.span("io.load");
      const io::LoadedWorld loaded = io::load_scenario(snapshot);
      result.check(io::config_digest(loaded.scenario.config()) ==
                           io::config_digest(world.config()) &&
                       loaded.scenario.graph().as_count() ==
                           world.graph().as_count() &&
                       loaded.scenario.ecosystem().ixps().size() ==
                           world.ecosystem().ixps().size(),
                   "snapshot reloads the saved world");
    }

    const SpreadOutput spread = run_spread(world, campaign, input, log);
    const measure::SpreadReport& report = *spread.report;
    counts = count_campaigns(spread, digest);
    add_report(digest, report);
    check_report(result, report);

    const core::OffloadStudyConfig config;
    std::optional<flow::TrafficMatrix> matrix;
    {
      auto span = log.span("flow.traffic_matrix");
      util::Rng rng = util::Rng(input).fork(0x200);
      matrix.emplace(flow::TrafficMatrix::generate(
          world.graph(), world.vantage(), config.traffic, rng));
    }
    std::optional<flow::RateModel> rates;
    {
      auto span = log.span("flow.rate_model");
      rates.emplace(*matrix, config.rate_model);
    }
    std::optional<bgp::Rib> rib;
    {
      auto span = log.span("bgp.rib_build");
      rib.emplace(bgp::Rib::build(world.graph(), world.vantage()));
    }
    std::optional<offload::OffloadAnalyzer> analyzer;
    {
      auto span = log.span("offload.analyzer");
      analyzer.emplace(world.graph(), world.ecosystem(), world.vantage(),
                       *matrix, *rib, config.analyzer);
    }
    const std::vector<ixp::IxpId> everywhere = analyzer->all_ixps();

    {
      // Fig. 5b in both directions, as OffloadStudy::time_series computes it.
      auto span = log.span("flow.series");
      std::vector<net::Asn> transit;
      for (const auto& endpoint : analyzer->transit_endpoints())
        transit.push_back(endpoint.asn);
      for (const flow::Direction dir :
           {flow::Direction::kInbound, flow::Direction::kOutbound}) {
        for (const double v : rates->aggregate_series(transit, dir))
          digest.add(v);
        const std::vector<net::Asn> covered =
            analyzer->covered_endpoints(everywhere, offload::PeerGroup::kAll);
        for (const double v : rates->aggregate_series(covered, dir))
          digest.add(v);
      }
    }

    std::vector<offload::GreedyStep> by_traffic;
    {
      // Figs. 9 and 10.
      auto span = log.span("offload.greedy");
      for (const offload::PeerGroup group : kGroups) {
        std::vector<offload::GreedyStep> steps =
            analyzer->greedy_by_traffic(group, 30);
        add_steps(digest, steps);
        add_steps(digest, analyzer->greedy_by_addresses(group, 30));
        if (group == offload::PeerGroup::kAll) by_traffic = std::move(steps);
      }
    }
    {
      // Fig. 7.
      auto span = log.span("offload.single_ixp");
      for (const ixp::Ixp& ixp : world.ecosystem().ixps()) {
        const std::vector<ixp::IxpId> just_this{ixp.id()};
        for (const offload::PeerGroup group : kGroups)
          add_potential(digest, analyzer->potential_at(just_this, group));
      }
    }
    {
      // §5: eqs. 11/13/14 from the fitted decay, plus the viability sweep.
      auto span = log.span("econ.viability");
      const double initial =
          analyzer->transit_inbound_bps() + analyzer->transit_outbound_bps();
      const core::ViabilityStudy study = core::ViabilityStudy::from_greedy_curve(
          by_traffic, initial, econ::CostParameters{});
      digest.add(study.fitted_decay());
      digest.add(study.optimal_direct_n());
      digest.add(study.optimal_remote_m());
      for (const auto& point : study.sweep_decay(0.05, 2.0, 14)) {
        digest.add(point.optimal_n);
        digest.add(point.optimal_m);
        digest.add(point.cost_with_remote);
      }
    }
    // §6 at the greedy-best five IXPs.
    std::vector<ixp::IxpId> reached;
    for (std::size_t i = 0; i < std::min<std::size_t>(5, by_traffic.size()); ++i)
      reached.push_back(by_traffic[i].ixp_id);
    {
      auto span = log.span("layer2.flattening");
      const layer2::FlatteningStudy flattening(
          world.graph(), world.ecosystem(), world.vantage(), *rib, *analyzer);
      for (const offload::PeerGroup group :
           {offload::PeerGroup::kOpen, offload::PeerGroup::kAll}) {
        const layer2::FlatteningReport r = flattening.compare(reached, group);
        digest.add(std::uint64_t{r.flows});
        digest.add(std::uint64_t{r.l3_flatter});
        digest.add(std::uint64_t{r.org_not_flatter});
        digest.add(r.mean_l3_after);
        digest.add(r.mean_org_after);
        digest.add(r.mean_invisible_after);
      }
    }
    {
      auto span = log.span("layer2.risk");
      const layer2::MultihomingRiskStudy risk(world.graph(), world.ecosystem(),
                                              world.vantage(), *analyzer);
      for (const layer2::Procurement procurement :
           {layer2::Procurement::kDualTransit,
            layer2::Procurement::kTransitPlusIndependentRemote,
            layer2::Procurement::kTransitPlusConflatedRemote}) {
        const layer2::RiskReport r =
            risk.evaluate(procurement, reached, offload::PeerGroup::kAll, 0);
        digest.add(r.tolerant_traffic_fraction);
        digest.add(r.worst_case_surviving);
        digest.add(r.worst_case_organization);
      }
    }
    options.expected.check(result, options.workload, std::to_string(input),
                           "digest", digest.value());
  });
  std::filesystem::remove(snapshot);

  result.add("io.snapshot_mib", snapshot_mib, "MiB");
  add_campaign_metrics(result, counts);
  add_layer_times(result, {{"core.scenario_build", "core.scenario_build_s"},
                           {"io.save", "io.save_s"},
                           {"io.load", "io.load_s"},
                           {"measure.campaigns", "measure.campaigns_s"},
                           {"measure.filters", "measure.filters_s"},
                           {"measure.report", "measure.report_s"},
                           {"flow.traffic_matrix", "flow.traffic_matrix_s"},
                           {"flow.rate_model", "flow.rate_model_s"},
                           {"bgp.rib_build", "bgp.rib_build_s"},
                           {"offload.analyzer", "offload.analyzer_s"},
                           {"flow.series", "flow.series_s"},
                           {"offload.greedy", "offload.greedy_s"},
                           {"offload.single_ixp", "offload.single_ixp_s"},
                           {"econ.viability", "econ.viability_s"},
                           {"layer2.flattening", "layer2.flattening_s"},
                           {"layer2.risk", "layer2.risk_s"}});
  return result;
}

WorkloadResult run_campaign_6x(const RunOptions& options) {
  WorkloadResult result;
  result.spans = SpanLog(options.trace);
  const core::Scenario world =
      build_world(stress_config(), kStressSetupRepeats, result);
  result.check(world.measured_ixps().size() == 65,
               "stress world measures all 65 IXPs");

  // perf_sim's trimmed all-IXP campaign: few queries over many interfaces.
  measure::CampaignConfig campaign;
  campaign.length = util::SimDuration::days(2);
  campaign.queries_per_pch_lg = 2;
  campaign.queries_per_ripe_lg = 1;

  CampaignCounts counts;
  const std::uint64_t input = options.seed % kInputSets;
  // A pass is about 10 s; pipeline_s is the median of at least two.
  timed_passes(options, 2, result, [&](SpanLog& log) {
    const SpreadOutput spread = run_spread(world, campaign, input, log);
    Digest digest;
    counts = count_campaigns(spread, digest);
    add_report(digest, *spread.report);
    const bool every_campaign_ran = std::all_of(
        spread.raw.begin(), spread.raw.end(),
        [](const measure::IxpMeasurement& m) {
          return m.events_executed > 0 && !m.interfaces.empty();
        });
    result.check(every_campaign_ran,
                 "every IXP's campaign probed interfaces and ran events");
    check_report(result, *spread.report);
    options.expected.check(result, options.workload, std::to_string(input),
                           "digest", digest.value());
    options.expected.check(result, options.workload, std::to_string(input),
                           "sim.events", counts.events);
  });
  add_campaign_metrics(result, counts);
  add_layer_times(result, {{"core.scenario_build", "core.scenario_build_s"},
                           {"measure.campaigns", "measure.campaigns_s"},
                           {"measure.filters", "measure.filters_s"},
                           {"measure.report", "measure.report_s"}});
  return result;
}

}  // namespace rp::perfbench
