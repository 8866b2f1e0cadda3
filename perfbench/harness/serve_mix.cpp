// serve_mix: an in-process rpserve daemon under a seeded closed-loop query
// mix — the only workload that goes through serve and stream.
//
// The world is the default fast world in every run; --seed draws each
// client's request sequence from the catalog.
//
// Set-up starts a daemon on a private, empty snapshot cache and sends every
// request of the mix's catalog once, so the first answers are cold (the fast
// world is built, its offload study and greedy curve computed). Those
// answers are the reference: every later reply must be kOk and byte-identical
// to the reference for its request, and a digest of the references must
// equal the one perfbench/expected.txt records. Set-up runs kSetupRepeats
// times on fresh daemons; setup_s is the median.
//
// The timed phase runs kClients client threads on their own connections,
// each sending its next request only after the previous reply (a closed
// loop). Work comes in rounds of kRoundRequests requests per client, and
// pipeline_s is the median round. Client 0 opens a new connection for one
// call in every 1/kReconnects of the run's seconds, as rpq does, so that a
// run opens kReconnects connections spread evenly over its rounds, however
// fast the rounds go; each finished connection currently stays resident in
// the daemon, which serve.vm_growth_mib shows. A traced run times an
// untraced half and then a traced half, so the tracing overhead is measured
// too.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace rp::perfbench {

namespace {

/// A cold set-up takes about 15 ms.
constexpr int kSetupRepeats = 31;
constexpr std::size_t kClients = 3;
constexpr std::size_t kRoundRequests = 1000;
/// New connections per run. Each keeps about 8 MB of address space in the
/// daemon; about 85 rounds fit in 10 s on 4 cores, so this is 3 a round.
constexpr std::size_t kReconnects = 256;
/// Client errors kept for the summary, per client.
constexpr std::size_t kMaxErrors = 8;

/// The request kinds of the mix; the names are the per-layer metric stems.
enum Kind : std::size_t {
  kPing,
  kWorldInfo,
  kOffloadCurve,
  kViability,
  kWhatIfEcon,
  kWhatIfPeering,
  kKinds
};
constexpr const char* kKindSpan[kKinds] = {
    "serve.ping",      "serve.world_info",  "serve.offload_curve",
    "serve.viability", "serve.whatif_econ", "stream.whatif_peering"};

struct Entry {
  Kind kind;
  serve::Request request;
  std::vector<std::uint8_t> reference;
};

serve::EconPrices prices(double h, double v) {
  serve::EconPrices p;
  p.h = h;
  p.v = v;
  return p;
}

/// The distinct requests of the mix. Peering what-ifs name IXPs from the
/// world's greedy curve, so the catalog is completed once that answer is in.
using Catalog = std::vector<Entry>;

/// Every world-backed request asks for the default fast world.
void add(Catalog& catalog, Kind kind, serve::Request request) {
  request.id = catalog.size();
  request.world.fast = true;
  catalog.push_back(Entry{kind, std::move(request), {}});
}

void add_reads(Catalog& catalog) {
  serve::Request ping;
  ping.type = serve::RequestType::kPing;
  ping.token = "perfbench";
  add(catalog, kPing, ping);
  serve::Request info;
  info.type = serve::RequestType::kWorldInfo;
  add(catalog, kWorldInfo, info);
  for (std::uint8_t group = 1; group <= 4; ++group) {
    serve::Request curve;
    curve.type = serve::RequestType::kOffloadCurve;
    curve.group = group;
    curve.max_steps = 8;
    add(catalog, kOffloadCurve, curve);
  }
  for (const double h : {0.004, 0.006, 0.008}) {
    serve::Request viability;
    viability.type = serve::RequestType::kViability;
    viability.prices = prices(h, 0.45);
    add(catalog, kViability, viability);
  }
  for (const double v : {0.40, 0.45, 0.50}) {
    serve::Request econ;
    econ.type = serve::RequestType::kWhatIf;
    econ.whatif_mode = 1;
    econ.variant = prices(0.006, v);
    add(catalog, kWhatIfEcon, econ);
  }
}

/// Peering what-ifs over pairs of the greedy curve's IXPs, in all groups.
void add_writes(Catalog& catalog, const serve::Response& curve) {
  std::vector<std::string> ixps;
  for (const auto& [key, value] : curve.fields)
    if (key.size() > 8 && key.ends_with(".acronym")) ixps.push_back(value);
  if (ixps.size() < 3)
    throw std::runtime_error("greedy curve names fewer than 3 IXPs");
  for (std::uint8_t group = 1; group <= 4; ++group) {
    for (std::size_t i = 0; i + 1 < std::min<std::size_t>(ixps.size(), 4); ++i) {
      serve::Request whatif;
      whatif.type = serve::RequestType::kWhatIf;
      whatif.whatif_mode = 2;
      whatif.group = group;
      whatif.reached_ixps = {ixps[i]};
      whatif.added_ixps = {ixps[i + 1]};
      add(catalog, kWhatIfPeering, whatif);
    }
  }
}

/// A daemon on a private snapshot cache that starts empty and is deleted
/// when the daemon stops.
struct PrivateDaemon {
  explicit PrivateDaemon(std::filesystem::path cache_dir)
      : cache(std::move(cache_dir)) {
    std::filesystem::remove_all(cache);
    std::filesystem::create_directories(cache);
    serve::DaemonConfig config;
    config.cache_dir = cache;
    daemon.emplace(std::move(config));
    daemon->start();
  }
  ~PrivateDaemon() {
    daemon->stop();
    std::error_code ignored;
    std::filesystem::remove_all(cache, ignored);
  }
  PrivateDaemon(const PrivateDaemon&) = delete;
  PrivateDaemon& operator=(const PrivateDaemon&) = delete;

  std::filesystem::path cache;
  std::optional<serve::Daemon> daemon;
};

serve::Client connect(const serve::Daemon& daemon) {
  return serve::Client::connect("127.0.0.1", daemon.port());
}

/// One set-up: daemon start until every catalog request has its first
/// answer. Fills the catalog (and its references) on the first call and
/// checks later set-ups against it.
double cold_setup(const std::filesystem::path& cache, Catalog& catalog,
                  WorkloadResult& result) {
  const std::uint64_t start = now_ns();
  PrivateDaemon daemon(cache);
  serve::Client client = connect(*daemon.daemon);
  const bool first = catalog.empty();
  if (first) add_reads(catalog);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    Entry& entry = catalog[i];
    std::vector<std::uint8_t> reply = client.call_raw(entry.request);
    const serve::Response decoded = serve::decode_response(reply);
    result.check(decoded.status == serve::Status::kOk,
                 std::string("cold ") + kKindSpan[entry.kind] + " answers kOk: " +
                     decoded.message);
    if (first) {
      entry.reference = std::move(reply);
      // The last use of `entry`: add_writes grows the catalog.
      if (entry.kind == kOffloadCurve && entry.request.group == 4)
        add_writes(catalog, decoded);
    } else {
      result.check(reply == entry.reference,
                   std::string("cold ") + kKindSpan[entry.kind] +
                       " answer identical across daemons");
    }
  }
  return seconds_since(start);
}

struct ClientLog {
  explicit ClientLog(bool trace) : spans(trace) {}
  SpanLog spans;
  std::vector<double> latency_us;
  std::vector<double> connect_us;
  std::uint64_t failed = 0;
  std::uint64_t busy = 0;
  std::vector<std::string> errors;
};

/// Ends a round once every client has finished it: records the round's wall
/// time and decides, once for all clients, whether the deadline has passed.
struct RoundClock {
  std::uint64_t deadline_ns = 0;
  std::uint64_t last_ns = 0;
  std::vector<double>* round_s = nullptr;
  bool* done = nullptr;

  void operator()() noexcept {
    const std::uint64_t now = now_ns();
    round_s->push_back(static_cast<double>(now - last_ns) / 1e9);
    last_ns = now;
    *done = now >= deadline_ns;
  }
};

/// When the reconnecting client opens its next connection.
struct ReconnectClock {
  std::uint64_t next_ns = 0;
  std::uint64_t interval_ns = 0;
  std::size_t count = 0;
};

/// One client's closed loop, in rounds of kRoundRequests requests.
/// `reconnects` paces the reconnecting client's new connections; it is null
/// for the other clients.
void client_loop(const serve::Daemon& daemon, const Catalog& catalog,
                 util::Rng rng, ReconnectClock* reconnects,
                 std::barrier<RoundClock>& round_end, const bool& done,
                 ClientLog& log) {
  // Empty after a failed call: the next request connects again.
  std::optional<serve::Client> client;
  while (true) {
    for (std::size_t i = 0; i < kRoundRequests; ++i) {
      const Entry& entry = catalog[rng.uniform_int(
          0, catalog.size() - 1)];
      const std::uint64_t start = now_ns();
      auto span = log.spans.span(kKindSpan[entry.kind]);
      const bool reconnect = reconnects != nullptr &&
                             start >= reconnects->next_ns;
      bool ok = false;
      try {
        if (reconnect || !client) {
          client.reset();
          auto connect_span = log.spans.span("serve.connect");
          const std::uint64_t connect_start = now_ns();
          client.emplace(connect(daemon));
          log.connect_us.push_back(seconds_since(connect_start) * 1e6);
          if (reconnect) {
            reconnects->next_ns += reconnects->interval_ns;
            ++reconnects->count;
          }
        }
        const std::vector<std::uint8_t> reply = client->call_raw(entry.request);
        ok = reply == entry.reference;
        if (!ok && serve::decode_response(reply).status == serve::Status::kBusy)
          ++log.busy;
      } catch (const std::exception& e) {
        if (log.errors.size() < kMaxErrors) log.errors.push_back(e.what());
        client.reset();
      }
      log.latency_us.push_back(seconds_since(start) * 1e6);
      if (!ok) ++log.failed;
    }
    round_end.arrive_and_wait();
    if (done) return;
  }
}

/// One closed-loop phase: kClients threads run rounds until `seconds` have
/// passed. Client c draws its requests from the seed's stream label + c.
struct Phase {
  std::vector<ClientLog> logs;
  std::vector<double> round_s;
  double window_s = 0.0;
};

Phase run_phase(const serve::Daemon& daemon, const Catalog& catalog,
                std::uint64_t seed, std::uint64_t label, double seconds,
                bool trace, ReconnectClock& reconnects) {
  Phase phase;
  for (std::size_t c = 0; c < kClients; ++c) phase.logs.emplace_back(trace);
  phase.round_s.reserve(1 << 16);
  bool done = false;
  const std::uint64_t begin = now_ns();
  reconnects.next_ns = begin + reconnects.interval_ns;
  std::barrier<RoundClock> round_end(
      static_cast<std::ptrdiff_t>(kClients),
      RoundClock{begin + static_cast<std::uint64_t>(seconds * 1e9), begin,
                 &phase.round_s, &done});
  {
    util::Rng base(seed);
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, std::cref(daemon), std::cref(catalog),
                           base.fork(label + c),
                           c == 0 ? &reconnects : nullptr, std::ref(round_end),
                           std::cref(done), std::ref(phase.logs[c]));
    }
  }
  phase.window_s = seconds_since(begin);
  return phase;
}

/// Sum of the daemon's pool hits over hits plus loads, from a stats reply.
double pool_hit_ratio(const serve::Daemon& daemon) {
  serve::Client client = connect(daemon);
  serve::Request stats;
  stats.type = serve::RequestType::kStats;
  const serve::Response reply = client.call(stats);
  double hits = 0.0;
  double worlds = 0.0;
  for (const auto& [key, value] : reply.fields) {
    if (key == "pool.worlds") worlds = std::stod(value);
    if (key.starts_with("pool.world.") && key.ends_with(".hits"))
      hits += std::stod(value);
  }
  return hits + worlds > 0.0 ? hits / (hits + worlds) : 0.0;
}

}  // namespace

WorkloadResult run_serve_mix(const RunOptions& options) {
  WorkloadResult result;
  result.spans = SpanLog(options.trace);
  const std::filesystem::path cache =
      options.work_dir / ("serve-cache-" + std::to_string(::getpid()));

  Catalog catalog;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i)
    setups.push_back(cold_setup(cache, catalog, result));
  result.add("setup_s", order_stats(setups).median, "s");
  std::string setup_note = "setup_s: median over " +
                           std::to_string(setups.size()) + " cold set-ups:";
  for (const double seconds : setups)
    setup_note += " " + std::to_string(seconds);
  result.notes.push_back(setup_note);
  Digest references;
  for (const Entry& entry : catalog) {
    references.add(std::uint64_t{entry.kind});
    references.add(std::string_view(
        reinterpret_cast<const char*>(entry.reference.data()),
        entry.reference.size()));
  }
  // The catalog and the fast world do not depend on the seed.
  options.expected.check(result, options.workload, "all", "references",
                         references.value());

  // The timed phase runs on a daemon whose world is resident: set-up cost
  // is setup_s, not part of the load.
  PrivateDaemon daemon(cache);
  {
    serve::Client warm = connect(*daemon.daemon);
    for (const Entry& entry : catalog) {
      const bool ok = warm.call_raw(entry.request) == entry.reference;
      result.check(ok, std::string("warm ") + kKindSpan[entry.kind] +
                           " answer matches the cold one");
    }
  }
  // A traced run times an untraced half and then a traced half (spans and
  // the daemon's metrics on); their difference is the tracing overhead.
  ReconnectClock reconnects;
  reconnects.interval_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9 / kReconnects);
  const double vm_before = proc_status_mib("VmSize");
  const double rss_before = proc_status_mib("VmRSS");
  const Phase load =
      run_phase(*daemon.daemon, catalog, options.seed, 0,
                options.trace ? options.seconds / 2 : options.seconds, false,
                reconnects);
  std::optional<Phase> traced;
  if (options.trace) {
    obs::set_metrics_enabled(true);
    traced = run_phase(*daemon.daemon, catalog, options.seed, kClients,
                       options.seconds / 2, true, reconnects);
  }
  result.add("serve.vm_growth_mib", proc_status_mib("VmSize") - vm_before,
             "MiB");
  result.add("serve.rss_growth_mib", proc_status_mib("VmRSS") - rss_before,
             "MiB");

  std::vector<double> connect_us;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t busy = 0;
  std::vector<const Phase*> phases{&load};
  if (traced) phases.push_back(&*traced);
  for (const Phase* phase : phases) {
    for (const ClientLog& log : phase->logs) {
      connect_us.insert(connect_us.end(), log.connect_us.begin(),
                        log.connect_us.end());
      requests += log.latency_us.size();
      failed += log.failed;
      busy += log.busy;
      for (const std::string& error : log.errors)
        result.notes.push_back("client error: " + error);
      result.spans.append(log.spans);
    }
  }
  result.attempted += requests;
  result.failed += failed;
  if (failed > 0)
    result.notes.push_back("CHECK FAILED: " + std::to_string(failed) +
                           " replies were not kOk or differed from the "
                           "reference");

  // Throughput and tail latency are taken per round and reported as the
  // median round, so that outside load during a few rounds does not decide
  // the run; every round carries the same share of reconnects. Round r is
  // requests [r, r + 1) * kRoundRequests of every client: 3000 samples, 30
  // of them beyond the 99th percentile. (The 99th percentile of the whole
  // phase, printed in the summary, read 0.37-1.41 ms across ten runs of one
  // build on a shared host; the median round's read within 10%.)
  std::vector<double> latency_us;
  for (const ClientLog& log : load.logs)
    latency_us.insert(latency_us.end(), log.latency_us.begin(),
                      log.latency_us.end());
  const OrderStats latency = order_stats(latency_us);
  const OrderStats rounds = order_stats(load.round_s);
  std::vector<double> round_p99;
  for (std::size_t r = 0; r < load.round_s.size(); ++r) {
    std::vector<double> round;
    for (const ClientLog& log : load.logs)
      round.insert(round.end(), log.latency_us.begin() + r * kRoundRequests,
                   log.latency_us.begin() + (r + 1) * kRoundRequests);
    std::sort(round.begin(), round.end());
    round_p99.push_back(nearest_rank(round, 99.0));
  }
  std::sort(latency_us.begin(), latency_us.end());
  result.add("pipeline_s", rounds.median, "s");
  result.add("requests_per_s",
             static_cast<double>(kClients * kRoundRequests) / rounds.median,
             "1/s");
  result.add("latency_p50_us", latency.median, "us");
  result.add("latency_p99_us", order_stats(round_p99).median, "us");
  char line[192];
  std::snprintf(line, sizeof line,
                "requests: %zu in %.3f s, %zu rounds, %zu reconnects; latency "
                "median %.1f us, p99 %.1f us, p%g %.1f us (%zu samples)",
                latency.count, load.window_s, rounds.count, reconnects.count,
                latency.median, nearest_rank(latency_us, 99.0),
                latency.tail_percentile, latency.tail, latency.count);
  result.notes.emplace_back(line);

  if (traced) {
    for (const char* kind : kKindSpan) {
      std::vector<double> us = result.spans.durations(kind);
      for (double& s : us) s *= 1e6;
      std::sort(us.begin(), us.end());
      const std::string stem(kind);
      result.add(stem + ".p50_us", us.empty() ? 0.0 : nearest_rank(us, 50.0),
                 "us");
      result.add(stem + ".p99_us", us.empty() ? 0.0 : nearest_rank(us, 99.0),
                 "us");
    }
    result.add("serve.connect_us", order_stats(connect_us).median, "us");
    result.add("serve.queue_high_water",
               static_cast<double>(daemon.daemon->queue().high_water()),
               "count");
    double occupancy = 0.0;
    for (const auto& metric : obs::MetricsRegistry::global().snapshot())
      if (metric.name == "rp.serve.batch.occupancy") occupancy = metric.mean();
    result.add("serve.batch_occupancy_mean", occupancy, "count");
    result.add("serve.busy_ratio",
               static_cast<double>(busy) / static_cast<double>(requests),
               "ratio");
    result.add("serve.pool_hit_ratio", pool_hit_ratio(*daemon.daemon), "ratio");
    const double traced_round = order_stats(traced->round_s).median;
    result.add("trace.pipeline_s", traced_round, "s");
    result.add("trace.overhead_s", traced_round - rounds.median, "s");
  }
  return result;
}

}  // namespace rp::perfbench
