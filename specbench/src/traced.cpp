// The traced run (--trace 1): per-layer metrics of the same seed, measured
// in-process after the wire run.
//
// The benchmark, not the program, records the spans: each is a benchmark-side
// scope around a call into one module's public API (RequestReader::next,
// MatchServer::handle, build_market, ComponentIndex, run_deferred_acceptance,
// run_transfer_invitation, solve_mwis, the SIMD kernels). Counters come from
// the program's own metrics registry and allocation counter, switched on only
// while the server handles requests, so the benchmark's extra engine calls
// never reach them. Three in-process replays of the wire run's measured
// requests, each on a fresh server, separate what one pass cannot:
//   U  untraced, one request at a time: service time per request;
//   T  traced, one request at a time: parse and engine spans, counters;
//   W  untraced, at the wire run's schedule: queueing wait.
// The wire latency of the same request (same seed, same stream) minus its
// parse and service time is the unaccounted remainder; T against U is the
// tracing overhead.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/alloc_count.hpp"
#include "common/bitset.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/simd.hpp"
#include "graph/components.hpp"
#include "graph/mwis.hpp"
#include "matching/deferred_acceptance.hpp"
#include "matching/transfer_invitation.hpp"
#include "matching/two_stage.hpp"
#include "matching/workspace.hpp"
#include "run.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace specbench {

namespace {

namespace fs = std::filesystem;
namespace metrics = specmatch::metrics;
using specmatch::serve::MarketEntry;
using specmatch::serve::MatchServer;
using specmatch::serve::RequestType;

/// How long pass U may replay measured requests; T and W replay the same
/// prefix.
constexpr double kReplayBudgetS = 6.0;

/// Spans kept in memory and written once at the end of the run.
class SpanLog {
 public:
  int begin(const char* name, std::int64_t request, int parent = -1) {
    spans_.push_back({name, Clock::now(), {}, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes `span`; returns its duration in ms.
  double end(int span) {
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.end = Clock::now();
    return ms_between(s.start, s.end);
  }
  template <typename Fn>
  double time(const char* name, std::int64_t request, int parent, Fn&& fn) {
    const int span = begin(name, request, parent);
    fn();
    return end(span);
  }
  /// Durations (ms) of every span called `name`; with `measured_only`, of
  /// measured-phase requests (setup requests carry negative ids).
  std::vector<double> durations(const std::string& name,
                                bool measured_only = false) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name && (!measured_only || s.request >= 0))
        out.push_back(ms_between(s.start, s.end));
    return out;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    const Clock::time_point epoch =
        spans_.empty() ? Clock::now() : spans_.front().start;
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      out << "{\"id\": " << k << ", \"name\": \"" << s.name
          << "\", \"start_us\": " << 1000.0 * ms_between(epoch, s.start)
          << ", \"end_us\": " << 1000.0 * ms_between(epoch, s.end)
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::int64_t request;
  };
  std::vector<Span> spans_;
};

/// A MatchServer configured like the launched one (default lanes, the
/// workload's memory budget, a fresh store when the workload has one).
std::unique_ptr<MatchServer> fresh_server(const WorkloadSpec& spec,
                                          const std::string& workdir,
                                          const std::string& tag) {
  specmatch::serve::ServeConfig config =
      specmatch::serve::ServeConfig::from_env();
  config.store = {};
  if (spec.store) {
    config.mem_budget_mb = static_cast<std::size_t>(spec.mem_mb);
    const fs::path dir = fs::path(workdir) / (tag + "_store");
    fs::remove_all(dir);
    fs::create_directories(dir);
    config.store.dir = dir.string();
  }
  return std::make_unique<MatchServer>(config);
}

bool is_solve(const Op& op) {
  return op.kind == Kind::kSolveWarm || op.kind == Kind::kSolveCold;
}

bool changes_state(const Op& op) {
  return op.kind == Kind::kMutation || is_solve(op);
}

void apply_mutation(MarketEntry& entry, const Op& op) {
  switch (op.request.type) {
    case RequestType::kJoin: entry.apply_join(op.request.buyer); break;
    case RequestType::kLeave: entry.apply_leave(op.request.buyer); break;
    case RequestType::kUpdatePrice:
      entry.apply_price(op.request.buyer, op.request.channel,
                        op.request.value);
      break;
    default: break;
  }
}

/// Counter delta between two registry snapshots.
std::int64_t delta(const metrics::Snapshot& a, const metrics::Snapshot& b,
                   std::string_view name) {
  return b.counter(name) - a.counter(name);
}

std::int64_t sum_simd_calls(const metrics::Snapshot& s) {
  std::int64_t total = 0;
  for (const auto& [name, value] : s.counters)
    if (name.rfind("simd.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".calls") == 0)
      total += value;
  return total;
}

/// Mean of a registry histogram over the interval between two snapshots.
double histogram_mean(const metrics::Snapshot& a, const metrics::Snapshot& b,
                      const std::string& name) {
  const auto find = [&name](const metrics::Snapshot& s) {
    for (const auto& [n, summary] : s.histograms)
      if (n == name) return summary;
    return metrics::Histogram::Summary{};
  };
  const auto sa = find(a);
  const auto sb = find(b);
  const auto count = sb.count - sa.count;
  return count == 0 ? 0.0 : (sb.sum - sa.sum) / static_cast<double>(count);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median ns per word of `kernel` over a `words`-word array.
template <typename Kernel>
double ns_per_word(std::size_t words, Kernel&& kernel) {
  const std::size_t reps = std::max<std::size_t>(1, 20'000'000 / words);
  std::vector<double> batches;
  std::size_t sink = 0;
  for (int b = 0; b < 5; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) sink += kernel();
    batches.push_back(1e6 * ms_between(t0, Clock::now()) /
                      static_cast<double>(reps * words));
  }
  volatile std::size_t keep = sink;
  (void)keep;
  return quantile(batches, 0.5);
}

}  // namespace

Metrics run_traced(const Options& options, const WorkloadSpec& spec,
                   const WireRun& wire) {
  // Trace runs make one launch: its records are the requests to replay.
  const Launch& launch = wire.launches.back();
  const Client& client = *launch.client;
  std::vector<const Op*> setup;
  std::vector<const Op*> measured;
  std::vector<double> wire_ms;
  std::vector<std::int64_t> request_id;
  std::vector<Clock::time_point::duration> offset;  // due - measured start
  double fallbacks = 0.0;
  double warm_solves = 0.0;
  for (std::size_t r = 0; r < client.records.size(); ++r) {
    const Record& record = client.records[r];
    const Op& op = client.ops[record.op];
    if (record.phase == Phase::kSetup) setup.push_back(&op);
    if (record.phase != Phase::kMeasured) continue;
    if (op.kind == Kind::kSolveWarm) {
      // A warm request answered cold carries a "fallback=<reason>" tag.
      warm_solves += 1.0;
      if (record.response.find(" fallback=") != std::string::npos)
        fallbacks += 1.0;
    }
    measured.push_back(&op);
    wire_ms.push_back(record.answered
                          ? ms_between(record.scheduled, record.received)
                          : -1.0);
    request_id.push_back(static_cast<std::int64_t>(r));
    offset.push_back(record.scheduled - client.measured_start);
  }
  std::cout << "traced: " << measured.size()
            << " measured requests to replay in-process\n";

  // --- pass U: untraced service time, one request at a time ---------------
  metrics::set_enabled(false);
  specmatch::alloc_count::set_counting(false);
  std::vector<double> service_u;
  std::vector<double> prime_u;
  {
    auto server = fresh_server(spec, options.workdir, "u");
    for (const Op* op : setup) {
      const Clock::time_point t0 = Clock::now();
      server->handle(op->request);
      if (op->kind == Kind::kSolveCold)
        prime_u.push_back(ms_between(t0, Clock::now()));
    }
    const Clock::time_point budget =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kReplayBudgetS));
    for (const Op* op : measured) {
      const Clock::time_point t0 = Clock::now();
      server->handle(op->request);
      const Clock::time_point t1 = Clock::now();
      service_u.push_back(ms_between(t0, t1));
      if (t1 > budget) break;
    }
  }
  const std::size_t n = service_u.size();

  // --- pass T: traced, one request at a time ------------------------------
  SpanLog log;
  std::vector<double> service_t(n, 0.0);
  std::vector<double> parse_ms(n, 0.0);
  std::vector<double> create_parse;
  std::vector<double> registry_create;
  std::vector<double> market_build;
  std::vector<double> components_build;
  double components_count = 0.0;
  double components_largest = 0.0;
  double resident_mb = 0.0;
  std::int64_t spills_measured = 0;
  std::int64_t faults_measured = 0;
  std::int64_t clean_spills = 0;
  std::int64_t steady_allocs = 0;
  metrics::Snapshot s0;
  metrics::Snapshot s1;
  metrics::Snapshot s_begin;
  {
    metrics::Registry::global().reset_all();
    s_begin = metrics::Registry::global().snapshot();
    specmatch::alloc_count::set_counting(true);
    metrics::set_enabled(true);
    auto server = fresh_server(spec, options.workdir, "t");
    std::vector<std::unique_ptr<MarketEntry>> shadow(
        static_cast<std::size_t>(spec.markets));
    specmatch::matching::MatchWorkspace workspace;
    specmatch::graph::MwisScratch scratch;

    // The registry's LRU, replayed from its spill/fault counters, to tell
    // spills of markets unchanged since their last fault-in ("clean").
    const auto markets = static_cast<std::size_t>(spec.markets);
    std::vector<std::uint64_t> last_use(markets, 0);
    std::vector<bool> resident(markets, false);
    std::vector<bool> changed(markets, true);
    std::uint64_t use = 0;
    bool count_store = false;

    const auto handle = [&](const Op& op, std::int64_t rid, int parent) {
      const std::int64_t spills0 = server->spills();
      const std::int64_t faults0 = server->faults();
      const double ms = log.time("server.handle", rid, parent,
                                 [&] { server->handle(op.request); });
      const auto m = static_cast<std::size_t>(op.market);
      std::int64_t spilled = server->spills() - spills0;
      const std::int64_t faulted = server->faults() - faults0;
      if (faulted > 0) changed[m] = false;
      while (spilled-- > 0) {
        std::size_t victim = markets;
        for (std::size_t v = 0; v < markets; ++v)
          if (v != m && resident[v] &&
              (victim == markets || last_use[v] < last_use[victim]))
            victim = v;
        if (victim == markets) break;
        resident[victim] = false;
        if (count_store) {
          ++spills_measured;
          if (!changed[victim]) ++clean_spills;
        }
      }
      if (count_store) faults_measured += faulted;
      resident[m] = true;
      last_use[m] = ++use;
      if (changes_state(op)) changed[m] = true;
      return ms;
    };

    // Engine spans on the shadow copy of the market, outside the counters.
    const auto engine = [&](MarketEntry& entry, const Op& op,
                            std::int64_t rid, int parent) {
      metrics::set_enabled(false);
      if (op.kind == Kind::kSolveWarm && entry.has_matching) {
        specmatch::matching::StageIIConfig config;
        if (entry.dirty_valid) config.participants = &entry.dirty;
        log.time("stage2", rid, parent, [&] {
          specmatch::matching::run_transfer_invitation(
              entry.market, entry.last, config, workspace);
        });
      } else {
        specmatch::matching::StageIResult stage1;
        log.time("stage1", rid, parent, [&] {
          stage1 = specmatch::matching::run_deferred_acceptance(
              entry.market, {}, workspace);
        });
        log.time("stage2", rid, parent, [&] {
          specmatch::matching::run_transfer_invitation(
              entry.market, stage1.matching, {}, workspace);
        });
        // One coalition solve per channel over its admissible buyers.
        const auto& market = entry.market;
        for (specmatch::ChannelId i = 0; i < market.num_channels(); ++i) {
          specmatch::DynamicBitset candidates(
              static_cast<std::size_t>(market.num_buyers()));
          for (specmatch::BuyerId j = 0; j < market.num_buyers(); ++j)
            if (market.admissible(i, j))
              candidates.set(static_cast<std::size_t>(j));
          log.time("mwis", rid, parent, [&] {
            specmatch::graph::solve_mwis(
                market.graph(i), market.channel_prices(i), candidates,
                specmatch::graph::MwisAlgorithm::kGwmin, scratch);
          });
        }
      }
      metrics::set_enabled(true);
    };

    const auto sync = [&](MarketEntry& entry, const Op& op) {
      if (is_solve(op)) {
        if (const auto* last = server->last_matching(op.request.market_id))
          entry.last = *last;
        entry.has_matching = true;
        entry.dirty.clear();
        entry.dirty_valid = true;
      } else {
        apply_mutation(entry, op);
      }
    };

    std::int64_t setup_id = -1;
    for (const Op* op : setup) {
      const std::int64_t rid = setup_id--;
      const int root = log.begin("request", rid);
      auto& entry = shadow[static_cast<std::size_t>(op->market)];
      if (op->kind == Kind::kCreate) {
        create_parse.push_back(log.time("protocol.parse", rid, root, [&] {
          std::istringstream in(op->wire);
          specmatch::serve::RequestReader reader(in);
          specmatch::serve::Request parsed;
          reader.next(parsed);
        }));
        registry_create.push_back(handle(*op, rid, root));
        metrics::set_enabled(false);
        std::unique_ptr<specmatch::market::SpectrumMarket> built;
        market_build.push_back(log.time("market.build", rid, root, [&] {
          built = std::make_unique<specmatch::market::SpectrumMarket>(
              specmatch::market::build_market(*op->request.scenario));
        }));
        components_build.push_back(
            log.time("components.build", rid, root, [&] {
              for (specmatch::ChannelId i = 0; i < built->num_channels();
                   ++i) {
                const specmatch::graph::ComponentIndex index(built->graph(i));
                components_count +=
                    static_cast<double>(index.num_components());
                components_largest =
                    std::max(components_largest,
                             static_cast<double>(index.largest_component()));
              }
            }));
        entry = std::make_unique<MarketEntry>(op->request.scenario);
        metrics::set_enabled(true);
      } else {
        engine(*entry, *op, rid, root);
        handle(*op, rid, root);
        sync(*entry, *op);
      }
      log.end(root);
    }
    components_count /= static_cast<double>(std::max<std::size_t>(
        1, create_parse.size()));
    resident_mb = static_cast<double>(server->resident_bytes()) / 1048576.0;

    s0 = metrics::Registry::global().snapshot();
    count_store = true;
    for (std::size_t k = 0; k < n; ++k) {
      const Op& op = *measured[k];
      const std::int64_t rid = request_id[k];
      const int root = log.begin("request", rid);
      parse_ms[k] = log.time("protocol.parse", rid, root, [&] {
        std::istringstream in(op.wire);
        specmatch::serve::RequestReader reader(in);
        specmatch::serve::Request parsed;
        reader.next(parsed);
      });
      auto& entry = *shadow[static_cast<std::size_t>(op.market)];
      if (is_solve(op)) engine(entry, op, rid, root);
      service_t[k] = handle(op, rid, root);
      sync(entry, op);
      log.end(root);
    }
    s1 = metrics::Registry::global().snapshot();
    steady_allocs = server->steady_allocs();
    metrics::set_enabled(false);
    specmatch::alloc_count::set_counting(false);
  }
  log.write((fs::path(options.workdir) / "spans.jsonl").string());

  // --- pass W: the wire run's schedule, in-process ------------------------
  std::vector<double> wait_ms;
  std::int64_t coalesced = 0;
  std::int64_t deduped = 0;
  {
    auto server = fresh_server(spec, options.workdir, "w");
    for (const Op* op : setup) server->handle(op->request);
    std::vector<Clock::time_point> due(n);
    std::vector<Clock::time_point> done(n);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t finished = 0;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t k = 0; k < n; ++k) {
      if (spec.open_loop) {
        due[k] = start + offset[k];
        std::this_thread::sleep_until(due[k]);
      } else {
        due[k] = Clock::now();
      }
      server->submit(measured[k]->request,
                     [&, k](const specmatch::serve::Response&) {
                       const Clock::time_point now = Clock::now();
                       std::lock_guard<std::mutex> lock(mutex);
                       done[k] = now;
                       ++finished;
                       cv.notify_all();
                     });
      if (!spec.open_loop) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return finished == k + 1; });
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return finished == n; });
    }
    for (std::size_t k = 0; k < n; ++k)
      wait_ms.push_back(ms_between(due[k], done[k]) - service_u[k]);
    coalesced = server->coalesced();
    deduped = server->solves_deduped();
  }

  // --- probes: pool speedup and SIMD kernels at this workload's size ------
  double speedup = 0.0;
  double t_one = 0.0;
  double t_default = 0.0;
  const int default_threads = specmatch::SpecmatchConfig::global().num_threads;
  {
    const auto market =
        specmatch::market::build_market(*setup.front()->request.scenario);
    specmatch::matching::MatchWorkspace workspace;
    const auto time_two_stage = [&](int threads) {
      specmatch::SpecmatchConfig::global().num_threads = threads;
      specmatch::matching::run_two_stage(market, {}, workspace);  // warm-up
      std::vector<double> samples;
      for (int r = 0; r < 3; ++r) {
        const Clock::time_point t0 = Clock::now();
        specmatch::matching::run_two_stage(market, {}, workspace);
        samples.push_back(ms_between(t0, Clock::now()));
      }
      return quantile(samples, 0.5);
    };
    t_one = time_two_stage(1);
    t_default = time_two_stage(default_threads);
    specmatch::SpecmatchConfig::global().num_threads = default_threads;
    speedup = ratio(t_one, t_default);
  }
  const std::size_t words = (static_cast<std::size_t>(spec.buyers) + 63) / 64;
  std::vector<std::uint64_t> zeros(words, 0);
  zeros.back() = 1;  // the scan walks every word
  std::vector<std::uint64_t> a(words);
  std::vector<std::uint64_t> b(words);
  specmatch::Rng rng(options.seed);
  for (std::size_t w = 0; w < words; ++w) {
    a[w] = rng.next_u64();
    b[w] = rng.next_u64();
  }
  const double find_ns = ns_per_word(words, [&] {
    return specmatch::simd::find_nonzero_word(zeros.data(), 0, words);
  });
  const double popcount_ns = ns_per_word(words, [&] {
    return specmatch::simd::and_popcount(a.data(), b.data(), words);
  });

  // --- derived figures ----------------------------------------------------
  const auto pick = [&](auto pred, const std::vector<double>& values) {
    std::vector<double> out;
    for (std::size_t k = 0; k < n; ++k)
      if (pred(*measured[k])) out.push_back(values[k]);
    return out;
  };
  // Per-kind figures leave out the first request after a market switch,
  // as the end-to-end latencies do (in store-churn it carries the fault).
  const auto of_kind = [](Kind kind) {
    return [kind](const Op& op) { return op.kind == kind && !op.after_switch; };
  };
  std::vector<double> overhead;
  std::vector<double> remainder;
  for (std::size_t k = 0; k < n; ++k) {
    overhead.push_back(wire_ms[k] - service_u[k]);
    remainder.push_back(wire_ms[k] - parse_ms[k] - service_u[k]);
  }
  std::vector<double> cold_service = pick(of_kind(Kind::kSolveCold), service_u);
  if (cold_service.empty()) cold_service = prime_u;  // setup's cold solves

  const double stage1_runs = static_cast<double>(s1.counter("stage1.runs"));
  const double stage2_runs = static_cast<double>(s1.counter("stage2.runs"));
  const double solves =
      static_cast<double>(s1.counter("two_stage.runs")) +
      static_cast<double>(s1.counter("serve.warm_restricted"));
  const double proposals = static_cast<double>(s1.counter("stage1.proposals"));
  const double applications =
      static_cast<double>(s1.counter("stage2.transfer_applications"));
  const double heap_pops = static_cast<double>(s1.counter("mwis.heap_pops"));
  const double requests = static_cast<double>(std::max<std::size_t>(1, n));
  const double service_sum_u =
      std::accumulate(service_u.begin(), service_u.end(), 0.0);
  const double service_sum_t =
      std::accumulate(service_t.begin(), service_t.end(), 0.0);
  // Stage II as the measured phase runs it (warm or cold); workloads that
  // solve only in setup fall back to the priming solves.
  std::vector<double> stage2_ms = log.durations("stage2", true);
  if (stage2_ms.empty()) stage2_ms = log.durations("stage2");
  std::int64_t answered = 0;
  for (const Record& record : client.records)
    if (record.phase == Phase::kMeasured && record.answered) ++answered;
  const double wall_s =
      ms_between(client.measured_start, client.measured_end) / 1000.0;
  double bytes_per_snapshot = 0.0;
  if (spec.store) {
    double bytes = 0.0;
    double files = 0.0;
    for (const auto& file :
         fs::directory_iterator(fs::path(options.workdir) / "t_store")) {
      if (file.path().extension() != ".spms") continue;
      bytes += static_cast<double>(file.file_size());
      files += 1.0;
    }
    bytes_per_snapshot = ratio(bytes, files);
  }

  Metrics m;
  const auto add = [&m](const std::string& name, double value,
                        const std::string& unit) {
    m.push_back({name, {value, unit}});
  };
  add("net.overhead_p50_ms", quantile(overhead, 0.5), "ms");
  add("net.bytes_out_per_req",
      ratio(static_cast<double>(client.measured_bytes_in),
            static_cast<double>(answered)),
      "B");
  add("protocol.parse_us_per_req", 1000.0 * mean(parse_ms), "us");
  add("protocol.create_parse_ms", mean(create_parse), "ms");
  add("server.mutation_ms",
      quantile(pick(of_kind(Kind::kMutation), service_u), 0.5), "ms");
  add("server.query_ms", quantile(pick(of_kind(Kind::kQuery), service_u), 0.5),
      "ms");
  add("server.solve_warm_ms",
      quantile(pick(of_kind(Kind::kSolveWarm), service_u), 0.5), "ms");
  add("server.solve_cold_ms", quantile(cold_service, 0.5), "ms");
  add("server.wait_p99_ms", quantile(wait_ms, 0.99), "ms");
  add("server.coalesced", static_cast<double>(coalesced) / requests, "1/req");
  add("server.solves_deduped", static_cast<double>(deduped) / requests,
      "1/req");
  add("server.cpu_util",
      ratio(launch.measured_end.cpu_s - launch.measured_start.cpu_s, wall_s),
      "ratio");
  add("registry.create_ms", mean(registry_create), "ms");
  add("registry.resident_mb", resident_mb, "MB");
  add("registry.warm_fallback_ratio", ratio(fallbacks, warm_solves), "ratio");
  add("market.build_ms", mean(market_build), "ms");
  add("components.build_ms", mean(components_build), "ms");
  add("components.count", components_count, "count");
  add("components.largest", components_largest, "count");
  add("stage1.ms", mean(log.durations("stage1")), "ms");
  add("stage1.rounds", ratio(static_cast<double>(s1.counter("stage1.rounds")),
                             stage1_runs),
      "count");
  add("stage1.proposals", ratio(proposals, stage1_runs), "count");
  add("stage1.rejection_ratio",
      ratio(static_cast<double>(s1.counter("stage1.rejections")), proposals),
      "ratio");
  add("stage2.ms", mean(stage2_ms), "ms");
  add("stage2.phase1_rounds",
      ratio(static_cast<double>(s1.counter("stage2.phase1_rounds")),
            stage2_runs),
      "count");
  add("stage2.applications", ratio(applications, stage2_runs), "count");
  add("stage2.accept_ratio",
      ratio(static_cast<double>(s1.counter("stage2.transfers_accepted")),
            applications),
      "ratio");
  add("mwis.calls", ratio(static_cast<double>(s1.counter("mwis.calls")),
                          solves),
      "count");
  add("mwis.us_per_call", 1000.0 * mean(log.durations("mwis")), "us");
  add("mwis.stale_pop_ratio",
      ratio(static_cast<double>(s1.counter("mwis.stale_pops")), heap_pops),
      "ratio");
  add("simd.calls",
      static_cast<double>(sum_simd_calls(s1) - sum_simd_calls(s0)) / requests,
      "1/req");
  add("simd.find_nonzero_ns_per_word", find_ns, "ns/word");
  add("simd.and_popcount_ns_per_word", popcount_ns, "ns/word");
  add("pool.speedup", speedup, "ratio");
  add("pool.tasks",
      static_cast<double>(delta(s0, s1, "pool.tasks")) / requests, "1/req");
  add("pool.steady_allocs", static_cast<double>(steady_allocs), "count");
  add("store.spill_ms", histogram_mean(s_begin, s1, "serve.store.spill_ms"),
      "ms");
  add("store.fault_ms", histogram_mean(s_begin, s1, "serve.store.fault_ms"),
      "ms");
  add("store.bytes_per_spill", bytes_per_snapshot, "B");
  add("store.spills", static_cast<double>(spills_measured) / requests,
      "1/req");
  add("store.faults", static_cast<double>(faults_measured) / requests,
      "1/req");
  add("store.clean_spill_ratio",
      ratio(static_cast<double>(clean_spills),
            static_cast<double>(spills_measured)),
      "ratio");
  add("unaccounted.mutation_ms",
      quantile(pick(of_kind(Kind::kMutation), remainder), 0.5), "ms");
  add("unaccounted.query_ms",
      quantile(pick(of_kind(Kind::kQuery), remainder), 0.5), "ms");
  add("unaccounted.solve_ms",
      quantile(pick([](const Op& op) { return is_solve(op) && !op.after_switch; },
                    remainder),
               0.5),
      "ms");
  add("trace.overhead_ratio", ratio(service_sum_t, service_sum_u), "ratio");
  add("loadgen.sched_lag_p99_ms", quantile(client.lag_ms, 0.99), "ms");

  std::cout << "bases: replayed=" << n << " stage1_runs=" << stage1_runs
            << " proposals=" << proposals << " stage2_runs=" << stage2_runs
            << " applications=" << applications << " heap_pops=" << heap_pops
            << " solves=" << solves << " warm_solves=" << warm_solves
            << " fallbacks=" << fallbacks << " spills=" << spills_measured
            << " faults=" << faults_measured
            << " pool_ms(1 lane)=" << t_one << " pool_ms(" << default_threads
            << " lanes)=" << t_default << " service_ms_untraced="
            << service_sum_u << " service_ms_traced=" << service_sum_t
            << " cpu_s=" << launch.measured_end.cpu_s - launch.measured_start.cpu_s
            << " wall_s=" << wall_s << "\n";
  // Self time per layer and request kind (medians, ms): wire latency splits
  // into parse + server service + the remainder no span covers.
  for (const Kind kind : {Kind::kMutation, Kind::kQuery, Kind::kSolveWarm,
                          Kind::kSolveCold}) {
    const auto wire_k = pick(of_kind(kind), wire_ms);
    if (wire_k.empty()) continue;
    std::cout << "layers " << kind_name(kind) << ": n=" << wire_k.size()
              << " wire=" << quantile(wire_k, 0.5)
              << " parse=" << quantile(pick(of_kind(kind), parse_ms), 0.5)
              << " service=" << quantile(pick(of_kind(kind), service_u), 0.5)
              << " remainder="
              << quantile(pick(of_kind(kind), remainder), 0.5) << "\n";
  }
  return m;
}

}  // namespace specbench
