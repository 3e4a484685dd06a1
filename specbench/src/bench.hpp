// Shared types of the specbench load generator: workload definitions, the
// deterministic request stream, per-request records and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "market/scenario.hpp"
#include "serve/protocol.hpp"

namespace specbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Request classes the end-to-end latencies are reported by.
enum class Kind : std::uint8_t {
  kCreate,
  kMutation,  ///< price / join / leave
  kQuery,
  kSolveWarm,
  kSolveCold,
};

const char* kind_name(Kind kind);

/// Which part of a run a request belongs to. Only kMeasured requests feed
/// the latency metrics; every request is checked by the correctness gate.
/// kWarmup requests run the measured mix just before the clock starts.
enum class Phase : std::uint8_t { kSetup, kWarmup, kMeasured, kFinal };

struct Op {
  specmatch::serve::Request request;
  std::string wire;  ///< the exact bytes sent (format_request)
  int market = 0;
  Kind kind = Kind::kMutation;
  /// First request on `market` after its connection last addressed another
  /// market (in store-churn: the request that faults the market in).
  bool after_switch = false;
};

struct WorkloadSpec {
  std::string name;
  int markets = 0;
  int channels = 0;  ///< M
  int buyers = 0;    ///< N
  int conns = 1;
  /// Open loop at `rate_rps` (requests scheduled on a fixed clock) when
  /// true; otherwise one request in flight per connection.
  bool open_loop = false;
  double rate_rps = 0.0;
  /// Server runs with --store and SPECMATCH_SERVE_MEM_MB = mem_mb.
  bool store = false;
  int mem_mb = 0;
  /// Server launches (each followed by creating and priming every market)
  /// per run; setup_s is their median. One of them is measured, in as many
  /// chunks.
  int setups = 3;
  /// Unmeasured traffic of the measured mix before each measured chunk.
  double warmup_s = 1.0;
};

/// The benchmark's workloads; `smoke` shrinks them to run in seconds.
WorkloadSpec workload_spec(const std::string& name, bool smoke);

/// Seed of the workloads' markets (fixed; see Stream::Stream).
inline constexpr std::uint64_t kMarketSeed = 20160627;

/// Deterministic request source for one workload and seed: the same seed
/// gives the same request sequence over the same markets.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  std::string market_id(int m) const;
  int conn_of(int market) const { return market % spec_.conns; }
  const std::shared_ptr<const specmatch::market::Scenario>& scenario(
      int m) const {
    return scenarios_[static_cast<std::size_t>(m)];
  }

  /// create + priming cold solve, for every market in order.
  std::vector<Op> setup_ops() const;
  /// Marks the setup ops as each connection's latest requests (a fresh
  /// server was just set up).
  void after_setup();
  /// The next request of the measured phase.
  Op next();
  /// A closing query per market (untimed; gated).
  std::vector<Op> final_ops() const;

 private:
  Op make(specmatch::serve::RequestType type, int market) const;
  Op price(int market);
  Op mutation(int market);
  void mark_switch(Op& op);

  WorkloadSpec spec_;
  specmatch::Rng rng_;
  std::vector<std::shared_ptr<const specmatch::market::Scenario>> scenarios_;
  std::int64_t step_ = 0;  ///< cycle / visit position
  std::vector<Op> pending_;  ///< rest of the current cycle or visit
  std::vector<int> last_market_;  ///< per connection
};

/// One request as sent and answered.
struct Record {
  std::size_t op = 0;  ///< index into the run's op list
  Phase phase = Phase::kMeasured;
  Clock::time_point scheduled{};  ///< due time (open loop) or send time
  Clock::time_point sent{};
  Clock::time_point received{};
  bool answered = false;
  std::string response;
};

/// Quantile by linear interpolation between closest ranks (the
/// statistics.quantiles "inclusive" convention); 0 when empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

}  // namespace specbench
