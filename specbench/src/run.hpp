// One benchmark run: the options it takes and the wire run every mode starts
// with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "gate.hpp"
#include "wire.hpp"

namespace specbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;   ///< specmatch_cli binary
  std::string workdir;  ///< scratch directory for port file, logs, stores
  bool smoke = false;
  bool plant_mismatch = false;  ///< self-test: corrupt one response
  bool plant_refused = false;   ///< self-test: one refused connect
};

/// One server launch: set up, measured (the run's last launch only),
/// closed.
struct Launch {
  double setup_s = 0.0;  ///< launch -> every market created and primed
  bool measured = false;
  ProcSample measured_start;
  ProcSample measured_end;
  ProcSample final_sample;
  std::unique_ptr<Client> client;
};

struct WireRun {
  std::vector<Launch> launches;
  GateResult gate;
  std::int64_t refused = 0;
  std::int64_t early_closes = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Launches the server `launches` times, each time creating and priming
/// every market (timed: setup_s). The first launch is measured: after its
/// setup it runs `launches` chunks of warm-up and measured traffic, then the
/// closing queries. The other launches run between its chunks, while it
/// idles, and their setup answers must equal its own. Each chunk goes
/// through the correctness gate before the next launch.
WireRun run_wire(const Options& options, const WorkloadSpec& spec,
                 Stream& stream, int launches);

/// Measured-phase latencies in ms of the records selected by `pick`, one
/// list per market.
template <typename Pick>
std::vector<std::vector<double>> latencies(const Client& client, Pick pick) {
  std::vector<std::vector<double>> out;
  for (const Record& record : client.records) {
    if (record.phase != Phase::kMeasured || !record.answered) continue;
    const Op& op = client.ops[record.op];
    if (!pick(op)) continue;
    const auto m = static_cast<std::size_t>(op.market);
    if (out.size() <= m) out.resize(m + 1);
    out[m].push_back(ms_between(record.scheduled, record.received));
  }
  return out;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// The per-layer metrics of the traced run (in-process, same seed).
Metrics run_traced(const Options& options, const WorkloadSpec& spec,
                   const WireRun& wire);

}  // namespace specbench
