// specbench: the repository's wire-level benchmark.
//
//   specbench --workload serve-warm|solve-cold|store-churn --seed N
//             --seconds S --trace 0|1 --server PATH --workdir DIR
//             [--smoke] [--plant-mismatch] [--plant-refused]
//
// One load-generator process (this one, a single poll(2) thread) drives a
// separate `specmatch_cli serve --listen` process over loopback TCP with the
// client verbs only, checks every response against an in-process replay,
// and prints a report followed by one JSON line:
//   --trace 0: the end-to-end metrics (client-side, tracing off);
//   --trace 1: the per-layer metrics of an in-process traced run of the same
//              seed (see traced.cpp).
// The exit status is 0 only when every request was answered correctly.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "run.hpp"

namespace specbench {

namespace {

/// Bound on the open-loop generator's lateness (send time - due time, p99).
constexpr double kMaxSchedLagP99Ms = 10.0;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "specbench: " << message
            << "\nusage: specbench --workload W --seed N --seconds S "
               "--trace 0|1 --server PATH --workdir DIR [--smoke] "
               "[--plant-mismatch] [--plant-refused]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string key = argv[a];
    if (key == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (key == "--plant-mismatch") {
      o.plant_mismatch = true;
      continue;
    }
    if (key == "--plant-refused") {
      o.plant_refused = true;
      continue;
    }
    if (a + 1 >= argc) usage(key + " needs a value");
    const std::string value = argv[++a];
    try {
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") o.seconds = std::stod(value);
      else if (key == "--trace") o.trace = std::stoi(value) != 0;
      else if (key == "--server") o.server = value;
      else if (key == "--workdir") o.workdir = value;
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (o.workload.empty() || o.server.empty() || o.workdir.empty())
    usage("--workload, --server and --workdir are required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    out << (k ? ", " : "") << "\"" << metrics[k].first << "\": {\"value\": "
        << number(metrics[k].second.value) << ", \"unit\": \""
        << metrics[k].second.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

bool is_solve(const Op& op) {
  return op.kind == Kind::kSolveWarm || op.kind == Kind::kSolveCold;
}

std::vector<double> pooled(const std::vector<std::vector<double>>& lists) {
  std::vector<double> out;
  for (const auto& list : lists) out.insert(out.end(), list.begin(), list.end());
  return out;
}

/// The mean over markets of each market's median. The markets of a
/// workload differ in size of reply and solve, so the median of the pooled
/// samples would sit in the gap between two markets' clusters and jump
/// with the share of samples each happened to get.
double market_median(const std::vector<std::vector<double>>& lists) {
  std::vector<double> medians;
  for (const auto& list : lists)
    if (!list.empty()) medians.push_back(quantile(list, 0.5));
  return mean(medians);
}

/// Client-side end-to-end metrics of the wire run. Switch requests (the
/// first on a market after its connection addressed another; in
/// store-churn they carry the fault-in) are left out of the per-kind
/// latencies.
Metrics end_to_end(const WireRun& run) {
  const Client& c = *run.launches.back().client;
  const auto mutation = latencies(c, [](const Op& op) {
    return op.kind == Kind::kMutation && !op.after_switch;
  });
  const auto query = latencies(c, [](const Op& op) {
    return op.kind == Kind::kQuery && !op.after_switch;
  });
  const auto solve = latencies(
      c, [](const Op& op) { return is_solve(op) && !op.after_switch; });
  const auto switched =
      pooled(latencies(c, [](const Op& op) { return op.after_switch; }));
  std::int64_t answered = 0;
  for (const Record& record : c.records)
    if (record.phase == Phase::kMeasured && record.answered) ++answered;
  const double wall_s = c.measured_s;
  double peak_mb = 0.0;
  std::vector<double> setups;
  for (const Launch& launch : run.launches) {
    peak_mb = std::max(peak_mb, launch.final_sample.hwm_mb);
    setups.push_back(launch.setup_s);
  }
  // Figures too unsteady on a shared host to bound (see README.md): in
  // the report only.
  std::cout << "samples: mutation=" << pooled(mutation).size()
            << " query=" << pooled(query).size()
            << " solve=" << pooled(solve).size()
            << " switch=" << switched.size() << " answered=" << answered
            << " wall_s=" << wall_s << "\nunbounded: mutation_p99_ms="
            << quantile(pooled(mutation), 0.99)
            << " query_p99_ms=" << quantile(pooled(query), 0.99)
            << " solve_p90_ms=" << quantile(pooled(solve), 0.90)
            << " switch_p50_ms=" << quantile(switched, 0.50)
            << " switch_p90_ms=" << quantile(switched, 0.90)
            << " sched_lag_p99_ms=" << quantile(c.lag_ms, 0.99)
            << "\nsetups_s=";
  for (double s : setups) std::cout << s << " ";
  std::cout << "\nper-market p50_ms (mutation/query/solve):";
  for (std::size_t m = 0;
       m < std::max({mutation.size(), query.size(), solve.size()}); ++m) {
    const auto p50 = [m](const std::vector<std::vector<double>>& lists) {
      return m < lists.size() ? quantile(lists[m], 0.5) : 0.0;
    };
    std::cout << " m" << m << "=" << p50(mutation) << "/" << p50(query) << "/"
              << p50(solve);
  }
  std::cout << "\n";
  return {{"setup_s", {quantile(setups, 0.5), "s"}},
          {"peak_rss_mb", {peak_mb, "MB"}},
          {"throughput_rps",
           {wall_s > 0 ? static_cast<double>(answered) / wall_s : 0.0,
            "1/s"}},
          {"mutation_p50_ms", {market_median(mutation), "ms"}},
          {"query_p50_ms", {market_median(query), "ms"}},
          {"solve_p50_ms", {market_median(solve), "ms"}}};
}

}  // namespace

WireRun run_wire(const Options& options, const WorkloadSpec& spec,
                 Stream& stream, int launches) {
  WireRun run;
  const std::vector<Op> setup_ops = stream.setup_ops();
  Gate gate(stream, options.workdir);
  std::int64_t unanswered = 0;
  std::int64_t errors = 0;
  std::int64_t requests = 0;
  const auto tally = [&](const Client& client) {
    for (const Record& record : client.records) {
      if (!record.answered)
        ++unanswered;
      else if (record.response.rfind("err", 0) == 0)
        ++errors;
    }
    requests += static_cast<std::int64_t>(client.records.size());
    run.refused += client.refused;
    run.early_closes += client.early_closes;
  };

  // The measured launch: set up, then one measured chunk per launch.
  Launch measured;
  measured.measured = true;
  Clock::time_point t0 = Clock::now();
  ServerProcess server(options.server, options.workdir, "measured", spec);
  measured.client = std::make_unique<Client>(server.port(), spec.conns);
  Client& client = *measured.client;
  client.run_sequential(setup_ops, spec.conns, Phase::kSetup, 600.0);
  measured.setup_s = ms_between(t0, Clock::now()) / 1000.0;
  gate.check(client.ops, client.records);
  stream.after_setup();
  // Trace runs replay every non-setup request as measured.
  const double warmup_s = options.trace ? 0.0 : spec.warmup_s;
  measured.measured_start = server.sample();
  for (int k = 0; k < launches; ++k) {
    if (k > 0) {
      // A setup-only launch, while the measured server idles. It made the
      // same requests on a fresh server as the measured launch's setup, so
      // it must have drawn the same answers, byte for byte.
      Launch launch;
      t0 = Clock::now();
      ServerProcess other(options.server, options.workdir,
                          "setup" + std::to_string(k), spec);
      launch.client = std::make_unique<Client>(other.port(), spec.conns);
      launch.client->run_sequential(setup_ops, spec.conns, Phase::kSetup,
                                    600.0);
      launch.setup_s = ms_between(t0, Clock::now()) / 1000.0;
      launch.final_sample = other.sample();
      launch.client->close();
      other.stop();
      const std::vector<Record>& got = launch.client->records;
      for (std::size_t r = 0; r < got.size(); ++r) {
        if (!got[r].answered) continue;  // counted as a failure below
        if (client.records[r].answered &&
            got[r].response == client.records[r].response)
          continue;
        ++run.gate.mismatches;
        if (run.gate.notes.size() < 3)
          run.gate.notes.push_back(
              "setup launch " + std::to_string(k) + " answered request " +
              std::to_string(r) + " differently from the measured launch");
      }
      tally(*launch.client);
      run.launches.push_back(std::move(launch));
    }
    // The chunks spread the measured seconds over the whole run: the
    // host's speed drifts over tens of seconds.
    client.run_measured(stream, warmup_s, options.seconds / launches);
    if (options.plant_mismatch && k == 0) {
      for (Record& record : client.records) {
        if (record.phase == Phase::kMeasured && record.answered) {
          record.response += " planted";
          break;
        }
      }
    }
    gate.check(client.ops, client.records);
  }
  measured.measured_end = server.sample();
  client.run_sequential(stream.final_ops(), spec.conns, Phase::kFinal,
                        120.0);
  measured.final_sample = server.sample();
  client.close();
  server.stop();
  gate.check(client.ops, client.records);
  tally(client);
  run.launches.push_back(std::move(measured));
  if (options.plant_refused && connect_refused_probe()) ++run.refused;

  run.gate.add(gate.result());
  run.attempted = requests + run.refused;
  run.failed = unanswered + errors + run.gate.mismatches + run.gate.invalid +
               run.refused + run.early_closes;
  std::cerr << "wire: requests=" << requests << " unanswered=" << unanswered
            << " err=" << errors << " mismatched=" << run.gate.mismatches
            << " invalid_matchings=" << run.gate.invalid << " (of "
            << run.gate.checked_queries << " queries checked)"
            << " refused=" << run.refused
            << " early_closes=" << run.early_closes << "\n";
  for (const std::string& note : run.gate.notes)
    std::cerr << "gate: " << note << "\n";
  return run;
}

}  // namespace specbench

int main(int argc, char** argv) {
  using namespace specbench;
  const Options options = parse(argc, argv);
  try {
    const WorkloadSpec spec = workload_spec(options.workload, options.smoke);
    std::filesystem::create_directories(options.workdir);
    Stream stream(spec, options.seed);
    // The traced run needs one launch only: setup_s is an end-to-end metric.
    WireRun wire = run_wire(options, spec, stream,
                            options.trace ? 1 : spec.setups);
    Metrics metrics = end_to_end(wire);
    const double error_rate =
        static_cast<double>(wire.failed) /
        static_cast<double>(std::max<std::int64_t>(1, wire.attempted));
    std::cout << "error_rate=" << error_rate << " (" << wire.failed << " of "
              << wire.attempted << " attempted)\n";
    if (options.trace) metrics = run_traced(options, spec, wire);
    for (const auto& [name, metric] : metrics)
      std::cout << "  " << name << " = " << metric.value << " "
                << metric.unit << "\n";
    // An open-loop run is invalid when the generator itself fell behind:
    // its latencies would then include the generator's own lateness.
    const std::vector<double>& lag = wire.launches.back().client->lag_ms;
    const bool on_time = quantile(lag, 0.99) <= kMaxSchedLagP99Ms;
    if (!on_time)
      std::cerr << "specbench: invalid run: generator lag p99 "
                << quantile(lag, 0.99) << " ms > " << kMaxSchedLagP99Ms
                << " ms\n";
    const bool correct = wire.failed == 0 && on_time;
    if (!correct) std::cerr << "specbench: correctness gate failed\n";
    print_json(correct, wire.attempted, wire.failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "specbench: " << e.what() << "\n";
    return 2;
  }
}
