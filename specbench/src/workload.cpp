#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "workload/generator.hpp"

namespace specbench {

using specmatch::serve::RequestType;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCreate: return "create";
    case Kind::kMutation: return "mutation";
    case Kind::kQuery: return "query";
    case Kind::kSolveWarm: return "solve_warm";
    case Kind::kSolveCold: return "solve_cold";
  }
  return "?";
}

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  spec.channels = 16;
  if (name == "serve-warm") {
    // Traffic between clears: 4 connections each own 2 of 8 markets and
    // send on a fixed clock, below the server's capacity.
    spec.markets = 8;
    spec.buyers = smoke ? 200 : 2000;
    spec.conns = 4;
    spec.open_loop = true;
    spec.rate_rps = smoke ? 400.0 : 1000.0;
  } else if (name == "solve-cold") {
    // Paper-scale clearing: one closed-loop client alternating two big
    // markets through price updates and full cold re-solves.
    spec.markets = 2;
    spec.buyers = smoke ? 1000 : 20000;
  } else if (name == "store-churn") {
    // A memory budget that keeps one or two of eight markets resident, so
    // every visit faults its market in from the snapshot store.
    spec.markets = 8;
    spec.buyers = 2000;
    spec.store = true;
    spec.mem_mb = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (serve-warm, solve-cold, store-churn)");
  }
  if (smoke) {
    spec.setups = 1;
    spec.warmup_s = 0.2;
  }
  return spec;
}

Stream::Stream(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(specmatch::Rng(seed).fork(1)) {
  // The markets are the same for every seed: at these sizes the solve cost
  // of one random market differs from the next by up to half, which would
  // swamp the run-to-run comparison. The seed drives the request stream:
  // which markets, buyers, channels and prices each request touches.
  specmatch::Rng root(kMarketSeed);
  for (int m = 0; m < spec_.markets; ++m) {
    specmatch::workload::WorkloadParams params;
    params.num_sellers = spec_.channels;
    params.num_buyers = spec_.buyers;
    // Area grows with N as in bench/serve_load: constant buyer density
    // keeps the per-channel interference graphs sparse.
    params.area_size = 10.0 * std::sqrt(std::max(spec_.buyers, 500) / 500.0);
    specmatch::Rng rng = root.fork(1000 + static_cast<std::uint64_t>(m));
    scenarios_.push_back(std::make_shared<const specmatch::market::Scenario>(
        specmatch::workload::generate_scenario(params, rng)));
  }
  after_setup();
}

void Stream::after_setup() {
  last_market_.assign(static_cast<std::size_t>(spec_.conns), -1);
  for (int m = 0; m < spec_.markets; ++m)
    last_market_[static_cast<std::size_t>(conn_of(m))] = m;
}

std::string Stream::market_id(int m) const {
  std::string id = "m";
  id += std::to_string(m);
  return id;
}

Op Stream::make(RequestType type, int market) const {
  Op op;
  op.market = market;
  op.request.type = type;
  op.request.market_id = market_id(market);
  switch (type) {
    case RequestType::kCreate:
      op.kind = Kind::kCreate;
      op.request.scenario = scenario(market);
      break;
    case RequestType::kQuery: op.kind = Kind::kQuery; break;
    case RequestType::kSolve: op.kind = Kind::kSolveCold; break;
    default: op.kind = Kind::kMutation; break;
  }
  return op;
}

Op Stream::price(int market) {
  Op op = make(RequestType::kUpdatePrice, market);
  op.request.buyer = static_cast<specmatch::BuyerId>(
      rng_.uniform_int(0, spec_.buyers - 1));
  op.request.channel = static_cast<specmatch::ChannelId>(
      rng_.uniform_int(0, spec_.channels - 1));
  op.request.value = rng_.uniform(0.0, 1.0);
  return op;
}

Op Stream::mutation(int market) {
  // Price updates dominate; joins and leaves balance so the active buyer
  // count stays near N.
  const double r = rng_.uniform();
  if (r < 0.70) return price(market);
  Op op = make(r < 0.85 ? RequestType::kLeave : RequestType::kJoin, market);
  op.request.buyer = static_cast<specmatch::BuyerId>(
      rng_.uniform_int(0, spec_.buyers - 1));
  return op;
}

void Stream::mark_switch(Op& op) {
  int& last = last_market_[static_cast<std::size_t>(conn_of(op.market))];
  op.after_switch = last != op.market;
  last = op.market;
}

std::vector<Op> Stream::setup_ops() const {
  std::vector<Op> ops;
  for (int m = 0; m < spec_.markets; ++m) {
    ops.push_back(make(RequestType::kCreate, m));
    ops.push_back(make(RequestType::kSolve, m));  // prime: solve cold
  }
  for (Op& op : ops) op.wire = specmatch::serve::format_request(op.request);
  return ops;
}

std::vector<Op> Stream::final_ops() const {
  std::vector<Op> ops;
  for (int m = 0; m < spec_.markets; ++m)
    ops.push_back(make(RequestType::kQuery, m));
  for (Op& op : ops) op.wire = specmatch::serve::format_request(op.request);
  return ops;
}

Op Stream::next() {
  if (pending_.empty()) {
    const std::int64_t step = step_++;
    if (spec_.name == "serve-warm") {
      // ~70% mutations, ~15% queries, ~15% warm solves, any market.
      const int market =
          static_cast<int>(rng_.uniform_int(0, spec_.markets - 1));
      const double r = rng_.uniform();
      if (r < 0.70) {
        pending_.push_back(mutation(market));
      } else if (r < 0.85) {
        pending_.push_back(make(RequestType::kQuery, market));
      } else {
        Op op = make(RequestType::kSolve, market);
        op.request.warm = true;
        op.kind = Kind::kSolveWarm;
        pending_.push_back(op);
      }
    } else if (spec_.name == "solve-cold") {
      // One cycle: 16 price updates, a cold solve, and a query that reads
      // the cleared matching back (the gate checks it).
      const int market = static_cast<int>(step % spec_.markets);
      for (int k = 0; k < 16; ++k) pending_.push_back(price(market));
      pending_.push_back(make(RequestType::kSolve, market));
      pending_.push_back(make(RequestType::kQuery, market));
    } else {
      // store-churn: markets round-robin; dirty visits (three rounds of 8
      // price updates, a warm solve and a read-back query) and clean visits
      // (one query) alternate, shifted every round so each market sees
      // both. The first requests after a fault-in run several times slower
      // than the rest and vary widely from run to run; with three rounds
      // they are a minority of each kind, so the medians sit among the
      // resident-market requests instead of between the two groups. The
      // rounds cost a few ms against a fault-in's ~200 ms.
      const int market = static_cast<int>(step % spec_.markets);
      const bool dirty = (step + step / spec_.markets) % 2 == 0;
      if (dirty) {
        for (int round = 0; round < 3; ++round) {
          for (int k = 0; k < 8; ++k) pending_.push_back(price(market));
          Op solve = make(RequestType::kSolve, market);
          solve.request.warm = true;
          solve.kind = Kind::kSolveWarm;
          pending_.push_back(solve);
          pending_.push_back(make(RequestType::kQuery, market));
        }
      } else {
        pending_.push_back(make(RequestType::kQuery, market));
      }
    }
    std::reverse(pending_.begin(), pending_.end());
  }
  Op op = std::move(pending_.back());
  pending_.pop_back();
  mark_switch(op);
  op.wire = specmatch::serve::format_request(op.request);
  return op;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace specbench
