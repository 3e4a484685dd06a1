#include "gate.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "matching/stability.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace specbench {

namespace fs = std::filesystem;
using specmatch::serve::RequestType;

namespace {

/// Replay threads of the correctness gate. It runs while the server idles
/// between measured chunks, so they compete with nothing being timed.
constexpr int kGateThreads = 4;

/// Parses the matching out of "ok query <id> matched=<k> matching=a,-,b..".
/// False when the line does not have that shape or disagrees with itself.
bool parse_query(const std::string& line, int channels, int buyers,
                 specmatch::matching::Matching& out) {
  const std::size_t at = line.find(" matching=");
  const std::size_t k_at = line.find(" matched=");
  if (line.rfind("ok query ", 0) != 0 || at == std::string::npos ||
      k_at == std::string::npos)
    return false;
  out = specmatch::matching::Matching(channels, buyers);
  std::istringstream items(line.substr(at + 10));
  std::string item;
  int j = 0;
  while (std::getline(items, item, ',')) {
    if (j >= buyers) return false;
    if (item != "-") {
      const int seller = std::stoi(item);
      if (seller < 0 || seller >= channels) return false;
      out.match(j, seller);
    }
    ++j;
  }
  return j == buyers &&
         std::stoi(line.substr(k_at + 9)) == out.num_matched();
}

}  // namespace

void GateResult::add(const GateResult& other) {
  mismatches += other.mismatches;
  invalid += other.invalid;
  checked_queries += other.checked_queries;
  for (const std::string& note : other.notes)
    if (notes.size() < 3) notes.push_back(note);
}

/// One single-lane reference server and the shadow markets its queries are
/// checked against.
struct Gate::Reference {
  Reference(const specmatch::serve::ServeConfig& config, int markets)
      : server(config), shadow(static_cast<std::size_t>(markets)) {}

  /// Replays `order` (indices into `records`, in send order). Setup answers
  /// are compared only when `check_setup`.
  GateResult replay(const std::vector<Op>& ops,
                    const std::vector<Record>& records,
                    const std::vector<std::size_t>& order, bool check_setup);

  specmatch::serve::MatchServer server;
  std::vector<std::unique_ptr<specmatch::serve::MarketEntry>> shadow;
};

GateResult Gate::Reference::replay(const std::vector<Op>& ops,
                                   const std::vector<Record>& records,
                                   const std::vector<std::size_t>& order,
                                   bool check_setup) {
  GateResult result;
  for (const std::size_t r : order) {
    const Record& record = records[r];
    const Op& op = ops[record.op];
    const specmatch::serve::Response expected = server.handle(op.request);
    auto& entry = shadow[static_cast<std::size_t>(op.market)];
    switch (op.request.type) {
      case RequestType::kCreate:
        entry = std::make_unique<specmatch::serve::MarketEntry>(
            op.request.scenario);
        break;
      case RequestType::kJoin: entry->apply_join(op.request.buyer); break;
      case RequestType::kLeave: entry->apply_leave(op.request.buyer); break;
      case RequestType::kUpdatePrice:
        entry->apply_price(op.request.buyer, op.request.channel,
                           op.request.value);
        break;
      default: break;
    }
    if (!record.answered) continue;  // already counted as a failure
    if (record.phase == Phase::kSetup && !check_setup) continue;
    if (record.response != expected.text) {
      ++result.mismatches;
      if (result.notes.size() < 3)
        result.notes.push_back("mismatch on '" +
                               op.wire.substr(0, op.wire.find('\n')) +
                               "': got '" + record.response.substr(0, 120) +
                               "', expected '" +
                               expected.text.substr(0, 120) + "'");
      continue;
    }
    if (op.request.type != RequestType::kQuery) continue;
    ++result.checked_queries;
    specmatch::matching::Matching matching;
    const auto& market = entry->market;
    if (!parse_query(record.response, market.num_channels(),
                     market.num_buyers(), matching) ||
        !specmatch::matching::is_interference_free(market, matching) ||
        !specmatch::matching::is_individual_rational(market, matching)) {
      ++result.invalid;
      if (result.notes.size() < 3)
        result.notes.push_back("query of " + op.request.market_id +
                               " is not an interference-free, "
                               "individually rational matching");
    }
  }
  return result;
}

Gate::Gate(const Stream& stream, const std::string& workdir) {
  const WorkloadSpec& spec = stream.spec();
  specmatch::serve::ServeConfig config =
      specmatch::serve::ServeConfig::from_env();
  config.drain_lanes = 1;
  config.store = {};
  if (spec.store) {
    specmatch::serve::ServeConfig budgeted = config;
    budgeted.mem_budget_mb = static_cast<std::size_t>(spec.mem_mb);
    store_dir_ = fs::path(workdir) / "ref_store";
    fs::remove_all(store_dir_);
    fs::create_directories(store_dir_);
    budgeted.store.dir = store_dir_.string();
    budgeted_ = std::make_unique<Reference>(budgeted, spec.markets);
  }
  for (int w = 0; w < std::min(spec.markets, kGateThreads); ++w)
    references_.push_back(std::make_unique<Reference>(config, spec.markets));
}

Gate::~Gate() {
  budgeted_.reset();
  if (!store_dir_.empty()) fs::remove_all(store_dir_);
}

void Gate::check(const std::vector<Op>& ops,
                 const std::vector<Record>& records) {
  std::vector<std::vector<std::size_t>> orders(references_.size());
  std::vector<std::size_t> setup;
  for (std::size_t r = done_; r < records.size(); ++r) {
    const auto market = static_cast<std::size_t>(ops[records[r].op].market);
    orders[market % orders.size()].push_back(r);
    if (records[r].phase == Phase::kSetup) setup.push_back(r);
  }
  done_ = records.size();
  if (budgeted_ && !setup.empty())
    result_.add(budgeted_->replay(ops, records, setup, true));
  std::vector<GateResult> parts(orders.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < orders.size(); ++w)
      threads.emplace_back([&, w] {
        parts[w] =
            references_[w]->replay(ops, records, orders[w], !budgeted_);
      });
  }
  for (const GateResult& part : parts) result_.add(part);
}

}  // namespace specbench
