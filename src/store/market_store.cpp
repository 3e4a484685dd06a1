#include "store/market_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"

namespace specmatch::store {

namespace {

namespace fs = std::filesystem;

bool env_flag_default(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::string(raw) != "0";
}

bool safe_id_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

constexpr char kHexDigits[] = "0123456789ABCDEF";
constexpr const char* kExtension = ".spms";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Rebuilds one channel graph from its snapshot sections as a zero-copy view
/// into the mapping. The legacy GraphMetaRecord::rep tag is not read: every
/// channel was written as CSR arrays, whatever layout it was resident in.
graph::InterferenceGraph load_graph(const MappedSnapshot& snap,
                                    const GraphMetaRecord& meta,
                                    std::size_t num_vertices,
                                    ChannelId channel) {
  const auto fail = [&](const std::string& what) {
    throw SnapshotError("snapshot " + snap.path() + ": channel " +
                        std::to_string(channel) + ": " + what);
  };
  const std::size_t n = num_vertices;
  const std::size_t total = 2 * static_cast<std::size_t>(meta.num_edges);
  const bool narrow = meta.narrow != 0;
  if (narrow != (n <= (std::size_t{1} << 16)))
    fail("neighbour-id width disagrees with the vertex count");

  const SectionEntry& offs_section = snap.require(SectionKind::kGraphOffsets);
  const SectionEntry& degs_section = snap.require(SectionKind::kGraphDegrees);
  const SectionEntry& ids_section = snap.require(SectionKind::kGraphIds);
  const auto* offsets = reinterpret_cast<const std::uint32_t*>(
      snap.section_bytes(offs_section, meta.offsets_off,
                         (n + 1) * sizeof(std::uint32_t)));
  const auto* degrees = reinterpret_cast<const std::uint32_t*>(
      snap.section_bytes(degs_section, meta.degrees_off,
                         n * sizeof(std::uint32_t)));
  const std::size_t id_bytes =
      narrow ? sizeof(std::uint16_t) : sizeof(std::uint32_t);
  const std::byte* ids_raw =
      snap.section_bytes(ids_section, meta.ids_off, total * id_bytes);

  // Structural validation up front: every later consumer indexes bitsets and
  // price rows with these values, so nothing out of range may leave here.
  if (offsets[0] != 0 || offsets[n] != total)
    fail("CSR offsets do not cover the neighbour array");
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) fail("CSR offsets are not monotone");
    if (degrees[v] != offsets[v + 1] - offsets[v])
      fail("cached degree disagrees with the CSR row length");
    max_degree = std::max<std::size_t>(max_degree, degrees[v]);
  }
  if (max_degree != meta.max_degree)
    fail("max degree disagrees with the cached degrees");
  // Rows must ascend strictly: the queries binary-search them and the
  // solvers' bit-for-bit contract walks them in order.
  const auto check_ids = [&](const auto* ids) {
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t k = offsets[v]; k < offsets[v + 1]; ++k) {
        if (static_cast<std::size_t>(ids[k]) >= n)
          fail("neighbour id " + std::to_string(ids[k]) +
               " out of range [0, " + std::to_string(n) + ")");
        if (k > offsets[v] && ids[k] <= ids[k - 1])
          fail("CSR row " + std::to_string(v) + " is not strictly ascending");
      }
  };

  graph::CsrView view;
  view.num_vertices = n;
  view.num_edges = meta.num_edges;
  view.max_degree = meta.max_degree;
  view.narrow = narrow;
  view.offsets = offsets;
  view.degrees = degrees;
  if (narrow) {
    view.ids16 = reinterpret_cast<const std::uint16_t*>(ids_raw);
    check_ids(view.ids16);
  } else {
    view.ids32 = reinterpret_cast<const std::uint32_t*>(ids_raw);
    check_ids(view.ids32);
  }

  return graph::InterferenceGraph::from_csr_view(view);
}

}  // namespace

StoreConfig StoreConfig::from_env() {
  StoreConfig config;
  if (const char* dir = std::getenv("SPECMATCH_STORE_DIR");
      dir != nullptr && dir[0] != '\0')
    config.dir = dir;
  config.spill = env_flag_default("SPECMATCH_STORE_SPILL", true);
  config.sync = env_flag_default("SPECMATCH_STORE_FSYNC", false);
  return config;
}

std::string encode_market_id(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    if (safe_id_char(c)) {
      out.push_back(c);
    } else {
      const auto b = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHexDigits[b >> 4]);
      out.push_back(kHexDigits[b & 0xF]);
    }
  }
  return out;
}

std::string decode_market_id(const std::string& stem) {
  std::string out;
  out.reserve(stem.size());
  for (std::size_t k = 0; k < stem.size(); ++k) {
    if (stem[k] == '%' && k + 2 < stem.size()) {
      const int hi = hex_value(stem[k + 1]);
      const int lo = hex_value(stem[k + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        k += 2;
        continue;
      }
    }
    out.push_back(stem[k]);
  }
  return out;
}

std::vector<std::byte> build_snapshot_image(const MarketStateView& state) {
  SPECMATCH_CHECK_MSG(state.market != nullptr && state.scenario != nullptr,
                      "snapshot needs a market and its scenario");
  const market::SpectrumMarket& market = *state.market;
  const auto m = static_cast<std::size_t>(market.num_channels());
  const auto n = static_cast<std::size_t>(market.num_buyers());
  SPECMATCH_CHECK(state.base_prices.size() == m * n);
  SPECMATCH_CHECK(state.active.size() == n);
  SPECMATCH_CHECK(state.dirty.size() == n);
  SPECMATCH_CHECK(state.matching.size() == n);

  SnapshotBuilder builder;

  std::vector<double> doubles;
  doubles.reserve(m * n);
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    const auto row = market.channel_prices(i);
    doubles.insert(doubles.end(), row.begin(), row.end());
  }
  builder.add_array<double>(SectionKind::kPrices, doubles);
  builder.add_array<double>(SectionKind::kBasePrices, state.base_prices);

  doubles.assign(m, 0.0);
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    doubles[static_cast<std::size_t>(i)] = market.reserve(i);
  builder.add_array<double>(SectionKind::kReserves, doubles);

  std::vector<std::int32_t> ints(n);
  for (BuyerId j = 0; j < market.num_buyers(); ++j)
    ints[static_cast<std::size_t>(j)] = market.buyer_parent(j);
  builder.add_array<std::int32_t>(SectionKind::kBuyerParents, ints);
  ints.assign(m, 0);
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    ints[static_cast<std::size_t>(i)] = market.seller_parent(i);
  builder.add_array<std::int32_t>(SectionKind::kSellerParents, ints);

  builder.add_array<std::uint8_t>(SectionKind::kActive, state.active);
  builder.add_array<std::uint8_t>(SectionKind::kDirty, state.dirty);
  builder.add_array<std::int32_t>(SectionKind::kMatching, state.matching);
  builder.add_section(SectionKind::kCounters, state.counters.data(),
                      state.counters.size() * sizeof(std::int64_t),
                      state.counters.size());

  const market::Scenario& scenario = *state.scenario;
  builder.add_array<std::int32_t>(
      SectionKind::kScenarioSellerCounts,
      std::span<const std::int32_t>(
          reinterpret_cast<const std::int32_t*>(
              scenario.seller_channel_counts.data()),
          scenario.seller_channel_counts.size()));
  builder.add_array<std::int32_t>(
      SectionKind::kScenarioBuyerDemands,
      std::span<const std::int32_t>(
          reinterpret_cast<const std::int32_t*>(scenario.buyer_demands.data()),
          scenario.buyer_demands.size()));
  doubles.clear();
  doubles.reserve(2 * scenario.buyer_locations.size());
  for (const graph::Point& p : scenario.buyer_locations) {
    doubles.push_back(p.x);
    doubles.push_back(p.y);
  }
  builder.add_array<double>(SectionKind::kScenarioLocations, doubles);
  builder.add_array<double>(SectionKind::kScenarioRanges,
                            std::span<const double>(scenario.channel_ranges));
  builder.add_array<double>(SectionKind::kScenarioUtilities,
                            std::span<const double>(scenario.utilities));
  builder.add_array<double>(
      SectionKind::kScenarioReserves,
      std::span<const double>(scenario.channel_reserves));

  // The adjacency sections: every channel's finalized CSR arrays, each
  // sub-array kSectionAlign-aligned inside its blob.
  const auto align_up = [](std::size_t v) {
    return (v + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
  };
  const auto append_bytes = [&](std::vector<std::byte>& blob, const void* src,
                                std::size_t bytes) {
    const std::size_t at = align_up(blob.size());
    blob.resize(at + bytes);
    if (bytes > 0) std::memcpy(blob.data() + at, src, bytes);
    return at;
  };
  std::vector<GraphMetaRecord> meta(m);
  std::vector<std::byte> offsets_blob;
  std::vector<std::byte> degrees_blob;
  std::vector<std::byte> ids_blob;
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    const graph::CsrView view = market.graph(i).csr_export();
    GraphMetaRecord& record = meta[static_cast<std::size_t>(i)];
    record.narrow = view.narrow ? 1 : 0;
    record.num_edges = view.num_edges;
    record.max_degree = view.max_degree;
    record.offsets_off = append_bytes(offsets_blob, view.offsets,
                                      (n + 1) * sizeof(std::uint32_t));
    record.degrees_off =
        append_bytes(degrees_blob, view.degrees, n * sizeof(std::uint32_t));
    const std::size_t total = 2 * view.num_edges;
    if (view.narrow)
      record.ids_off = append_bytes(ids_blob, view.ids16,
                                    total * sizeof(std::uint16_t));
    else
      record.ids_off = append_bytes(ids_blob, view.ids32,
                                    total * sizeof(std::uint32_t));
  }
  builder.add_section(SectionKind::kGraphMeta, meta.data(),
                      meta.size() * sizeof(GraphMetaRecord), meta.size());
  builder.add_section(SectionKind::kGraphOffsets, offsets_blob.data(),
                      offsets_blob.size(), offsets_blob.size());
  builder.add_section(SectionKind::kGraphDegrees, degrees_blob.data(),
                      degrees_blob.size(), degrees_blob.size());
  builder.add_section(SectionKind::kGraphIds, ids_blob.data(), ids_blob.size(),
                      ids_blob.size());

  std::uint32_t flags = 0;
  if (state.has_matching) flags |= kFlagHasMatching;
  if (state.dirty_valid) flags |= kFlagDirtyValid;
  return builder.finish(static_cast<std::uint32_t>(m),
                        static_cast<std::uint32_t>(n), flags);
}

LoadedMarket load_market(std::shared_ptr<MappedSnapshot> snapshot) {
  const MappedSnapshot& snap = *snapshot;
  const auto fail = [&](const std::string& what) {
    throw SnapshotError("snapshot " + snap.path() + ": " + what);
  };
  const SnapshotHeader& header = snap.header();
  const auto m = static_cast<std::size_t>(header.num_channels);
  const auto n = static_cast<std::size_t>(header.num_buyers);
  if (m == 0 || n == 0) fail("empty market dimensions");

  const auto require_count = [&](SectionKind kind, std::size_t count) {
    const SectionEntry& entry = snap.require(kind);
    if (entry.count != count)
      fail("section kind " +
           std::to_string(static_cast<std::uint32_t>(kind)) + " holds " +
           std::to_string(entry.count) + " elements, expected " +
           std::to_string(count));
    return entry;
  };

  LoadedMarket out;
  out.has_matching = (header.flags & kFlagHasMatching) != 0;
  out.dirty_valid = (header.flags & kFlagDirtyValid) != 0;

  const auto prices =
      snap.array<double>(require_count(SectionKind::kPrices, m * n));
  const auto base =
      snap.array<double>(require_count(SectionKind::kBasePrices, m * n));
  const auto reserves =
      snap.array<double>(require_count(SectionKind::kReserves, m));
  const auto buyer_parents =
      snap.array<std::int32_t>(require_count(SectionKind::kBuyerParents, n));
  const auto seller_parents =
      snap.array<std::int32_t>(require_count(SectionKind::kSellerParents, m));
  const auto active =
      snap.array<std::uint8_t>(require_count(SectionKind::kActive, n));
  const auto dirty =
      snap.array<std::uint8_t>(require_count(SectionKind::kDirty, n));
  const auto matching =
      snap.array<std::int32_t>(require_count(SectionKind::kMatching, n));
  const auto counters = snap.array<std::int64_t>(
      require_count(SectionKind::kCounters, kNumCounters));

  for (std::size_t j = 0; j < n; ++j)
    if (matching[j] < -1 || matching[j] >= static_cast<std::int32_t>(m))
      fail("matching assigns buyer " + std::to_string(j) +
           " to out-of-range seller " + std::to_string(matching[j]));

  // Scenario (owned copies: its vectors are std:: containers either way).
  auto scenario = std::make_shared<market::Scenario>();
  {
    const auto counts =
        snap.array<std::int32_t>(snap.require(SectionKind::kScenarioSellerCounts));
    const auto demands =
        snap.array<std::int32_t>(snap.require(SectionKind::kScenarioBuyerDemands));
    const auto locations =
        snap.array<double>(snap.require(SectionKind::kScenarioLocations));
    const auto ranges =
        snap.array<double>(require_count(SectionKind::kScenarioRanges, m));
    const auto utilities = snap.array<double>(
        require_count(SectionKind::kScenarioUtilities, m * n));
    const SectionEntry& scen_reserves =
        snap.require(SectionKind::kScenarioReserves);
    if (locations.size() != 2 * demands.size())
      fail("scenario locations disagree with the parent-buyer count");
    scenario->seller_channel_counts.assign(counts.begin(), counts.end());
    scenario->buyer_demands.assign(demands.begin(), demands.end());
    scenario->buyer_locations.resize(demands.size());
    for (std::size_t b = 0; b < demands.size(); ++b)
      scenario->buyer_locations[b] =
          graph::Point{locations[2 * b], locations[2 * b + 1]};
    scenario->channel_ranges.assign(ranges.begin(), ranges.end());
    scenario->utilities.assign(utilities.begin(), utilities.end());
    const auto scen_reserve_vals = snap.array<double>(scen_reserves);
    scenario->channel_reserves.assign(scen_reserve_vals.begin(),
                                      scen_reserve_vals.end());
    try {
      scenario->validate();
      if (scenario->num_channels() != static_cast<int>(m) ||
          scenario->num_virtual_buyers() != static_cast<int>(n))
        fail("scenario dimensions disagree with the header");
    } catch (const CheckError& e) {
      fail(std::string("inconsistent scenario: ") + e.what());
    }
  }
  out.scenario = std::move(scenario);

  const auto meta = snap.array<GraphMetaRecord>(
      require_count(SectionKind::kGraphMeta, m));
  std::vector<graph::InterferenceGraph> graphs;
  graphs.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    graphs.push_back(
        load_graph(snap, meta[i], n, static_cast<ChannelId>(i)));

  try {
    out.market = std::make_unique<market::SpectrumMarket>(
        static_cast<int>(m), static_cast<int>(n),
        std::vector<double>(prices.begin(), prices.end()), std::move(graphs),
        std::vector<int>(buyer_parents.begin(), buyer_parents.end()),
        std::vector<int>(seller_parents.begin(), seller_parents.end()),
        std::vector<double>(reserves.begin(), reserves.end()));
  } catch (const CheckError& e) {
    fail(std::string("inconsistent market sections: ") + e.what());
  }

  out.base_prices.assign(base.begin(), base.end());
  out.active.assign(active.begin(), active.end());
  out.dirty.assign(dirty.begin(), dirty.end());
  out.matching.assign(matching.begin(), matching.end());
  std::copy(counters.begin(), counters.end(), out.counters.begin());
  out.backing = std::move(snapshot);
  return out;
}

MarketStore::MarketStore(StoreConfig config) : config_(std::move(config)) {
  if (!config_.enabled()) return;
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec)
    throw SnapshotError("store directory " + config_.dir +
                        ": cannot create: " + ec.message());
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != kExtension) continue;
    sizes_[decode_market_id(p.stem().string())] =
        static_cast<std::uint64_t>(entry.file_size());
  }
  if (ec)
    throw SnapshotError("store directory " + config_.dir +
                        ": cannot scan: " + ec.message());
}

std::vector<std::string> MarketStore::ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sizes_.size());
  for (const auto& [id, bytes] : sizes_) out.push_back(id);
  return out;
}

bool MarketStore::contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sizes_.count(id) != 0;
}

std::string MarketStore::path_for(const std::string& id) const {
  return (fs::path(config_.dir) / (encode_market_id(id) + kExtension))
      .string();
}

std::uint64_t MarketStore::write(const std::string& id,
                                 const MarketStateView& state) {
  SPECMATCH_CHECK_MSG(enabled(), "market store has no directory configured");
  const std::vector<std::byte> image = build_snapshot_image(state);
  const std::uint64_t bytes =
      write_snapshot_file(path_for(id), image, config_.sync);
  std::lock_guard<std::mutex> lock(mutex_);
  sizes_[id] = bytes;
  return bytes;
}

LoadedMarket MarketStore::load(const std::string& id) const {
  SPECMATCH_CHECK_MSG(enabled(), "market store has no directory configured");
  return load_market(std::make_shared<MappedSnapshot>(path_for(id)));
}

bool MarketStore::remove(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sizes_.erase(id) == 0) return false;
  }
  std::error_code ec;
  fs::remove(path_for(id), ec);
  return true;
}

std::uint64_t MarketStore::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [id, bytes] : sizes_) total += bytes;
  return total;
}

std::uint64_t MarketStore::bytes_for(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sizes_.find(id);
  return it == sizes_.end() ? 0 : it->second;
}

}  // namespace specmatch::store
