// Versioned binary market snapshots: the on-disk format, a buffer-assembling
// writer, and an mmap-backed reader.
//
// A snapshot is one file: a 64-byte header (magic, version, endianness stamp,
// byte count, checksum), a section table, then flat payload sections each
// padded to a 64-byte boundary. The payloads are the exact arrays the
// resident MarketEntry works over — finalized CSR adjacency, price matrices,
// activity/dirty masks, the carried matching, scenario — so loading is
// page-in plus a handful of small copies, never a rebuild: the reader hands
// the mapped CSR pages straight to graph::InterferenceGraph::from_csr_view.
//
// Integrity is fail-loud: every load verifies magic, version, endianness
// stamp, declared length against the real file size, and an FNV-1a64
// checksum over everything past the header before any byte is interpreted.
// A snapshot that fails any check throws SnapshotError with an actionable
// message — a corrupt file can never become a silently wrong market. There
// is no cross-version or cross-endianness migration: a mismatch is an error,
// and the market is rebuilt from its create request instead (see
// docs/PERSISTENCE.md for the compatibility rules).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace specmatch::store {

/// Thrown on any snapshot I/O or validation failure. The message names the
/// file and the specific check that failed.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E534D5053ull;  // "SPMSNAP1" LE
inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::uint32_t kEndianStamp = 0x01020304;
inline constexpr std::size_t kSectionAlign = 64;

/// Section payload identifiers. Values are part of the on-disk format:
/// append new kinds, never renumber.
enum class SectionKind : std::uint32_t {
  kPrices = 1,        ///< live (masked) price matrix, double, M*N channel-major
  kBasePrices = 2,    ///< un-masked price matrix, double, M*N
  kReserves = 3,      ///< per-channel reserve prices, double, M
  kBuyerParents = 4,  ///< parent of each virtual buyer, int32, N
  kSellerParents = 5, ///< parent of each virtual channel, int32, M
  kActive = 6,        ///< per-buyer activity mask, uint8, N
  kDirty = 7,         ///< per-buyer dirty mask, uint8, N
  kMatching = 8,      ///< seller_of per buyer (-1 unmatched), int32, N
  kCounters = 9,      ///< per-market serving stats, int64, kNumCounters
  kScenarioSellerCounts = 10,  ///< m_i per parent seller, int32
  kScenarioBuyerDemands = 11,  ///< n_j per parent buyer, int32
  kScenarioLocations = 12,     ///< parent buyer (x, y) pairs, double, 2*B
  kScenarioRanges = 13,        ///< per-channel transmission range, double, M
  kScenarioUtilities = 14,     ///< scenario utilities, double, M*N
  kScenarioReserves = 15,      ///< scenario reserves, double, M or 0
  kGraphMeta = 16,     ///< one GraphMetaRecord per channel, M
  kGraphOffsets = 17,  ///< concatenated per-channel CSR offsets, uint32
  kGraphDegrees = 18,  ///< concatenated per-channel degree caches, uint32
  kGraphIds = 19,      ///< concatenated per-channel neighbour ids, u16/u32
};

inline constexpr std::size_t kNumCounters = 6;

/// Header flag bits.
inline constexpr std::uint32_t kFlagHasMatching = 1u << 0;
inline constexpr std::uint32_t kFlagDirtyValid = 1u << 1;

struct SnapshotHeader {
  std::uint64_t magic = kSnapshotMagic;
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t endian = kEndianStamp;
  std::uint64_t file_bytes = 0;  ///< whole file, header included
  std::uint64_t checksum = 0;    ///< FNV-1a64 over bytes [64, file_bytes)
  std::uint32_t section_count = 0;
  std::uint32_t num_channels = 0;  ///< M
  std::uint32_t num_buyers = 0;    ///< N
  std::uint32_t flags = 0;
  std::uint8_t reserved[16] = {};
};
static_assert(sizeof(SnapshotHeader) == 64);

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t pad = 0;
  std::uint64_t offset = 0;  ///< from file start; kSectionAlign-aligned
  std::uint64_t bytes = 0;   ///< payload bytes (padding excluded)
  std::uint64_t count = 0;   ///< element count
};
static_assert(sizeof(SectionEntry) == 32);

/// Per-channel record inside kGraphMeta. The three *_off fields are offsets
/// RELATIVE to the start of the kGraphOffsets / kGraphDegrees / kGraphIds
/// sections (each kSectionAlign-aligned within its blob), so the layout of
/// the blobs is independent of where they land in the file.
struct GraphMetaRecord {
  std::uint32_t rep = 1;     ///< legacy layout tag: written 1, load ignores it
  std::uint32_t narrow = 0;  ///< 1 => 16-bit neighbour ids
  std::uint64_t num_edges = 0;
  std::uint64_t max_degree = 0;
  std::uint64_t offsets_off = 0;  ///< num_vertices + 1 uint32 row starts
  std::uint64_t degrees_off = 0;  ///< num_vertices uint32 cached degrees
  std::uint64_t ids_off = 0;      ///< 2 * num_edges neighbour ids
};
static_assert(sizeof(GraphMetaRecord) == 48);

/// FNV-1a 64-bit over `bytes` — the snapshot checksum.
std::uint64_t fnv1a64(const void* data, std::size_t bytes);

/// Assembles a snapshot image in memory: sections are appended in call
/// order, each padded to kSectionAlign; finish() lays out the header and
/// section table, stamps the checksum, and returns the complete file image.
class SnapshotBuilder {
 public:
  void add_section(SectionKind kind, const void* data, std::size_t bytes,
                   std::size_t count);

  template <typename T>
  void add_array(SectionKind kind, std::span<const T> values) {
    add_section(kind, values.data(), values.size_bytes(), values.size());
  }

  std::vector<std::byte> finish(std::uint32_t num_channels,
                                std::uint32_t num_buyers, std::uint32_t flags);

 private:
  struct Pending {
    SectionKind kind;
    std::size_t count;
    std::vector<std::byte> payload;
  };
  std::vector<Pending> sections_;
};

/// Writes `image` to `path` atomically: the bytes go to `path + ".tmp"`,
/// optionally fsync'd, then renamed over `path`. Throws SnapshotError on any
/// I/O failure. Returns the image size.
std::uint64_t write_snapshot_file(const std::string& path,
                                  std::span<const std::byte> image,
                                  bool sync);

/// A read-only mmap of one snapshot file, fully verified at construction
/// (magic, version, endianness, length, checksum, section table bounds and
/// alignment). The mapping lives as long as the object; a MarketEntry
/// holding view-backed graphs keeps a shared_ptr to it.
class MappedSnapshot {
 public:
  explicit MappedSnapshot(std::string path);
  ~MappedSnapshot();

  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const std::string& path() const { return path_; }
  std::size_t size() const { return size_; }
  const SnapshotHeader& header() const;
  std::span<const SectionEntry> sections() const;

  /// Section of `kind`, or nullptr when the snapshot has none.
  const SectionEntry* find(SectionKind kind) const;
  /// Section of `kind`, or SnapshotError naming the missing section.
  const SectionEntry& require(SectionKind kind) const;

  /// The section's payload as a typed array; SnapshotError when the byte
  /// length is not count * sizeof(T).
  template <typename T>
  std::span<const T> array(const SectionEntry& entry) const {
    check_array(entry, sizeof(T));
    return {reinterpret_cast<const T*>(data_ + entry.offset),
            static_cast<std::size_t>(entry.count)};
  }

  /// Bounds-checked raw pointer `bytes` long at `offset` inside the
  /// section's payload (the CSR blobs address sub-arrays this way).
  const std::byte* section_bytes(const SectionEntry& entry,
                                 std::uint64_t offset,
                                 std::uint64_t bytes) const;

 private:
  void verify() const;
  void check_array(const SectionEntry& entry, std::size_t elem) const;
  [[noreturn]] void fail(const std::string& what) const;

  std::string path_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace specmatch::store
