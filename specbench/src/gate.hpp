// The correctness gate: every wire response against an in-process replay.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace specbench {

struct GateResult {
  std::int64_t mismatches = 0;  ///< answered, but not byte-identical
  std::int64_t invalid = 0;     ///< query matchings failing IF or IR
  std::int64_t checked_queries = 0;
  std::vector<std::string> notes;  ///< the first few failures, for stderr

  void add(const GateResult& other);
};

/// Replays one launch's requests through single-lane in-process
/// MatchServers configured like the launched server and compares each
/// answered response byte for byte. By the serving determinism contract a
/// response depends only on its market's request order, which every
/// connection preserves, so the markets replay on up to four references in
/// parallel threads. Under the store workload's memory budget a `create`
/// answer also names the markets it evicted: the setup requests replay on
/// one more reference with the same budget and a fresh store under
/// `workdir`. Every later answer must not depend on where a market was
/// kept, so it is checked against the references that keep every market
/// resident, and a spill or fault-in that changed an answer shows as a
/// mismatch. Each `query` matching is also checked for
/// interference-freedom and individual rationality against a shadow copy
/// of the market with the same mutations applied.
class Gate {
 public:
  Gate(const Stream& stream, const std::string& workdir);
  ~Gate();

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  /// Replays the records appended since the last call (in send order; each
  /// must be answered or given up on). The gate can so run between
  /// measured chunks, while the server idles.
  void check(const std::vector<Op>& ops, const std::vector<Record>& records);
  const GateResult& result() const { return result_; }

  struct Reference;

 private:
  std::filesystem::path store_dir_;
  std::unique_ptr<Reference> budgeted_;  ///< store workload: setup only
  std::vector<std::unique_ptr<Reference>> references_;
  std::size_t done_ = 0;
  GateResult result_;
};

}  // namespace specbench
