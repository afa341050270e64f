// The warm-start experience index: a flat store of finished-session
// summaries answering k-nearest-neighbor queries over their embeddings
// with the batched SIMD distance kernels (common/simd: one dispatched
// call scans the whole index, scalar→avx2→avx512).
//
// Determinism contract: `query` is a pure function of (index contents,
// query embedding, k, metric). Distances are computed by one batched
// kernel call per query and ties break on ascending entry order, so the
// same index returns the same neighbors on every thread and process —
// which is what keeps warm-started sessions bit-identical across the
// serving matrix. Within one SIMD tier results are exactly
// reproducible; across tiers distances agree to the 1e-12 kernel
// contract, and the suite's embedding geometry keeps every neighbor
// ordering far (>1e-6) from any tie that tolerance could flip.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "retrieval/embedding.hpp"
#include "sparksim/config_space.hpp"
#include "sparksim/workloads.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::retrieval {

/// One checkpointed session outcome. `best_action` is the session's best
/// configuration in encoded [0,1]^32 action space — exactly what a warm
/// session replays as its seed evaluations.
struct ExperienceEntry {
  std::string workload;        ///< HiBench case id, e.g. "TS-D1"
  std::uint64_t seed = 0;      ///< session seed that produced the outcome
  double best_cost = 0.0;      ///< best observed execution time (seconds)
  double default_cost = 0.0;   ///< default-config execution time (seconds)
  std::array<double, sparksim::kNumKnobs> best_action{};
  Embedding embedding{};

  friend bool operator==(const ExperienceEntry&,
                         const ExperienceEntry&) = default;
};

/// Default neighbor count for warm requests and the `index query` CLI:
/// enough seed evaluations to matter inside a 5-step budget while leaving
/// the actor room to fine-tune past them.
inline constexpr std::size_t kDefaultNeighbors = 3;

/// Distance metric for queries. Cosine is the default (scale-invariant, so
/// a query's zeroed outcome slots drop out); L2 is exposed for the CLI and
/// the property tests.
enum class Metric : int { kCosine = 0, kL2 = 1 };

[[nodiscard]] const char* metric_name(Metric m) noexcept;

/// Parses "cosine" / "l2"; throws std::invalid_argument on anything else.
[[nodiscard]] Metric metric_from_name(const std::string& name);

struct Neighbor {
  std::size_t entry = 0;    ///< index into entries()
  double distance = 0.0;
};

class ExperienceIndex {
 public:
  void add(ExperienceEntry entry);

  [[nodiscard]] const std::vector<ExperienceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// The k nearest entries to `query`, ascending by (distance, entry
  /// order). Returns fewer than k when the index is smaller.
  [[nodiscard]] std::vector<Neighbor> query(const Embedding& query,
                                            std::size_t k,
                                            Metric metric) const;

  /// Query by suite case: embeds (type, input_mb) and delegates to query.
  [[nodiscard]] std::vector<Neighbor> query_case(const sparksim::HiBenchCase& c,
                                                 std::size_t k,
                                                 Metric metric) const;

  friend bool operator==(const ExperienceIndex&,
                         const ExperienceIndex&) = default;

 private:
  std::vector<ExperienceEntry> entries_;
  std::vector<double> matrix_;  ///< row-major n x kEmbeddingDim, SIMD scan
};

/// Summarizes one finished session into an index entry (embedding included).
[[nodiscard]] ExperienceEntry entry_from_report(
    const sparksim::HiBenchCase& c, std::uint64_t seed,
    const tuners::TuningReport& report);

}  // namespace deepcat::retrieval
