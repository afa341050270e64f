// Fixed-width experience embeddings for the warm-start retrieval index
// (DESIGN.md §12). A finished tuning session is summarized as one
// kEmbeddingDim vector:
//
//   [0, 4)    workload-type one-hot (WC, TS, PR, KM)
//   [4]       log-normalized input size: log1p(input_mb) / kInputLogScale
//   [5, 37)   per-knob sensitivity: |encode(best_config) - encode(defaults)|
//             over the 32-knob action space — which knobs the session
//             actually moved, and how far
//   [37, 41)  reward statistics of the session's online steps
//             (mean, min, max, last), each scaled by kRewardScale
//
// A *query* embedding describes a session that has not run yet, so only
// the workload one-hot and input-size slots are populated; the sensitivity
// and reward slots stay zero. Under the cosine metric those zero slots
// drop out of the inner product, leaving workload identity + input scale
// to drive the match while stored entries still carry their outcome
// signature for entry-vs-entry distances.
//
// Every function here is a pure function of its arguments — embeddings are
// deterministic, so retrieval results (and therefore warm-started session
// transcripts) stay bit-identical across threads and processes.
#pragma once

#include <array>
#include <cstddef>

#include "sparksim/config_space.hpp"
#include "sparksim/workloads.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::retrieval {

/// Distinct workload families in the one-hot prefix.
inline constexpr std::size_t kWorkloadTypes = 4;

/// Total embedding width: one-hot + input-size + knob sensitivity + reward
/// stats. 41 slots for the 32-knob pipeline space.
inline constexpr std::size_t kEmbeddingDim =
    kWorkloadTypes + 1 + sparksim::kNumKnobs + 4;

/// Divisor for the log1p(input_mb) slot; ~log(6.6e7 MB), so every realistic
/// dataset lands in (0, 1).
inline constexpr double kInputLogScale = 18.0;

/// Divisor for the reward-stat slots; session rewards live in roughly
/// [-4, 1], so scaled stats stay within [-1, 1] alongside the unit one-hot.
inline constexpr double kRewardScale = 4.0;

using Embedding = std::array<double, kEmbeddingDim>;

/// Embedding of a session that has not run yet: one-hot + input size only.
[[nodiscard]] Embedding embed_query(sparksim::WorkloadType type,
                                    double input_mb);

/// Full embedding of a finished session: embed_query plus the observed
/// knob-sensitivity profile (best config vs defaults, in action space) and
/// the reward statistics of the report's online steps.
[[nodiscard]] Embedding embed_report(sparksim::WorkloadType type,
                                     double input_mb,
                                     const tuners::TuningReport& report);

}  // namespace deepcat::retrieval
