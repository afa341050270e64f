// Seeded micro-batch arrival process: a schedule of load phases (steady
// Poisson-like, bursty, diurnal) that shift mid-session. Every batch size
// is a pure function of (stream seed, window index, batch index), so two
// sessions with the same seed see byte-identical load no matter how many
// threads serve them — the determinism anchor the phase-shift
// stress tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace deepcat::streamsim {

enum class PhaseKind { kSteady, kBurst, kDiurnal };

[[nodiscard]] std::string to_string(PhaseKind kind);

/// One load phase of the arrival schedule.
struct PhaseSpec {
  PhaseKind kind = PhaseKind::kSteady;
  double mean_batch_mb = 64.0;   ///< offered load per batch (pre-noise)
  int duration_windows = 4;      ///< evaluation windows this phase spans
  /// kBurst: every kBurstPeriod-th batch is multiplied by this.
  /// kDiurnal: peak-to-mean swing of the sinusoid.
  double swing = 2.0;
};

/// The arrival schedule: phases play in order; the last phase holds
/// forever (a session may run longer than the scheduled windows).
struct PhaseSchedule {
  std::vector<PhaseSpec> phases;

  /// Phase active at `window` (0-based); clamps to the last phase.
  [[nodiscard]] int phase_index(int window) const;
  [[nodiscard]] const PhaseSpec& phase_at(int window) const {
    return phases[static_cast<std::size_t>(phase_index(window))];
  }
  /// Total scheduled windows (the natural session length).
  [[nodiscard]] int total_windows() const noexcept;
  /// Number of mid-session load shifts = phases - 1.
  [[nodiscard]] int shift_count() const noexcept {
    return phases.empty() ? 0 : static_cast<int>(phases.size()) - 1;
  }
};

/// Within a kBurst phase, every kBurstPeriod-th batch is a burst.
inline constexpr int kBurstPeriod = 4;

/// Batch sizes (MB) for one evaluation window: `batches` draws from the
/// window's phase, seeded by mix_seed(stream_seed, window) — independent
/// of any other window and of evaluation order.
[[nodiscard]] std::vector<double> window_batches(const PhaseSchedule& schedule,
                                                 int window, int batches,
                                                 std::uint64_t stream_seed);

}  // namespace deepcat::streamsim
