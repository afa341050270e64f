// Versioned binary checkpoint format for the complete DeepCAT tuner state.
//
// DeepCAT's value proposition is train-once / tune-many (paper §2): the
// offline-trained model is an asset that outlives any single process, so
// everything the next fine-tune step depends on must round-trip exactly —
// the six networks, the Adam moment vectors and step counters, the RDPER
// P_high/P_low pools with their ring cursors and the tuner RNG stream. A
// reloaded model then produces bit-identical tune_online reports to one
// that was never serialized.
//
// Layout (all integers little-endian):
//
//   magic "DCKP" | u32 format version
//   repeated sections:  u32 tag (FourCC) | u64 payload length
//                       | payload bytes | u32 CRC32(payload)
//   terminator section: tag "END " with zero length
//
// Section tags in version 3:
//   "META"  dims, replay kind, next environment seed   (required)
//   "NETS"  six networks, fixed order, f32              (required)
//   "ADAM"  three optimizers: step counts + f32 moments (required)
//   "RPLY"  replay pools: contents + ring cursors       (required)
//   "RNGS"  tuner RNG stream state                      (required)
//
// The retrieval-index container (save_index) uses the same walk with one
// section, "RIDX" (DESIGN.md §12). A model load skips any other tag, so a
// model file that also carries "RIDX" (or the retired "WREP" OtterTune
// repository) still loads.
//
// NETS and ADAM are the two halves of one rl::AgentSnapshot: the writer
// encodes the agent's snapshot(), the reader decodes both into one
// snapshot, checks it against the agent's layout (rl::AgentLayout::check)
// and hands it to Td3Agent::restore.
//
// Version 2 added the "RIDX" section tag. Version 3 stores the NETS and
// ADAM tensors as f32, the networks' own dtype, which halves 2.1 of a
// served master's 2.36 MB. A version-1 or -2 file's f64 NETS or ADAM fails
// with a CheckpointError naming its version (no narrowing decoder is
// kept); an index-only container (RIDX alone, as `deepcat index build`
// writes) still loads from any version.
//
// Forward compatibility: readers skip sections with unknown tags (their
// length and CRC still guard the walk), so old code tolerates new optional
// sections; a *newer* format version is refused outright. Every failure
// mode — bad magic, newer version, truncation, CRC mismatch, missing
// required section, in-section decode overrun, a layout, dim, ring cursor
// or pool size that does not fit the model — raises CheckpointError with a
// message naming the offending section; nothing is UB. A load is
// all-or-nothing: every section is decoded and checked before the model
// changes, so a refused file leaves it as it was.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/deepcat_api.hpp"
#include "retrieval/index.hpp"

namespace deepcat::service {

/// Current writer format version. Readers accept any version <= this, but
/// decode NETS and ADAM from version 3 (f32 tensors) only. v2 added the
/// "RIDX" retrieval-index section.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Format version of the "RIDX" section payload itself, reported by
/// `deepcat info` so operators can tell which index layout a build writes.
inline constexpr std::uint32_t kIndexSectionVersion = 1;

/// Raised on any malformed, truncated, corrupt or incompatible checkpoint.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC32 (IEEE 802.3, poly 0xEDB88320) over `data`. Exposed for tests.
[[nodiscard]] std::uint32_t crc32(const unsigned char* data,
                                  std::size_t size) noexcept;

/// Serializes the complete tuner state. The model's agent must already be
/// built (train_offline or materialize); throws CheckpointError otherwise.
void save_checkpoint(std::ostream& os, core::DeepCat& model);

/// Restores a checkpoint into `model`, which must have been constructed
/// with options matching the saved dims and replay kind (the service layer
/// owns both sides, so this is a config-consistency check, not a schema
/// migration). On a CheckpointError nothing of `model` has changed.
void load_checkpoint(std::istream& is, core::DeepCat& model);

/// Standalone retrieval-index container: the same DCKP magic + version +
/// CRC-checked section walk, carrying just an "RIDX" section. This is what
/// `deepcat index build` writes and `deepcat serve --warm-index` loads.
void save_index(std::ostream& os, const retrieval::ExperienceIndex& index);
[[nodiscard]] retrieval::ExperienceIndex load_index(std::istream& is);

/// File-level index helpers; saving is durable like save_checkpoint_file.
void save_index_file(const std::string& path,
                     const retrieval::ExperienceIndex& index);
[[nodiscard]] retrieval::ExperienceIndex load_index_file(
    const std::string& path);

/// Stream-free conveniences: StreamingService::train_model's published
/// blob and checkpoint_of(). Served sessions clone the master's agent
/// instead.
[[nodiscard]] std::string checkpoint_to_string(core::DeepCat& model);
void checkpoint_from_string(const std::string& blob, core::DeepCat& model);

/// File-level helpers. Saving writes `<path>.tmp`, fsyncs it, renames it
/// over `path` and fsyncs the directory: a concurrent reader never observes
/// a half-written checkpoint, and a crash after the call returns cannot
/// leave the file empty or torn. Failures remove the tmp file and throw
/// CheckpointError naming the path and the OS error.
void save_checkpoint_file(const std::string& path, core::DeepCat& model);
void load_checkpoint_file(const std::string& path, core::DeepCat& model);

/// Named, versioned checkpoint store on disk: `<dir>/<name>.v<N>.dckp`.
/// publish() writes tmp-then-rename, so readers never see a torn file and
/// the newest complete version always wins.
class ModelRegistry {
 public:
  explicit ModelRegistry(std::string directory);

  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

  /// Saves `model` as the next version of `name`; returns that version.
  std::uint32_t publish(const std::string& name, core::DeepCat& model);
  /// The same for a model already serialized as `checkpoint`.
  std::uint32_t publish(const std::string& name, const std::string& checkpoint);

  /// Highest published version of `name`, or nullopt if none.
  [[nodiscard]] std::optional<std::uint32_t> latest_version(
      const std::string& name) const;

  [[nodiscard]] std::string path_for(const std::string& name,
                                     std::uint32_t version) const;

  /// Restores `name` at `version` into `model` (CheckpointError on failure).
  void load_into(const std::string& name, std::uint32_t version,
                 core::DeepCat& model) const;

 private:
  std::string dir_;
};

}  // namespace deepcat::service
