// The checkpoint format's two contracts: (1) a reloaded model is
// indistinguishable from one that was never serialized — bit-identical
// tune_online reports, RDPER pool contents and Adam moments; (2) every
// malformed input (bad magic, newer version, truncation, bit flips,
// missing sections) fails with a CheckpointError naming the offending
// piece, never UB.
#include "service/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/deepcat_api.hpp"
#include "retrieval/index.hpp"
#include "rl/replay_rdper.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

core::DeepCatApiOptions small_options(std::uint64_t seed) {
  core::DeepCatApiOptions o;
  o.tuner.seed = seed;
  o.tuner.td3.hidden = {24, 24};
  o.tuner.warmup_steps = 16;
  o.env.seed = seed + 1000;
  return o;
}

core::DeepCat trained_model(std::uint64_t seed, std::size_t iters = 40) {
  core::DeepCat model(sparksim::cluster_a(), small_options(seed));
  (void)model.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), iters);
  return model;
}

void expect_reports_identical(const tuners::TuningReport& a,
                              const tuners::TuningReport& b) {
  EXPECT_EQ(a.default_time, b.default_time);
  EXPECT_EQ(a.best_time, b.best_time);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].exec_seconds, b.steps[i].exec_seconds) << "step " << i;
    EXPECT_EQ(a.steps[i].reward, b.steps[i].reward) << "step " << i;
    EXPECT_EQ(a.steps[i].best_so_far, b.steps[i].best_so_far) << "step " << i;
    EXPECT_EQ(a.steps[i].recommendation_seconds,
              b.steps[i].recommendation_seconds)
        << "step " << i;
  }
  EXPECT_EQ(a.best_config, b.best_config);
}

// The acceptance criterion: save after offline training, reload into a
// freshly-constructed (differently-seeded) instance, and tune_online must
// be bit-identical to the never-serialized instance — which requires the
// networks, Adam moments, RDPER pools, RNG stream and environment seed to
// all round-trip exactly.
TEST(CheckpointTest, RoundTripGivesBitIdenticalOnlineTuning) {
  core::DeepCat original = trained_model(7);
  std::stringstream ss;
  save_checkpoint(ss, original);

  core::DeepCat reloaded(sparksim::cluster_a(), small_options(4242));
  load_checkpoint(ss, reloaded);

  const auto workload = sparksim::make_workload(WorkloadType::kPageRank, 0.5);
  const auto ra = original.tune_online(workload, {.max_steps = 3});
  const auto rb = reloaded.tune_online(workload, {.max_steps = 3});
  expect_reports_identical(ra, rb);

  // Fine-tuning pushed both agents through identical gradient steps, so
  // the post-tune Adam moments must also match bit for bit.
  const auto opts_a = original.tuner().agent().optimizers();
  const auto opts_b = reloaded.tuner().agent().optimizers();
  ASSERT_EQ(opts_a.size(), opts_b.size());
  for (std::size_t o = 0; o < opts_a.size(); ++o) {
    EXPECT_EQ(opts_a[o].second->step_count(), opts_b[o].second->step_count());
    const auto& ma = opts_a[o].second->first_moments();
    const auto& mb = opts_b[o].second->first_moments();
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t t = 0; t < ma.size(); ++t) {
      const auto fa = ma[t].flat();
      const auto fb = mb[t].flat();
      ASSERT_EQ(fa.size(), fb.size());
      for (std::size_t i = 0; i < fa.size(); ++i) {
        EXPECT_EQ(fa[i], fb[i]) << "optimizer " << o << " tensor " << t;
      }
    }
  }

  // And the RDPER pools: same contents, same ring cursors.
  const auto* pa = dynamic_cast<rl::RdperReplay*>(original.tuner().replay());
  const auto* pb = dynamic_cast<rl::RdperReplay*>(reloaded.tuner().replay());
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pa->high_cursor(), pb->high_cursor());
  EXPECT_EQ(pa->low_cursor(), pb->low_cursor());
  ASSERT_EQ(pa->high_pool().size(), pb->high_pool().size());
  ASSERT_EQ(pa->low_pool().size(), pb->low_pool().size());
  for (std::size_t i = 0; i < pa->low_pool().size(); ++i) {
    EXPECT_EQ(pa->low_pool()[i].reward, pb->low_pool()[i].reward) << i;
    EXPECT_EQ(pa->low_pool()[i].state, pb->low_pool()[i].state) << i;
  }
}

// The layers, the Mlp and the agent keep their output, gradient and batch
// buffers across calls and only overwrite them, so a reload must leave no
// trace of what ran before it. Two instances load one blob; one first runs
// a session on another workload and cluster and is then reloaded from the
// blob, so only its buffers are dirty. The same session on both must give
// identical reports and identical checkpoint bytes.
TEST(CheckpointTest, DirtyBuffersLeaveNoTraceAfterReload) {
  // 80 offline iterations fill more than one 64-transition batch, so both
  // the offline and the online stages run train steps.
  core::DeepCat master = trained_model(31, 80);
  const std::string blob = checkpoint_to_string(master);
  tuners::TuneBudget budget;
  budget.max_steps = 3;

  core::DeepCat clean(sparksim::cluster_a(), small_options(1));
  checkpoint_from_string(blob, clean);
  core::DeepCat dirty(sparksim::cluster_a(), small_options(2));
  checkpoint_from_string(blob, dirty);
  (void)dirty.tune_online_on(
      sparksim::cluster_b(),
      sparksim::make_workload(WorkloadType::kWordCount, 2.0), budget);
  ASSERT_NE(checkpoint_to_string(dirty), blob);  // the session trained
  checkpoint_from_string(blob, dirty);

  const auto workload = sparksim::make_workload(WorkloadType::kKMeans, 1.0);
  const auto clean_report = clean.tune_online(workload, budget);
  const auto dirty_report = dirty.tune_online(workload, budget);
  expect_reports_identical(clean_report, dirty_report);
  EXPECT_EQ(checkpoint_to_string(clean), checkpoint_to_string(dirty));
}

TEST(CheckpointTest, StringAndFileHelpersRoundTrip) {
  core::DeepCat original = trained_model(11);
  const std::string blob = checkpoint_to_string(original);

  core::DeepCat from_string(sparksim::cluster_a(), small_options(1));
  checkpoint_from_string(blob, from_string);

  const std::string path =
      ::testing::TempDir() + "checkpoint_roundtrip_test.dckp";
  save_checkpoint_file(path, original);
  core::DeepCat from_file(sparksim::cluster_a(), small_options(2));
  load_checkpoint_file(path, from_file);

  const auto workload = sparksim::make_workload(WorkloadType::kWordCount, 3.2);
  const auto ra = from_string.tune_online(workload, {.max_steps = 2});
  const auto rb = from_file.tune_online(workload, {.max_steps = 2});
  expect_reports_identical(ra, rb);
}

TEST(CheckpointTest, SaveWithoutTrainedAgentThrows) {
  core::DeepCat untrained(sparksim::cluster_a(), small_options(3));
  std::stringstream ss;
  EXPECT_THROW(save_checkpoint(ss, untrained), CheckpointError);
}

TEST(CheckpointTest, BadMagicRefused) {
  core::DeepCat model = trained_model(13, 20);
  std::string blob = checkpoint_to_string(model);
  blob[0] = 'X';
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  try {
    checkpoint_from_string(blob, fresh);
    FAIL() << "bad magic accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointTest, NewerFormatVersionRefusedByName) {
  core::DeepCat model = trained_model(14, 20);
  std::string blob = checkpoint_to_string(model);
  // The u32 version field sits right after the 4-byte magic.
  blob[4] = static_cast<char>(kCheckpointVersion + 1);
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  try {
    checkpoint_from_string(blob, fresh);
    FAIL() << "newer version accepted";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kCheckpointVersion + 1)),
              std::string::npos)
        << what;
  }
}

// Version 3 stores NETS and ADAM as f32. A version-2 file (f64 tensors) is
// refused by name, with no narrowing decoder; a version-2 index-only
// container (RIDX alone, as `deepcat index build` writes) still loads.
// Both are made by patching the version word of a fresh blob.
TEST(CheckpointTest, VersionTwoNetworksAreRefusedButItsIndexLoads) {
  ASSERT_EQ(kCheckpointVersion, 3u);
  core::DeepCat model = trained_model(15, 20);
  std::string blob = checkpoint_to_string(model);
  blob[4] = 2;  // the u32 version word after the magic, little-endian
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  try {
    checkpoint_from_string(blob, fresh);
    FAIL() << "a version-2 NETS section was accepted";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("NETS"), std::string::npos) << what;
    EXPECT_NE(what.find("ADAM"), std::string::npos) << what;
  }
  EXPECT_FALSE(fresh.tuner().has_agent()) << "a refused file changed the model";

  retrieval::ExperienceIndex index;
  retrieval::ExperienceEntry entry;
  entry.workload = "terasort-3.2";
  entry.seed = 7;
  entry.best_cost = 41.5;
  entry.default_cost = 60.25;
  entry.best_action.fill(0.25);
  entry.embedding.fill(0.5);
  index.add(entry);
  std::ostringstream os(std::ios::binary);
  save_index(os, index);
  std::string index_blob = std::move(os).str();
  index_blob[4] = 2;
  std::istringstream is(index_blob, std::ios::binary);
  EXPECT_EQ(load_index(is), index);
}

TEST(CheckpointTest, TruncationNamesTheOffendingSection) {
  core::DeepCat model = trained_model(15, 20);
  const std::string blob = checkpoint_to_string(model);

  // Cut inside the NETS payload: the error must name that section.
  const std::size_t nets = blob.find("NETS");
  ASSERT_NE(nets, std::string::npos);
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  try {
    checkpoint_from_string(blob.substr(0, nets + 40), fresh);
    FAIL() << "truncated checkpoint accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("NETS"), std::string::npos)
        << e.what();
  }

  // A sweep of other cut points must all fail cleanly with CheckpointError
  // (never UB, never std::bad_alloc from a garbage length).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{17},
        blob.size() / 4, blob.size() / 2, blob.size() - 3}) {
    core::DeepCat target(sparksim::cluster_a(), small_options(1));
    EXPECT_THROW(checkpoint_from_string(blob.substr(0, keep), target),
                 CheckpointError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(CheckpointTest, BitFlipFailsChecksumNamingTheSection) {
  core::DeepCat model = trained_model(16, 20);
  std::string blob = checkpoint_to_string(model);
  const std::size_t nets = blob.find("NETS");
  ASSERT_NE(nets, std::string::npos);
  blob[nets + 40] = static_cast<char>(blob[nets + 40] ^ 0x20);
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  try {
    checkpoint_from_string(blob, fresh);
    FAIL() << "corrupt checkpoint accepted";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    EXPECT_NE(what.find("NETS"), std::string::npos) << what;
  }
}

TEST(CheckpointTest, MissingRequiredSectionDiagnosedByName) {
  // A structurally valid checkpoint that carries only the terminator:
  // magic, version 1, then "END " with zero length and the CRC of an
  // empty payload. Loading must report which required section is absent.
  std::string blob = "DCKP";
  blob += '\x01';
  blob += std::string(3, '\0');               // version 1, little-endian
  blob += "END ";
  blob += std::string(8, '\0');               // u64 payload length 0
  const std::uint32_t empty_crc = crc32(nullptr, 0);
  for (int i = 0; i < 4; ++i) {
    blob += static_cast<char>((empty_crc >> (8 * i)) & 0xFF);
  }
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  try {
    checkpoint_from_string(blob, fresh);
    FAIL() << "checkpoint without required sections accepted";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing required section"), std::string::npos)
        << what;
    EXPECT_NE(what.find("META"), std::string::npos) << what;
  }
}

TEST(CheckpointTest, ReplayKindMismatchDiagnosed) {
  core::DeepCat rdper_model = trained_model(17, 20);
  const std::string blob = checkpoint_to_string(rdper_model);

  core::DeepCatApiOptions uniform = small_options(1);
  uniform.tuner.use_rdper = false;
  core::DeepCat uniform_model(sparksim::cluster_a(), uniform);
  try {
    checkpoint_from_string(blob, uniform_model);
    FAIL() << "replay kind mismatch accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("replay kind"), std::string::npos)
        << e.what();
  }
}

// The table-sliced crc32 must return what the textbook one-byte-at-a-time
// loop returns, for every length and alignment the slicing splits on.
TEST(CheckpointTest, Crc32MatchesBytewiseReference) {
  const auto bytewise = [](const unsigned char* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const unsigned char*>(check.data()),
                  check.size()),
            0xCBF43926u);

  common::Rng rng(41);
  std::vector<unsigned char> buf(2'360'000);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.index(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(crc32(buf.data() + offset, len),
                bytewise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  EXPECT_EQ(crc32(buf.data(), buf.size()), bytewise(buf.data(), buf.size()));
}

// A publish that cannot complete leaves no tmp file behind and says which
// path failed and why.
TEST(CheckpointTest, FailedPublishRemovesTmpFileAndNamesTheError) {
  core::DeepCat model = trained_model(19, 20);
  const std::string dir =
      ::testing::TempDir() + "deepcat_failed_publish_test";
  std::filesystem::remove_all(dir);
  // The target path is a directory, so the final rename fails.
  const std::string target = dir + "/model.dckp";
  std::filesystem::create_directories(target);
  try {
    save_checkpoint_file(target, model);
    FAIL() << "a rename onto a directory succeeded";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(target), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(EISDIR)), std::string::npos) << what;
  }
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  std::filesystem::remove_all(dir);
}

// ---- A load changes nothing unless it succeeds ---------------------------

std::uint64_t read_le(const std::string& bytes, std::size_t at,
                      std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  }
  return v;
}

void write_le(std::string& bytes, std::size_t at, std::size_t width,
              std::uint64_t v) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Where section `tag`'s header starts in `blob`: past the magic and the
/// version, sections are u32 tag | u64 length | payload | u32 CRC.
std::size_t section_at(const std::string& blob, const char (&tag)[5]) {
  std::size_t at = 8;
  while (blob.compare(at, 4, tag) != 0) at += 12 + read_le(blob, at + 4, 8) + 4;
  return at;
}

/// The u32 or u64 (`width` bytes) at `offset` in section `tag`'s payload.
std::uint64_t field(const std::string& blob, const char (&tag)[5],
                    std::size_t offset, std::size_t width) {
  return read_le(blob, section_at(blob, tag) + 12 + offset, width);
}

/// Sets that field to `v` and recomputes the section's CRC, so that only
/// the section's decoder can refuse it.
void patch_field(std::string& blob, const char (&tag)[5], std::size_t offset,
                 std::size_t width, std::uint64_t v) {
  const std::size_t at = section_at(blob, tag);
  const std::size_t len = read_le(blob, at + 4, 8);
  write_le(blob, at + 12 + offset, width, v);
  write_le(blob, at + 12 + len, 4,
           crc32(reinterpret_cast<const unsigned char*>(blob.data()) + at + 12,
                 len));
}

void expect_refused_naming(const std::string& blob, core::DeepCat& model,
                           const char* section) {
  try {
    checkpoint_from_string(blob, model);
    ADD_FAILURE() << "a malformed " << section << " section was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(section), std::string::npos)
        << e.what();
  }
}

// A model holding checkpoint A is offered B with a malformed ADAM (its
// optimizer count) or with META dims that differ from A's agent. Each is
// refused naming the section, and the model still writes A byte for byte:
// NETS, the env seed and everything else were left as they were.
TEST(CheckpointTest, RefusedSectionsLeaveTheLoadedModelUnchanged) {
  core::DeepCat model = trained_model(21, 40);
  const std::string a = checkpoint_to_string(model);
  core::DeepCat other = trained_model(22, 40);
  const std::string b = checkpoint_to_string(other);

  std::string bad_adam = b;
  patch_field(bad_adam, "ADAM", 0, 4, field(b, "ADAM", 0, 4) + 1);
  expect_refused_naming(bad_adam, model, "ADAM");
  EXPECT_EQ(checkpoint_to_string(model), a);

  std::string bad_meta = b;
  patch_field(bad_meta, "META", 0, 4, field(b, "META", 0, 4) + 1);
  expect_refused_naming(bad_meta, model, "META");
  EXPECT_EQ(checkpoint_to_string(model), a);

  checkpoint_from_string(b, model);
  EXPECT_EQ(checkpoint_to_string(model), b);
}

// RPLY: u8 kind, f64 R_th, f64 beta, u64 pool capacity, then the high
// pool's u64 cursor. A cursor at the capacity is refused by name before the
// fresh model builds an agent.
TEST(CheckpointTest, ReplayCursorPastItsPoolIsRefused) {
  core::DeepCat model = trained_model(23, 20);
  std::string blob = checkpoint_to_string(model);
  const std::uint64_t capacity = field(blob, "RPLY", 17, 8);
  ASSERT_GT(capacity, 0u);
  patch_field(blob, "RPLY", 25, 8, capacity);
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  expect_refused_naming(blob, fresh, "RPLY");
  EXPECT_FALSE(fresh.tuner().has_agent()) << "a refused file changed the model";
}

// NETS: u32 network count, the name "actor" (u32 length + 5 bytes), its
// u32 tensor count, then the first tensor's u32 rows and cols. A shape of
// 2^32-1 x 2^32-1 floats is refused as a truncated payload before anything
// is allocated for it.
TEST(CheckpointTest, TensorLargerThanItsPayloadFailsTypedBeforeAllocating) {
  core::DeepCat model = trained_model(24, 20);
  std::string blob = checkpoint_to_string(model);
  patch_field(blob, "NETS", 17, 4, 0xFFFFFFFFu);
  patch_field(blob, "NETS", 21, 4, 0xFFFFFFFFu);
  core::DeepCat fresh(sparksim::cluster_a(), small_options(1));
  expect_refused_naming(blob, fresh, "NETS");
  EXPECT_FALSE(fresh.tuner().has_agent());
}

}  // namespace
}  // namespace deepcat::service
