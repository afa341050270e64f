// Persistence contracts for the warm-start experience index: the
// standalone DCKP index container (what `deepcat index build` writes and
// `serve --warm-index` loads) round-trips bit-identically, a model file
// that also carries its "RIDX" section still loads, and every corruption
// fails with a CheckpointError — never UB, never a silent mis-accept.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/deepcat_api.hpp"
#include "retrieval/index.hpp"
#include "service/checkpoint.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::retrieval {
namespace {

using service::CheckpointError;
using sparksim::WorkloadType;

ExperienceIndex sample_index() {
  ExperienceIndex index;
  const struct {
    WorkloadType type;
    double input_mb;
    const char* id;
  } cases[] = {
      {WorkloadType::kWordCount, 320.0, "WC-D1"},
      {WorkloadType::kTeraSort, 3200.0, "TS-D1"},
      {WorkloadType::kPageRank, 1000.0, "PR-D2"},
      {WorkloadType::kKMeans, 6400.0, "KM-D3"},
  };
  std::uint64_t seed = 1;
  for (const auto& c : cases) {
    ExperienceEntry e;
    e.workload = c.id;
    e.seed = seed++;
    e.best_cost = 60.0 + static_cast<double>(seed);
    e.default_cost = 120.0 + static_cast<double>(seed);
    for (std::size_t i = 0; i < e.best_action.size(); ++i) {
      e.best_action[i] = static_cast<double>((seed * 7 + i) % 11) / 10.0;
    }
    e.embedding = embed_query(c.type, c.input_mb);
    e.embedding[kWorkloadTypes + 1] = 0.25;  // a nonzero outcome slot
    index.add(std::move(e));
  }
  return index;
}

TEST(RetrievalIndexIoTest, StandaloneContainerRoundTripsExactly) {
  const ExperienceIndex original = sample_index();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  service::save_index(ss, original);
  const ExperienceIndex reloaded = service::load_index(ss);
  EXPECT_EQ(reloaded, original);
  ASSERT_EQ(reloaded.size(), original.size());
  // Entry payloads survive bit for bit — costs, actions, embeddings.
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reloaded.entries()[i], original.entries()[i]) << "entry " << i;
  }
}

TEST(RetrievalIndexIoTest, SerializationIsByteDeterministic) {
  const ExperienceIndex index = sample_index();
  std::ostringstream a(std::ios::binary);
  std::ostringstream b(std::ios::binary);
  service::save_index(a, index);
  service::save_index(b, index);
  EXPECT_EQ(a.str(), b.str());
  // A reloaded index re-serializes to the exact same bytes (the fresh-
  // process bit-identity half of the determinism stress, in-process).
  std::istringstream in(a.str(), std::ios::binary);
  const ExperienceIndex reloaded = service::load_index(in);
  std::ostringstream c(std::ios::binary);
  service::save_index(c, reloaded);
  EXPECT_EQ(c.str(), a.str());
}

TEST(RetrievalIndexIoTest, FileHelpersRoundTripAndLeaveNoTmp) {
  const ExperienceIndex index = sample_index();
  const std::string path = ::testing::TempDir() + "retrieval_io_test.dcix";
  service::save_index_file(path, index);
  // tmp+rename: the staging file must be gone after a successful save.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const ExperienceIndex reloaded = service::load_index_file(path);
  EXPECT_EQ(reloaded, index);
  std::remove(path.c_str());
  EXPECT_THROW((void)service::load_index_file(path), CheckpointError);
}

TEST(RetrievalIndexIoTest, EmptyIndexRoundTrips) {
  const ExperienceIndex empty;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  service::save_index(ss, empty);
  const ExperienceIndex reloaded = service::load_index(ss);
  EXPECT_TRUE(reloaded.empty());
  EXPECT_EQ(reloaded, empty);
}

TEST(RetrievalIndexIoTest, CorruptionAlwaysRaisesCheckpointError) {
  std::ostringstream os(std::ios::binary);
  service::save_index(os, sample_index());
  const std::string base = os.str();

  // Exhaustive truncations: every cut must be refused (the container ends
  // in an explicit END section, so no prefix is a valid stream).
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    std::istringstream in(base.substr(0, cut), std::ios::binary);
    EXPECT_THROW((void)service::load_index(in), CheckpointError)
        << "truncation at " << cut;
  }
  // Byte-level corruption: outside the version word (bytes 4..8, where a
  // lower version is legal input) every flip must fail the CRC or the
  // framing — never decode silently, never escape a typed error.
  for (std::size_t byte = 0; byte < base.size(); ++byte) {
    if (byte >= 4 && byte < 8) continue;
    std::string mutant = base;
    mutant[byte] = static_cast<char>(
        static_cast<unsigned char>(mutant[byte]) ^ 0x20u);
    std::istringstream in(mutant, std::ios::binary);
    try {
      // Payload flips fail the CRC; tag flips strand the walk on a
      // missing-RIDX or missing-END diagnosis; length flips misalign the
      // CRC. Silent acceptance anywhere is a finding.
      (void)service::load_index(in);
      FAIL() << "corrupt index accepted at byte " << byte;
    } catch (const CheckpointError& e) {
      EXPECT_FALSE(std::string(e.what()).empty()) << "byte " << byte;
    }
  }
}

/// One checkpoint section: u32 tag | u64 length | payload | u32 CRC32,
/// little-endian, with the CRC computed here.
std::string section(const std::string& tag, const std::string& payload) {
  std::string out = tag;
  const auto put = [&out](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  };
  put(payload.size(), 8);
  out += payload;
  put(service::crc32(reinterpret_cast<const unsigned char*>(payload.data()),
                     payload.size()),
      4);
  return out;
}

TEST(RetrievalIndexIoTest, CheckpointRidxSectionRoundTrips) {
  core::DeepCatApiOptions api;
  api.tuner.seed = 5;
  api.tuner.td3.hidden = {8, 8};
  api.tuner.warmup_steps = 8;
  api.tuner.replay_capacity_per_pool = 64;
  core::DeepCat model(sparksim::cluster_a(), api);
  (void)model.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 20);
  const std::string plain = service::checkpoint_to_string(model);

  // The index container is magic | version | RIDX section | END section;
  // rebuild its RIDX section from the payload and splice it, with a WREP
  // section as an older writer's OtterTune repository, in front of the
  // model file's END section.
  std::ostringstream container(std::ios::binary);
  service::save_index(container, sample_index());
  const std::string index_bytes = container.str();
  constexpr std::size_t kHeader = 8;   // magic + version
  constexpr std::size_t kEnd = 16;     // "END " | u64 0 | CRC of nothing
  const std::string ridx =
      index_bytes.substr(kHeader, index_bytes.size() - kHeader - kEnd);
  ASSERT_EQ(ridx.compare(0, 4, "RIDX"), 0);
  ASSERT_EQ(section("RIDX", ridx.substr(12, ridx.size() - 16)), ridx);
  std::string spliced = plain;
  spliced.insert(spliced.size() - kEnd,
                 ridx + section("WREP", "an older writer's repository"));

  // Both unknown sections are skipped: the model loads exactly as from
  // the plain file.
  core::DeepCat from_plain(sparksim::cluster_a(), api);
  service::checkpoint_from_string(plain, from_plain);
  core::DeepCat from_spliced(sparksim::cluster_a(), api);
  service::checkpoint_from_string(spliced, from_spliced);
  EXPECT_EQ(service::checkpoint_to_string(from_spliced),
            service::checkpoint_to_string(from_plain));
  EXPECT_EQ(service::checkpoint_to_string(from_spliced), plain);
}

TEST(RetrievalIndexIoTest, VersionConstantsMatchTheWireFormat) {
  // `deepcat info` reports these; the golden CLI transcripts pin the
  // rendered values, this pins the constants themselves.
  EXPECT_EQ(service::kCheckpointVersion, 3u);
  EXPECT_EQ(service::kIndexSectionVersion, 1u);
  std::ostringstream os(std::ios::binary);
  service::save_index(os, sample_index());
  const std::string bytes = os.str();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "DCKP");
  const auto version = static_cast<std::uint32_t>(
      static_cast<unsigned char>(bytes[4]) |
      (static_cast<unsigned char>(bytes[5]) << 8) |
      (static_cast<unsigned char>(bytes[6]) << 16) |
      (static_cast<unsigned char>(bytes[7]) << 24));
  EXPECT_EQ(version, service::kCheckpointVersion);
}

}  // namespace
}  // namespace deepcat::retrieval
