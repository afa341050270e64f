// deepcat_fuzz_wire: open-ended corpus generator for the DCWP wire reader
// and the DCKP checkpoint reader, built on the same seeded mutation engine
// as the in-tree ctest suites (tests/fuzz/wire_mutator.hpp).
//
//   $ ./deepcat_fuzz_wire [--mutants 100000] [--seed 1] [--checkpoint 1]
//
// Exit code 0: every mutant either decoded cleanly or raised the reader's
// typed error. Exit code 1: a finding — the offending mutant's description
// and exception are printed. Run it under ASan/UBSan for full effect.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "fuzz/wire_mutator.hpp"
#include "retrieval/index.hpp"
#include "service/checkpoint.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

namespace {

using namespace deepcat;

std::string wire_base_stream() {
  return service::encode_frames({
      {service::FrameType::kRequest,
       "{\"id\":\"req-0\",\"workload\":\"TS-D1\",\"cluster\":\"a\","
       "\"steps\":3,\"seed\":11,\"model\":\"default\"}"},
      {service::FrameType::kStat, ""},
      {service::FrameType::kRequest,
       "{\"id\":\"req-1\",\"workload\":\"PR-D2\",\"cluster\":\"b\","
       "\"steps\":2,\"seed\":12,\"model\":\"graph\"}"},
      {service::FrameType::kRequest,
       "{\"id\":\"req-warm\",\"workload\":\"WC-D2\",\"steps\":2,\"seed\":14,"
       "\"warm\":2,\"model\":\"default\"}"},
      {service::FrameType::kRequest,
       "{\"id\":\"req-stream\",\"workload\":\"SA-P1\",\"steps\":2,"
       "\"seed\":15}"},
      {service::FrameType::kRequest,
       "{\"id\":\"req-traced\",\"workload\":\"KM-D1\",\"steps\":1,"
       "\"seed\":16,\"trace\":\"fuzz-trace\",\"span\":42}"},
      {service::FrameType::kFlush, ""},
      {service::FrameType::kTelemetry,
       "{\"tele\":1,\"deterministic\":false,\"aggregate\":true,"
       "\"sessions\":2}\n{\"name\":\"stream.flushes\",\"kind\":\"counter\","
       "\"deterministic\":true,\"value\":1}"},
      {service::FrameType::kTimeSeries,
       "{\"tser\":1,\"series\":1}\n{\"name\":\"stream.rec_cost\"}"},
      {service::FrameType::kEnd, ""},
  });
}

std::string index_base_blob() {
  retrieval::ExperienceIndex index;
  for (std::uint64_t s = 0; s < 4; ++s) {
    retrieval::ExperienceEntry e;
    e.workload = "TS-D" + std::to_string(s % 3 + 1);
    e.seed = s;
    e.best_cost = 60.0 + static_cast<double>(s);
    e.default_cost = 120.0;
    e.best_action.fill(0.25 * static_cast<double>(s % 4));
    e.embedding =
        retrieval::embed_query(sparksim::WorkloadType::kTeraSort, 3200.0);
    index.add(std::move(e));
  }
  std::ostringstream os(std::ios::binary);
  service::save_index(os, index);
  return os.str();
}

std::string checkpoint_base_blob() {
  core::DeepCatApiOptions api;
  api.tuner.seed = 5;
  api.tuner.td3.hidden = {8, 8};
  api.tuner.warmup_steps = 8;
  api.tuner.replay_capacity_per_pool = 64;
  core::DeepCat model(sparksim::cluster_a(), api);
  (void)model.train_offline(
      sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), 20);
  return service::checkpoint_to_string(model);
}

/// Runs `mutants` mutations of `base` through `decode`; returns findings.
template <typename DecodeFn, typename TypedError>
std::size_t drive(const char* label, const std::string& base,
                  std::uint64_t seed, std::size_t mutants, DecodeFn&& decode,
                  const TypedError* /*tag*/) {
  std::size_t findings = 0;
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < mutants; ++i) {
    std::string desc;
    const std::string mutant = fuzz::make_mutant(base, seed, i, &desc);
    try {
      decode(mutant);
      ++accepted;
      if (i < base.size()) {
        std::fprintf(stderr, "[%s] FINDING: truncation accepted: %s\n",
                     label, desc.c_str());
        ++findings;
      } else if (i < fuzz::exhaustive_mutants(base) &&
                 !fuzz::is_bit_flip_in(base, i, 4, 8)) {
        std::fprintf(stderr, "[%s] FINDING: corrupt stream accepted: %s\n",
                     label, desc.c_str());
        ++findings;
      }
    } catch (const TypedError&) {
      ++rejected;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[%s] FINDING: %s escaped with %s\n", label,
                   desc.c_str(), e.what());
      ++findings;
    }
  }
  std::printf("[%s] %zu mutants: %zu rejected (typed), %zu accepted, "
              "%zu findings\n",
              label, mutants, rejected, accepted, findings);
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t mutants = 100'000;
  std::uint64_t seed = 1;
  bool with_checkpoint = true;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--mutants") == 0) {
      mutants = static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      with_checkpoint = std::strtoull(argv[i + 1], nullptr, 10) != 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  std::size_t findings = 0;
  const std::string wire = wire_base_stream();
  findings += drive(
      "wire", wire, seed, mutants,
      [](const std::string& bytes) { (void)service::decode_frames(bytes); },
      static_cast<const service::WireError*>(nullptr));

  // The warm-index container is small, so the exhaustive prefix of its
  // mutant space fits comfortably in any corpus budget.
  const std::string index_blob = index_base_blob();
  findings += drive(
      "index", index_blob, seed, mutants,
      [](const std::string& bytes) {
        std::istringstream in(bytes, std::ios::binary);
        (void)service::load_index(in);
      },
      static_cast<const service::CheckpointError*>(nullptr));

  if (with_checkpoint) {
    const std::string blob = checkpoint_base_blob();
    core::DeepCatApiOptions api;
    api.tuner.seed = 5;
    api.tuner.td3.hidden = {8, 8};
    api.tuner.warmup_steps = 8;
    api.tuner.replay_capacity_per_pool = 64;
    core::DeepCat target(sparksim::cluster_a(), api);
    // The checkpoint blob is large; cap its share of the corpus so a run
    // finishes in minutes, not hours.
    const std::size_t ckpt_mutants = mutants < 20'000 ? mutants : 20'000;
    findings += drive(
        "checkpoint", blob, seed, ckpt_mutants,
        [&](const std::string& bytes) {
          service::checkpoint_from_string(bytes, target);
        },
        static_cast<const service::CheckpointError*>(nullptr));
  }

  return findings == 0 ? 0 : 1;
}
