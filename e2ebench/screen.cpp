// e2e_screen: finds generated requests whose session would fail in the
// simulator whatever the model does, so the benchmark can drop them before
// any is sent.
//
//   e2e_screen < candidates.tsv
//
// Each input line is "<id>\t<HiBench case>\t<cluster>\t<seed>". A session first
// evaluates the default configuration (TuningEnvironment::reset), with an
// environment seed derived from the request seed alone, and fails if that run
// fails. The same run is made here; for each failing request one line
// "<id>\t<error>" is printed. Links only the simulator libraries.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "sparksim/environment.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace {

using namespace deepcat;

// service::run_session's environment stream (service/session.cpp).
constexpr std::uint64_t kEnvStream = 0x0E4B51ULL;

const sparksim::HiBenchCase* find_case(const std::string& workload) {
  for (const auto& c : sparksim::hibench_suite()) {
    if (c.id == workload) return &c;
  }
  return nullptr;
}

void screen(const sparksim::HiBenchCase& c, const std::string& cluster_tag,
            std::uint64_t seed) {
  const sparksim::ClusterSpec cluster =
      (cluster_tag == "b") ? sparksim::cluster_b() : sparksim::cluster_a();
  sparksim::EnvOptions options;
  options.seed = common::mix_seed(seed, kEnvStream);
  sparksim::TuningEnvironment env(cluster, sparksim::workload_for(c), options);
  (void)env.reset();
}

}  // namespace

int main() {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream fields(line);
    std::string id, workload, cluster, seed;
    if (!std::getline(fields, id, '\t') || !std::getline(fields, workload, '\t') ||
        !std::getline(fields, cluster, '\t') || !std::getline(fields, seed)) {
      std::cerr << "e2e_screen: malformed line: " << line << '\n';
      return 2;
    }
    const sparksim::HiBenchCase* c = find_case(workload);
    if (c == nullptr) {
      std::cerr << "e2e_screen: not a HiBench case: " << workload << '\n';
      return 2;
    }
    try {
      screen(*c, cluster, std::stoull(seed));
    } catch (const std::exception& e) {
      std::cout << id << '\t' << e.what() << '\n';
    }
  }
  return 0;
}
