// deepcat — command-line front end for the library: inspect knobs, run
// the cluster simulator, train & tune, export configurations.
#include <iostream>
#include <string>
#include <vector>

#include "cli/commands.hpp"

int main(int argc, char** argv) {
  // Unsynced, std::cin gets a real buffer, so `serve --stream 1` forwards
  // piped wire bytes in chunks rather than one byte per read.
  std::ios::sync_with_stdio(false);
  const std::vector<std::string> args(argv + 1, argv + argc);
  return deepcat::cli::run_cli(args, std::cout);
}
