// The deepcat CLI subcommands, separated from main() so they are unit-
// testable. Each returns a process exit code and writes to the provided
// stream.
#pragma once

#include <iosfwd>

#include "cli/args.hpp"

namespace deepcat::cli {

/// `deepcat info [--json 1] [--threads N]` — print build version, the
/// numeric backend the live dispatch actually selects, and pool size.
int cmd_info(const ParsedArgs& args, std::ostream& os);

/// `deepcat knobs` — print the 32-knob inventory.
int cmd_knobs(const ParsedArgs& args, std::ostream& os);

/// `deepcat suite` — print the HiBench workload registry.
int cmd_suite(const ParsedArgs& args, std::ostream& os);

/// `deepcat simulate --workload TS --size 3.2 [--cluster a|b] [--seed N]
///  [--runs K] [--set knob=value ...]` — run the cluster simulator.
int cmd_simulate(const ParsedArgs& args, std::ostream& os);

/// `deepcat tune --workload TS --size 3.2 [--steps 5] [--offline-iters N]
///  [--seed N] [--export spark|yarn|hdfs|submit]` — train offline, tune
///  online, print the report (and optionally the exported config).
int cmd_tune(const ParsedArgs& args, std::ostream& os);

/// `deepcat serve --requests file.jsonl --checkpoint dir/ [--model NAME]
///  [--train-iters N] [--train-workload TS] [--train-size 3.2]
///  [--threads N] [--out file.jsonl] [--cluster a|b] [--publish 1]` —
///  load (or train + publish) the master model, serve the JSONL request
///  batch concurrently, write one report line per request plus an
///  aggregate metrics line.
int cmd_serve(const ParsedArgs& args, std::ostream& os);

/// `deepcat stats --socket /path.sock [--requests file.jsonl]` — connect
/// to a streaming server, optionally send each JSONL line as a REQ frame
/// (printing every REP/ERR payload), then one STAT poll, print the TELE
/// telemetry payload it answers with. Exit 0 iff a TELE frame arrived and
/// no ERR frames did.
int cmd_stats(const ParsedArgs& args, std::ostream& os);

/// `deepcat index build --checkpoint dir/ --out index.bin` /
/// `deepcat index query --index index.bin --workload TS-D1` — build a
/// warm-start experience index by replaying deterministic sessions against
/// the registry model, or run a k-NN query against a saved index.
int cmd_index(const ParsedArgs& args, std::ostream& os);

/// Throws std::invalid_argument ("<command>: unknown flag --x") when
/// `args` carries a flag its command does not read. Unknown commands and
/// subcommands pass: run_cli reports those itself.
void check_flags(const ParsedArgs& args);

/// Dispatches to the subcommand after check_flags; prints usage on an
/// unknown or empty command.
int run_cli(const std::vector<std::string>& argv, std::ostream& os);

}  // namespace deepcat::cli
