// Tiny argument parser for the deepcat CLI: positional subcommand +
// --flag value pairs + repeatable --set knob=value assignments.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace deepcat::cli {

struct ParsedArgs {
  std::string command;                       ///< first positional token
  std::string subcommand;                    ///< optional second positional
  std::map<std::string, std::string> flags;  ///< --name value
  std::vector<std::pair<std::string, std::string>> assignments;  ///< --set k=v

  [[nodiscard]] std::optional<std::string> flag(
      const std::string& name) const;
  [[nodiscard]] std::string flag_or(const std::string& name,
                                    const std::string& fallback) const;
  /// The whole value of flag `name` as a finite number, or `fallback`
  /// when the flag is absent. Throws std::invalid_argument naming the flag
  /// on trailing characters ("3abc"), nan or inf.
  [[nodiscard]] double number_or(const std::string& name,
                                 double fallback) const;

  /// Integer flag `name` as T, or `fallback` when the flag is absent. Only
  /// a whole number from 0 to `max` is accepted; anything else ("-1",
  /// "2.5", "1e30", or above `max`) throws std::invalid_argument naming the
  /// flag and the range.
  template <typename T>
  [[nodiscard]] T integer_or(const std::string& name, T fallback,
                             T max = std::numeric_limits<T>::max()) const {
    static_assert(std::is_integral_v<T>);
    if (!flag(name)) return fallback;
    return static_cast<T>(whole_number(name, static_cast<std::uint64_t>(max)));
  }

 private:
  // number_or(name) checked to be a whole number in [0, max].
  [[nodiscard]] std::uint64_t whole_number(const std::string& name,
                                           std::uint64_t max) const;
};

/// Parses argv[1..): the first token is the command, an optional second
/// bare token the subcommand ("index build"); "--set k=v" pairs are
/// collected into `assignments`; any other "--name value" into `flags`.
/// Throws std::invalid_argument on a malformed flag (missing value,
/// missing '=' in --set) or a third positional token.
[[nodiscard]] ParsedArgs parse_args(const std::vector<std::string>& argv);

}  // namespace deepcat::cli
