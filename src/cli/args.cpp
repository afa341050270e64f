#include "cli/args.hpp"

#include <cmath>
#include <stdexcept>

namespace deepcat::cli {

std::optional<std::string> ParsedArgs::flag(const std::string& name) const {
  const auto it = flags.find(name);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

std::string ParsedArgs::flag_or(const std::string& name,
                                const std::string& fallback) const {
  return flag(name).value_or(fallback);
}

double ParsedArgs::number_or(const std::string& name, double fallback) const {
  const auto value = flag(name);
  if (!value) return fallback;
  bool ok = false;
  double x = 0.0;
  try {
    std::size_t used = 0;
    x = std::stod(*value, &used);
    ok = used == value->size() && std::isfinite(x);
  } catch (const std::exception&) {
    // not a number, or out of double range
  }
  if (!ok) {
    throw std::invalid_argument("flag --" + name +
                                " expects a number, got '" + *value + "'");
  }
  return x;
}

std::uint64_t ParsedArgs::whole_number(const std::string& name,
                                       std::uint64_t max) const {
  const double x = number_or(name, 0.0);
  // 2^64 is exact in a double; below it the cast is defined.
  if (x < 0.0 || x != std::floor(x) || x >= 18446744073709551616.0 ||
      static_cast<std::uint64_t>(x) > max) {
    throw std::invalid_argument("flag --" + name +
                                " expects a whole number from 0 to " +
                                std::to_string(max) + ", got '" +
                                flag_or(name, "") + "'");
  }
  return static_cast<std::uint64_t>(x);
}

ParsedArgs parse_args(const std::vector<std::string>& argv) {
  ParsedArgs out;
  std::size_t i = 0;
  if (i < argv.size() && argv[i].rfind("--", 0) != 0) {
    out.command = argv[i++];
    if (i < argv.size() && argv[i].rfind("--", 0) != 0) {
      out.subcommand = argv[i++];
    }
  }
  while (i < argv.size()) {
    const std::string& token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument '" + token +
                                  "'");
    }
    const std::string name = token.substr(2);
    if (i + 1 >= argv.size()) {
      throw std::invalid_argument("flag --" + name + " is missing a value");
    }
    const std::string& value = argv[++i];
    ++i;
    if (name == "set") {
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("--set expects knob=value, got '" +
                                    value + "'");
      }
      out.assignments.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      out.flags[name] = value;
    }
  }
  return out;
}

}  // namespace deepcat::cli
