// Per-command flag tables for command-line front ends.
//
// A command declares each of its flags once — name, value placeholder,
// one help line, destination — and that one declaration drives parsing,
// number checking and the generated --help text, so the accepted flags
// and the documented flags cannot drift apart.
//
// Parsing is deliberately literal: a flag is spelled in full and takes
// its value from the next argument. There are no abbreviations, no
// `--flag=value` form and no environment fallbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/status.h"

namespace autovac {

// The one conversion every unsigned flag value goes through: the whole
// string must be an integer in base 0 (decimal, 0x hex, leading-0 octal)
// with no sign or whitespace, and no larger than `max`.
[[nodiscard]] Result<uint64_t> ParseFlagUnsigned(std::string_view text,
                                                 uint64_t max);

// The one conversion every floating-point flag value goes through: the
// whole string must be a finite number.
[[nodiscard]] Result<double> ParseFlagDouble(std::string_view text);

class FlagTable {
 public:
  // `synopsis` is the command line shown after "usage: " (program and
  // command name first); `description` is the paragraph --help prints
  // after the flag list.
  FlagTable(std::string synopsis, std::string description);

  void String(std::string name, std::string placeholder, std::string help,
              std::string* dest);
  // A flag without a value: stores `value` into *dest when given.
  void Switch(std::string name, std::string help, bool* dest,
              bool value = true);
  // Rejects values below `min` and values that do not fit T.
  template <typename T>
  void Unsigned(std::string name, std::string placeholder, std::string help,
                T* dest, uint64_t min = 0) {
    static_assert(std::is_unsigned_v<T>);
    AddUnsigned(std::move(name), std::move(placeholder), std::move(help),
                min, std::numeric_limits<T>::max(),
                [dest](uint64_t value) { *dest = static_cast<T>(value); });
  }
  void Double(std::string name, std::string placeholder, std::string help,
              double* dest);

  // Stores every declared flag's value and collects the other
  // arguments (anything not starting with "--") as positionals. Returns
  // InvalidArgument for an unknown flag, a missing value or a value the
  // flag's conversion rejects. "--help" or "-h" anywhere stops parsing
  // with help_requested() set.
  [[nodiscard]] Status Parse(const std::vector<std::string>& args);

  // Parse for a command's main: nullopt to carry on, or the exit code
  // after printing help (0, stdout) or the error and usage (2, stderr).
  [[nodiscard]] std::optional<int> ParseOrExit(int argc, char** argv);

  // Prints "error: <message>" and the usage to stderr; returns 2.
  int Fail(const std::string& message) const;

  // "usage: <synopsis>", the flag list, then the description.
  [[nodiscard]] std::string Usage() const;

  [[nodiscard]] bool help_requested() const { return help_requested_; }
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  // True when the flag appeared on the parsed command line.
  [[nodiscard]] bool Seen(std::string_view name) const;

 private:
  struct Flag {
    std::string name;
    std::string placeholder;  // empty for a switch
    std::string help;
    std::function<Status(std::string_view value)> store;
    bool seen = false;
  };

  void Add(std::string name, std::string placeholder, std::string help,
           std::function<Status(std::string_view)> store);
  void AddUnsigned(std::string name, std::string placeholder,
                   std::string help, uint64_t min, uint64_t max,
                   std::function<void(uint64_t)> store);
  [[nodiscard]] Flag* Find(std::string_view name);

  std::string synopsis_;
  std::string description_;
  std::vector<Flag> flags_;
  std::vector<std::string> positionals_;
  bool help_requested_ = false;
};

}  // namespace autovac
