#include "support/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/strings.h"

namespace autovac {

Result<uint64_t> ParseFlagUnsigned(std::string_view text, uint64_t max) {
  // strtoull would skip whitespace and accept a sign ("-1" wraps to
  // UINT64_MAX), so the first character must already be a digit.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return Status::InvalidArgument("not an unsigned integer");
  }
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, 0);
  if (end != copy.c_str() + copy.size()) {
    return Status::InvalidArgument("not an unsigned integer");
  }
  if (errno == ERANGE || value > max) {
    return Status::InvalidArgument(
        StrFormat("out of range (max %llu)",
                  static_cast<unsigned long long>(max)));
  }
  return static_cast<uint64_t>(value);
}

Result<double> ParseFlagDouble(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return Status::InvalidArgument("not a number");
  }
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) {
    return Status::InvalidArgument("not a number");
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    return Status::InvalidArgument("not a finite number");
  }
  return value;
}

FlagTable::FlagTable(std::string synopsis, std::string description)
    : synopsis_(std::move(synopsis)), description_(std::move(description)) {}

void FlagTable::Add(std::string name, std::string placeholder,
                    std::string help,
                    std::function<Status(std::string_view)> store) {
  flags_.push_back(Flag{std::move(name), std::move(placeholder),
                        std::move(help), std::move(store), /*seen=*/false});
}

void FlagTable::String(std::string name, std::string placeholder,
                       std::string help, std::string* dest) {
  Add(std::move(name), std::move(placeholder), std::move(help),
      [dest](std::string_view value) {
        *dest = std::string(value);
        return Status::Ok();
      });
}

void FlagTable::Switch(std::string name, std::string help, bool* dest,
                       bool value) {
  Add(std::move(name), "", std::move(help), [dest, value](std::string_view) {
    *dest = value;
    return Status::Ok();
  });
}

void FlagTable::AddUnsigned(std::string name, std::string placeholder,
                            std::string help, uint64_t min, uint64_t max,
                            std::function<void(uint64_t)> store) {
  Add(std::move(name), std::move(placeholder), std::move(help),
      [min, max, store](std::string_view text) -> Status {
        auto value = ParseFlagUnsigned(text, max);
        if (!value.ok()) return value.status();
        if (*value < min) {
          return Status::InvalidArgument(
              StrFormat("must be at least %llu",
                        static_cast<unsigned long long>(min)));
        }
        store(*value);
        return Status::Ok();
      });
}

void FlagTable::Double(std::string name, std::string placeholder,
                       std::string help, double* dest) {
  Add(std::move(name), std::move(placeholder), std::move(help),
      [dest](std::string_view text) -> Status {
        auto value = ParseFlagDouble(text);
        if (!value.ok()) return value.status();
        *dest = *value;
        return Status::Ok();
      });
}

FlagTable::Flag* FlagTable::Find(std::string_view name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool FlagTable::Seen(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return flag.seen;
  }
  return false;
}

Status FlagTable::Parse(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::Ok();
    }
  }
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    Flag* flag = Find(arg);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown option '" + arg + "'");
    }
    std::string_view value;
    if (!flag->placeholder.empty()) {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("option '" + arg +
                                       "' requires a value");
      }
      value = args[++i];
    }
    const Status stored = flag->store(value);
    if (!stored.ok()) {
      return Status::InvalidArgument(
          StrFormat("invalid value '%s' for %s: %s",
                    std::string(value).c_str(), arg.c_str(),
                    stored.message().c_str()));
    }
    flag->seen = true;
  }
  return Status::Ok();
}

std::optional<int> FlagTable::ParseOrExit(int argc, char** argv) {
  const Status parsed = Parse(std::vector<std::string>(argv, argv + argc));
  if (!parsed.ok()) return Fail(parsed.message());
  if (help_requested_) {
    std::fputs(Usage().c_str(), stdout);
    return 0;
  }
  return std::nullopt;
}

int FlagTable::Fail(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), Usage().c_str());
  return 2;
}

std::string FlagTable::Usage() const {
  std::string out = "usage: " + synopsis_ + "\n";
  if (!flags_.empty()) out += "options:\n";
  auto add_line = [&out](std::string left, const std::string& help) {
    // Help starts in column 28; a longer flag pushes it to its own line.
    constexpr size_t kColumn = 28;
    left = "  " + left;
    out += left.size() + 1 < kColumn
               ? left + std::string(kColumn - left.size(), ' ')
               : left + "\n" + std::string(kColumn, ' ');
    out += help + "\n";
  };
  for (const Flag& flag : flags_) {
    add_line(flag.placeholder.empty()
                 ? flag.name
                 : flag.name + " <" + flag.placeholder + ">",
             flag.help);
  }
  add_line("-h, --help", "print this help");
  if (!description_.empty()) out += "\n" + description_;
  return out;
}

}  // namespace autovac
