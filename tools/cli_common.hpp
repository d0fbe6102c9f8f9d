// Shared strict CLI parsing for the steins_* tools.
//
// The tools historically hand-rolled their flag loops, and the lenient
// ones treated a trailing flag with no value as "" (so strtoull quietly
// produced 0 and the run proceeded with a nonsense config). This header
// makes the contract uniform and strict: an unknown flag, a flag missing
// its value, or a malformed number prints a one-line error with a --help
// hint and the tool exits 2.
//
// Usage:
//
//   cli::ArgParser p(argc, argv);
//   while (p.next()) {
//     if (p.is("--trials"))            opt.trials = p.u64();
//     else if (p.is("--schemes", "--scheme")) opt.schemes = p.str();
//     else if (p.is("--verbose"))      opt.verbose = true;
//     else if (p.is("--help", "-h"))   opt.help = true;
//     else                             p.unknown();
//   }
//   if (p.failed()) return 2;
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/backend.hpp"
#include "secure/secure_memory.hpp"

namespace steins::cli {

class ArgParser {
 public:
  ArgParser(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advance to the next argument. Returns false at the end of argv or
  /// after any error (so the parse loop unwinds immediately).
  bool next() { return !failed_ && ++i_ < argc_; }

  const char* arg() const { return argv_[i_]; }
  bool is(std::string_view name) const { return name == argv_[i_]; }
  bool is(std::string_view a, std::string_view b) const { return is(a) || is(b); }

  /// The current flag's value (the next argv slot); "" + error if absent.
  std::string str() {
    if (i_ + 1 >= argc_) {
      std::fprintf(stderr, "missing value for %s (try --help)\n", argv_[i_]);
      failed_ = true;
      return "";
    }
    return argv_[++i_];
  }

  std::uint64_t u64() {
    const std::string flag = argv_[i_];
    const std::string v = str();
    if (failed_) return 0;
    return to_u64(flag, v);
  }

  /// The current argument itself as a number: a positional operand named
  /// `what` in the error message.
  std::uint64_t operand_u64(const std::string& what) { return to_u64(what, argv_[i_]); }

  double f64() {
    const std::string flag = argv_[i_];
    const std::string v = str();
    if (failed_) return 0.0;
    char* end = nullptr;
    errno = 0;
    const double out = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "invalid number for %s: '%s'\n", flag.c_str(), v.c_str());
      failed_ = true;
      return 0.0;
    }
    return out;
  }

  /// Worker-thread count: a strict positive integer (0 is rejected — a
  /// tool cannot run with no workers).
  unsigned jobs() {
    const std::string flag = argv_[i_];
    const std::uint64_t v = u64();
    if (failed_) return 1;
    if (v == 0 || v > 4096) {
      std::fprintf(stderr, "invalid value for %s: expected 1..4096\n", flag.c_str());
      failed_ = true;
      return 1;
    }
    return static_cast<unsigned>(v);
  }

  void unknown() {
    std::fprintf(stderr, "unknown option: %s (try --help)\n", argv_[i_]);
    failed_ = true;
  }

  /// Report a bad value for the current flag (caller-side validation).
  void invalid(const std::string& detail) {
    std::fprintf(stderr, "%s (try --help)\n", detail.c_str());
    failed_ = true;
  }

  bool failed() const { return failed_; }

 private:
  std::uint64_t to_u64(const std::string& what, const std::string& v) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long out = std::strtoull(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "invalid number for %s: '%s'\n", what.c_str(), v.c_str());
      failed_ = true;
      return 0;
    }
    return out;
  }

  int argc_;
  char** argv_;
  int i_ = 0;
  bool failed_ = false;
};

inline std::optional<Scheme> parse_scheme(const std::string& name) {
  if (name == "wb") return Scheme::kWriteBack;
  if (name == "asit") return Scheme::kAnubis;
  if (name == "star") return Scheme::kStar;
  if (name == "steins") return Scheme::kSteins;
  if (name == "scue") return Scheme::kScue;
  return std::nullopt;
}

inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Handle --nested-crash <boundary[,rearm]>: a 1-based recovery persist
/// boundary with an optional ',rearm' suffix (re-arm the nested crash on
/// every retry). Reports the error through the parser on bad input.
inline bool parse_nested_crash(ArgParser& p, std::uint64_t* boundary, bool* rearm) {
  std::string v = p.str();
  if (p.failed()) return false;
  const auto comma = v.find(',');
  if (comma != std::string::npos) {
    const std::string suffix = v.substr(comma + 1);
    if (suffix != "rearm") {
      p.invalid("invalid --nested-crash suffix: '" + suffix + "' (expected 'rearm')");
      return false;
    }
    *rearm = true;
    v = v.substr(0, comma);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long b = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE || b == 0) {
    p.invalid("invalid --nested-crash boundary: '" + v + "' (expected >= 1)");
    return false;
  }
  *boundary = b;
  return true;
}

/// Handle --crypto-backend: "auto" and known names succeed; anything else
/// reports an error and returns false.
inline bool apply_crypto_backend(const std::string& name) {
  if (auto b = crypto::parse_backend(name)) {
    crypto::set_crypto_backend(*b);
    return true;
  }
  if (name == "auto") return true;
  std::fprintf(stderr, "unknown crypto backend: %s (expected ref|ttable|hw|auto)\n",
               name.c_str());
  return false;
}

/// Write a JSON payload to `path`, reporting any I/O failure to stderr.
inline bool write_json_file(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(), std::strerror(errno));
    return false;
  }
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !wrote) {
    std::fprintf(stderr, "error writing %s: %s\n", path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace steins::cli
