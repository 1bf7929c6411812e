// Minimal command-line flag parsing for the bench/example binaries.
// Supports --name=value and --name value; bool flags accept bare --name.
// Every lookup records the name it asked for, so a program can reject the
// flags it never reads (a typo, or a mode that no longer exists) instead of
// running its default workload and exiting 0.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace geomcast::util {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input
  /// (non-flag positional arguments are collected, not rejected).
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Comma-separated integer list, e.g. --dims=2,3,4.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Throws std::invalid_argument naming every flag that was passed but
  /// never looked up through has() or a get_*(). Call it once the program
  /// has read every flag its mode understands, before doing any work.
  void reject_unread() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  /// values_ lookup that also marks `name` as read.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace geomcast::util
