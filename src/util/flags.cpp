#include "util/flags.hpp"

#include <stdexcept>

namespace geomcast::util {

namespace {
bool looks_like_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}
}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

void Flags::reject_unread() const {
  std::string unread;
  for (const auto& [name, value] : values_)
    if (read_.count(name) == 0) unread += (unread.empty() ? "--" : ", --") + name;
  if (!unread.empty())
    throw std::invalid_argument("unrecognised flag(s) for this program or mode: " + unread);
}

bool Flags::has(const std::string& name) const { return find(name) != nullptr; }

std::string Flags::get_string(const std::string& name, const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  try {
    return std::stoll(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                *value + "'");
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  try {
    return std::stod(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                *value + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  const std::string& text = *value;
  if (text == "true" || text == "1" || text == "yes" || text == "on") return true;
  if (text == "false" || text == "0" || text == "no" || text == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + text + "'");
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  std::vector<std::int64_t> out;
  std::string token;
  for (char ch : *value + ",") {
    if (ch == ',') {
      if (!token.empty()) {
        out.push_back(std::stoll(token));
        token.clear();
      }
    } else {
      token += ch;
    }
  }
  return out;
}

}  // namespace geomcast::util
