#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace deepaqp::util {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  int64_t v = 0;
  return ParseInt64(it->second, &v) ? v : def;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  double v = 0;
  return ParseDouble(it->second, &v) ? v : def;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void ApplyEnvKnob(const char* var,
                  const std::function<Status(std::string_view)>& apply) {
  const char* value = std::getenv(var);
  if (value == nullptr || value[0] == '\0') return;
  const Status status = apply(value);
  if (!status.ok()) {
    std::fprintf(stderr, "%s='%s' ignored: %s; keeping the default\n", var,
                 value, status.message().c_str());
  }
}

}  // namespace deepaqp::util
