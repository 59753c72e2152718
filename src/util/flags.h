#ifndef DEEPAQP_UTIL_FLAGS_H_
#define DEEPAQP_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "util/status.h"

namespace deepaqp::util {

/// Minimal command-line flag parser for example/bench binaries. Accepts
/// "--name=value" and "--name value"; unknown flags are collected so callers
/// can reject or ignore them. Not intended as a general-purpose flags
/// library — just enough for reproducible experiment sweeps.
class Flags {
 public:
  /// Parses argv; later occurrences of a flag win.
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The one policy for a process knob read from the environment
/// (DEEPAQP_KERNEL, _QUANT, _PIN, _FAILPOINTS, _CPU_DISABLE). When `var` is
/// set and non-empty, `apply` runs on its value: the same parse-and-check
/// step the matching command-line flag uses. A value `apply` rejects prints
/// one warning to stderr in a shared format and the knob keeps its default,
/// so a bad environment never takes a binary down; the flag path returns
/// the same error instead (nn::ApplyRuntimeFlags).
void ApplyEnvKnob(const char* var,
                  const std::function<Status(std::string_view)>& apply);

/// ApplyEnvKnob for a knob held in a value: returns what `parse` makes of
/// `var`, or `def` when it is unset or rejected. `parse` must leave its
/// output untouched on error, as every Parse* function of the knobs does.
template <typename T>
T EnvKnobOr(const char* var, T def, Status (*parse)(std::string_view, T*)) {
  ApplyEnvKnob(var, [&def, parse](std::string_view text) {
    return parse(text, &def);
  });
  return def;
}

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_FLAGS_H_
