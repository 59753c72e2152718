#include "util/failpoint.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace deepaqp::util {

namespace internal_failpoint {
std::atomic<bool> g_enabled{false};
}  // namespace internal_failpoint

namespace {

enum class TriggerMode { kOff, kAlways, kOnce, kTimes, kProb };

struct SiteConfig {
  TriggerMode mode = TriggerMode::kOff;
  uint64_t times = 0;     // kTimes: fire on the first `times` evaluations
  double probability = 0; // kProb
  bool has_arg = false;   // @<arg> filter present
  uint64_t arg = 0;
  uint64_t seed = 0;      // per-site stream seed (global seed x site name)
  std::string spec;       // original trigger fragment, for the report
};

struct SiteState {
  SiteConfig config;
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

struct Registry {
  std::map<std::string, SiteState> sites;
  uint64_t seed = 0x8BADF00DDEADBEEFull;
};

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

Registry& GlobalRegistry() {
  static Registry registry;
  return registry;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Deterministic uniform in [0, 1) for the site's `evaluation`-th draw.
double SiteDraw(uint64_t site_seed, uint64_t evaluation) {
  const uint64_t bits = SplitMix64(site_seed ^ SplitMix64(evaluation));
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Status ParseEntry(const std::string& entry, Registry* out) {
  const size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("failpoint entry '" + entry +
                                   "' is not <site>=<trigger>");
  }
  const std::string site = Trim(entry.substr(0, eq));
  std::string trigger = Trim(entry.substr(eq + 1));
  if (site == "seed") {
    int64_t seed = 0;
    if (!ParseInt64(trigger, &seed)) {
      return Status::InvalidArgument("failpoint seed '" + trigger +
                                     "' is not an integer");
    }
    out->seed = static_cast<uint64_t>(seed);
    return Status::OK();
  }

  SiteConfig config;
  config.spec = trigger;
  const size_t at = trigger.rfind('@');
  if (at != std::string::npos) {
    int64_t arg = 0;
    if (!ParseInt64(trigger.substr(at + 1), &arg) || arg < 0) {
      return Status::InvalidArgument("failpoint arg filter in '" + entry +
                                     "' is not a non-negative integer");
    }
    config.has_arg = true;
    config.arg = static_cast<uint64_t>(arg);
    trigger = trigger.substr(0, at);
  }

  if (trigger == "off") {
    config.mode = TriggerMode::kOff;
  } else if (trigger == "always") {
    config.mode = TriggerMode::kAlways;
  } else if (trigger == "once") {
    config.mode = TriggerMode::kOnce;
  } else if (StartsWith(trigger, "times:")) {
    int64_t n = 0;
    if (!ParseInt64(trigger.substr(6), &n) || n < 0) {
      return Status::InvalidArgument("failpoint trigger '" + trigger +
                                     "' needs times:<N> with N >= 0");
    }
    config.mode = TriggerMode::kTimes;
    config.times = static_cast<uint64_t>(n);
  } else if (StartsWith(trigger, "p:")) {
    double p = 0;
    if (!ParseDouble(trigger.substr(2), &p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("failpoint trigger '" + trigger +
                                     "' needs p:<probability in [0,1]>");
    }
    config.mode = TriggerMode::kProb;
    config.probability = p;
  } else {
    return Status::InvalidArgument(
        "failpoint trigger '" + trigger +
        "' not recognized (off|always|once|times:<N>|p:<P>)");
  }
  out->sites[site].config = config;
  return Status::OK();
}

}  // namespace

namespace internal_failpoint {

bool ShouldFire(const char* site, uint64_t arg) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry& registry = GlobalRegistry();
  auto it = registry.sites.find(site);
  if (it == registry.sites.end()) return false;
  SiteState& state = it->second;
  const SiteConfig& config = state.config;
  const uint64_t evaluation = state.evaluations++;
  if (config.has_arg && arg != config.arg) return false;

  bool fire = false;
  switch (config.mode) {
    case TriggerMode::kOff:
      break;
    case TriggerMode::kAlways:
      fire = true;
      break;
    case TriggerMode::kOnce:
      fire = state.fires == 0;
      break;
    case TriggerMode::kTimes:
      fire = state.fires < config.times;
      break;
    case TriggerMode::kProb:
      fire = SiteDraw(config.seed, evaluation) < config.probability;
      break;
  }
  if (fire) ++state.fires;
  return fire;
}

}  // namespace internal_failpoint

Status FailpointError(const char* site) {
  return Status::Internal(std::string("injected fault at fail point '") +
                          site + "'");
}

Status ConfigureFailpoints(const std::string& spec) {
  Registry fresh;
  for (const std::string& raw : Split(spec, ',')) {
    const std::string entry = Trim(raw);
    if (entry.empty()) continue;
    DEEPAQP_RETURN_IF_ERROR(ParseEntry(entry, &fresh));
  }
  for (auto& [name, state] : fresh.sites) {
    state.config.seed = SplitMix64(fresh.seed ^ HashName(name));
  }
  const bool enabled = !fresh.sites.empty();
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    GlobalRegistry() = std::move(fresh);
  }
  internal_failpoint::g_enabled.store(enabled, std::memory_order_relaxed);
  if (enabled) {
    DEEPAQP_LOG(Warning) << "fail points ACTIVE: " << spec;
  }
  return Status::OK();
}

void DisableFailpoints() {
  internal_failpoint::g_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(RegistryMutex());
  GlobalRegistry() = Registry();
}

std::vector<FailpointSiteStats> FailpointReport() {
  std::vector<FailpointSiteStats> report;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& [name, state] : GlobalRegistry().sites) {
    FailpointSiteStats stats;
    stats.site = name;
    stats.trigger = state.config.spec;
    stats.evaluations = state.evaluations;
    stats.fires = state.fires;
    report.push_back(std::move(stats));
  }
  return report;
}

std::string FailpointReportJson() {
  std::string json = "{\"failpoints\":[";
  bool first = true;
  for (const FailpointSiteStats& s : FailpointReport()) {
    if (!first) json += ",";
    first = false;
    json += "{\"site\":\"" + s.site + "\",\"trigger\":\"" + s.trigger +
            "\",\"evaluations\":" + std::to_string(s.evaluations) +
            ",\"fires\":" + std::to_string(s.fires) + "}";
  }
  json += "]}\n";
  return json;
}

void ResetFailpointCounters() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (auto& [name, state] : GlobalRegistry().sites) {
    state.evaluations = 0;
    state.fires = 0;
  }
}

namespace {

/// Reads DEEPAQP_FAILPOINTS once at process start. An unparsable spec warns
/// and leaves fail points disabled: a chaos knob must never take down a
/// production binary by itself.
[[maybe_unused]] const bool g_env_applied = [] {
  ApplyEnvKnob("DEEPAQP_FAILPOINTS", [](std::string_view spec) {
    return ConfigureFailpoints(std::string(spec));
  });
  return true;
}();

}  // namespace

}  // namespace deepaqp::util
