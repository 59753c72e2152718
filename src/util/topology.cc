#include "util/topology.h"

#include <algorithm>
#include <set>

#include "util/flags.h"
#include "util/string_util.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace deepaqp::util {

namespace {

/// Reads a small sysfs-style file; returns false when it does not exist or
/// cannot be read (the graceful-degradation path, not an error).
bool ReadSmallFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, got);
  std::fclose(f);
  return true;
}

std::vector<int> FallbackCpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> cpus(hw == 0 ? 1 : hw);
  for (size_t i = 0; i < cpus.size(); ++i) cpus[i] = static_cast<int>(i);
  return cpus;
}

std::vector<int> Intersect(const std::vector<int>& a,
                           const std::vector<int>& b) {
  std::vector<int> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Renders an ascending CPU list back into cpulist form ("0-3,8").
std::string CpusToString(const std::vector<int>& cpus) {
  std::string out;
  for (size_t i = 0; i < cpus.size();) {
    size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (j > i) out += '-' + std::to_string(cpus[j]);
    i = j + 1;
  }
  return out;
}

}  // namespace

int CpuTopology::num_cpus() const {
  int n = 0;
  for (const NumaNode& node : nodes) n += static_cast<int>(node.cpus.size());
  return n;
}

std::string CpuTopology::ToString() const {
  std::string out = std::to_string(nodes.size()) + " node" +
                    (nodes.size() == 1 ? "" : "s") + " / " +
                    std::to_string(num_cpus()) + " cpus (";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ", ";
    out += "node" + std::to_string(nodes[i].id) + ": " +
           CpusToString(nodes[i].cpus);
  }
  return out + ")";
}

Status ParseCpuList(std::string_view text, std::vector<int>* cpus) {
  std::vector<int> out;
  const std::string trimmed = Trim(text);
  if (!trimmed.empty()) {
    for (const std::string& field : Split(trimmed, ',')) {
      const std::string range = Trim(field);
      const size_t dash = range.find('-');
      int64_t lo = 0;
      int64_t hi = 0;
      if (dash == std::string::npos) {
        if (!ParseInt64(range, &lo) || lo < 0) {
          return Status::InvalidArgument("bad cpulist entry '" + range + "'");
        }
        hi = lo;
      } else {
        if (!ParseInt64(range.substr(0, dash), &lo) ||
            !ParseInt64(range.substr(dash + 1), &hi) || lo < 0 || hi < lo) {
          return Status::InvalidArgument("bad cpulist range '" + range + "'");
        }
      }
      // Cap pathological ranges instead of allocating gigabytes; no real
      // machine this code targets has more than 2^20 CPUs.
      if (hi >= (int64_t{1} << 20)) {
        return Status::InvalidArgument("cpulist range too large '" + range +
                                       "'");
      }
      for (int64_t c = lo; c <= hi; ++c) out.push_back(static_cast<int>(c));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  *cpus = std::move(out);
  return Status::OK();
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

CpuTopology DetectTopology(const std::string& sysfs_root,
                           const std::vector<int>* allowed_cpus) {
  // Online CPUs of the whole machine; empty means "unknown" and imposes no
  // restriction on the node lists.
  std::vector<int> online;
  {
    std::string text;
    if (ReadSmallFile(sysfs_root + "/cpu/online", &text)) {
      std::vector<int> parsed;
      if (ParseCpuList(text, &parsed).ok()) online = std::move(parsed);
    }
  }

  CpuTopology topo;
  std::string node_online;
  std::vector<int> node_ids;
  if (ReadSmallFile(sysfs_root + "/node/online", &node_online) &&
      ParseCpuList(node_online, &node_ids).ok()) {
    for (int id : node_ids) {
      std::string text;
      if (!ReadSmallFile(
              sysfs_root + "/node/node" + std::to_string(id) + "/cpulist",
              &text)) {
        continue;  // memory-only node or missing file
      }
      std::vector<int> cpus;
      if (!ParseCpuList(text, &cpus).ok()) continue;
      if (!online.empty()) cpus = Intersect(cpus, online);
      if (allowed_cpus != nullptr && !allowed_cpus->empty()) {
        cpus = Intersect(cpus, *allowed_cpus);
      }
      if (cpus.empty()) continue;
      topo.nodes.push_back(NumaNode{id, std::move(cpus)});
    }
  }

  if (topo.nodes.empty()) {
    // No node directory (or nothing usable in it): single-node fallback
    // over the online set, the affinity mask, or hardware_concurrency —
    // whichever is known, in that order of preference.
    std::vector<int> cpus = !online.empty() ? online : FallbackCpus();
    if (allowed_cpus != nullptr && !allowed_cpus->empty()) {
      std::vector<int> restricted = Intersect(cpus, *allowed_cpus);
      if (!restricted.empty()) cpus = std::move(restricted);
    }
    topo.nodes.push_back(NumaNode{0, std::move(cpus)});
  }
  return topo;
}

namespace {

const CpuTopology* g_topology_override = nullptr;

const CpuTopology& RealTopology() {
  static const CpuTopology detected = [] {
    const std::vector<int> allowed = AllowedCpus();
    return DetectTopology("/sys/devices/system",
                          allowed.empty() ? nullptr : &allowed);
  }();
  return detected;
}

}  // namespace

const CpuTopology& Topology() {
  return g_topology_override != nullptr ? *g_topology_override
                                        : RealTopology();
}

void SetTopologyForTest(const CpuTopology* topology) {
  g_topology_override = topology;
}

const char* PinPolicyName(PinPolicy policy) {
  switch (policy) {
    case PinPolicy::kOff:
      return "off";
    case PinPolicy::kCompact:
      return "compact";
    case PinPolicy::kScatter:
      return "scatter";
  }
  return "off";
}

Status ParsePinPolicy(std::string_view name, PinPolicy* policy) {
  if (name == "off") {
    *policy = PinPolicy::kOff;
  } else if (name == "compact") {
    *policy = PinPolicy::kCompact;
  } else if (name == "scatter") {
    *policy = PinPolicy::kScatter;
  } else {
    return Status::InvalidArgument("unknown pin policy '" +
                                   std::string(name) +
                                   "' (off|compact|scatter)");
  }
  return Status::OK();
}

namespace {

PinPolicy& PolicySlot() {
  static PinPolicy policy =
      EnvKnobOr("DEEPAQP_PIN", PinPolicy::kOff, &ParsePinPolicy);
  return policy;
}

}  // namespace

PinPolicy ActivePinPolicy() { return PolicySlot(); }

void SetPinPolicy(PinPolicy policy) { PolicySlot() = policy; }

std::vector<LanePlacement> PlanPlacement(const CpuTopology& topology,
                                         PinPolicy policy, int lanes) {
  std::vector<LanePlacement> plan(
      static_cast<size_t>(std::max(lanes, 0)));
  if (policy == PinPolicy::kOff || topology.num_cpus() == 0) return plan;

  // Enumerate {cpu, dense node index} in policy order.
  std::vector<LanePlacement> order;
  if (policy == PinPolicy::kCompact) {
    for (size_t d = 0; d < topology.nodes.size(); ++d) {
      for (int cpu : topology.nodes[d].cpus) {
        order.push_back(LanePlacement{cpu, static_cast<int>(d)});
      }
    }
  } else {  // kScatter: one CPU per node per round, nodes in id order.
    std::vector<size_t> taken(topology.nodes.size(), 0);
    for (size_t remaining = static_cast<size_t>(topology.num_cpus());
         remaining > 0;) {
      for (size_t d = 0; d < topology.nodes.size(); ++d) {
        const std::vector<int>& cpus = topology.nodes[d].cpus;
        if (taken[d] >= cpus.size()) continue;
        order.push_back(
            LanePlacement{cpus[taken[d]++], static_cast<int>(d)});
        --remaining;
      }
    }
  }
  for (size_t lane = 0; lane < plan.size(); ++lane) {
    plan[lane] = order[lane % order.size()];
  }
  return plan;
}

bool PinCurrentThread(int cpu) {
#if defined(__linux__)
  return PinNativeThread(pthread_self(), cpu);
#else
  (void)cpu;
  return false;
#endif
}

bool PinCurrentThreadToCpus(const std::vector<int>& cpus) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (int cpu : cpus) {
    if (cpu < 0 || cpu >= CPU_SETSIZE) continue;
    CPU_SET(cpu, &set);
    any = true;
  }
  if (!any) return false;
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpus;
  return false;
#endif
}

bool PinNativeThread(std::thread::native_handle_type handle, int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(handle, sizeof(set), &set) == 0;
#else
  (void)handle;
  (void)cpu;
  return false;
#endif
}

}  // namespace deepaqp::util
