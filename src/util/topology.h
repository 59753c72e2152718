#ifndef DEEPAQP_UTIL_TOPOLOGY_H_
#define DEEPAQP_UTIL_TOPOLOGY_H_

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"

namespace deepaqp::util {

/// One NUMA node: its sysfs id and the online CPUs it owns (ascending).
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

/// The CPU/NUMA shape of the machine as the execution layer sees it: only
/// nodes that own at least one usable CPU, node ids ascending, CPU lists
/// ascending. "Usable" means online and inside the process's affinity mask
/// (containers with a restricted cpuset see only their slice).
struct CpuTopology {
  std::vector<NumaNode> nodes;

  int num_cpus() const;
  bool multi_node() const { return nodes.size() > 1; }

  /// "2 nodes / 16 cpus (node0: 0-7, node1: 8-15)" — for logs and bench
  /// metadata.
  std::string ToString() const;
};

/// Parses the kernel's cpulist format ("0-3,8,10-11"; empty string is an
/// empty list). Returns InvalidArgument on malformed ranges; `*cpus` is
/// untouched on error.
[[nodiscard]] Status ParseCpuList(std::string_view text,
                                  std::vector<int>* cpus);

/// The CPUs the calling process may run on (sched_getaffinity). Empty when
/// the query is unavailable (non-Linux), which callers treat as "no
/// restriction".
std::vector<int> AllowedCpus();

/// Detects the topology by parsing `<sysfs_root>/node/*` and
/// `<sysfs_root>/cpu/online` (production root: "/sys/devices/system").
/// Missing or malformed files degrade stepwise: no node directory -> one
/// node covering `cpu/online`; no readable files at all -> one node
/// covering hardware_concurrency CPUs. Node CPU lists are intersected with
/// `cpu/online` (offline CPUs drop out) and, when `allowed_cpus` is
/// non-null, with that set (the affinity mask). Never fails: the result
/// always has at least one node with at least one CPU.
CpuTopology DetectTopology(const std::string& sysfs_root,
                           const std::vector<int>* allowed_cpus = nullptr);

/// The cached process topology: DetectTopology on the real sysfs root,
/// restricted to AllowedCpus(). Detected once on first use.
const CpuTopology& Topology();

/// Overrides Topology() for tests (pass nullptr to restore real detection).
/// The pointed-to struct must outlive the override. Rebuild the pool
/// (SetGlobalThreads) afterwards so placement replans; mirrors
/// SetCpuFeaturesForTest.
void SetTopologyForTest(const CpuTopology* topology);

/// Worker-placement policy of the thread pool.
///
/// * kOff (default): today's behavior — no pinning, no node sharding.
///   Bit-for-bit identical execution *and scheduling* to the pre-topology
///   code.
/// * kCompact: fill nodes one at a time (node 0's CPUs first). Minimizes
///   cross-node traffic when the pool is smaller than one node.
/// * kScatter: round-robin lanes across nodes. Maximizes aggregate memory
///   bandwidth for pools spanning the machine.
///
/// Placement only decides *where* a loop index runs, never what it
/// computes: under the PR 1 contract (disjoint output slots, per-index
/// child RNG streams, fixed-order reductions) every policy is bit-identical
/// to kOff at every thread count.
enum class PinPolicy { kOff, kCompact, kScatter };

/// "off" / "compact" / "scatter".
const char* PinPolicyName(PinPolicy policy);

/// Parses "off" / "compact" / "scatter". Returns InvalidArgument on
/// anything else; `*policy` is untouched on error.
[[nodiscard]] Status ParsePinPolicy(std::string_view name, PinPolicy* policy);

/// Active placement policy. Initialized once, on first use, from the
/// DEEPAQP_PIN environment variable under the one environment policy
/// (util::ApplyEnvKnob): unset or unrecognized values keep kOff, the latter
/// with a warning. The `--pin` flag sets it through nn::ApplyRuntimeFlags,
/// which rebuilds the pool afterwards. Consulted by ThreadPool at
/// construction time.
PinPolicy ActivePinPolicy();

/// Overrides the active policy. Takes effect when the pool is next rebuilt
/// (SetGlobalThreads); not safe while parallel work is in flight.
void SetPinPolicy(PinPolicy policy);

/// Where one pool lane should run: a CPU to pin to (-1 = leave unpinned)
/// and the dense index into CpuTopology::nodes of the node that CPU
/// belongs to (0 when unpinned).
struct LanePlacement {
  int cpu = -1;
  int node = 0;
};

/// Deterministic placement plan for `lanes` pool lanes (lane 0 is the
/// caller, lanes 1.. are workers). kOff maps every lane to {-1, 0}; the
/// other policies enumerate the topology's CPUs in policy order and assign
/// lane i the i-th CPU (mod total), so a pool wider than the machine wraps
/// around. A pure function of (topology, policy, lanes).
std::vector<LanePlacement> PlanPlacement(const CpuTopology& topology,
                                         PinPolicy policy, int lanes);

/// Pins the calling thread to a single CPU. Returns false when pinning is
/// unavailable (non-Linux, CPU out of range, or sched_setaffinity denied —
/// e.g. a container's seccomp policy); never fatal, callers degrade to
/// unpinned execution.
bool PinCurrentThread(int cpu);

/// Pins the calling thread to a CPU set (used to restore a saved affinity
/// mask after a temporary pin). Empty set or failure returns false.
bool PinCurrentThreadToCpus(const std::vector<int>& cpus);

/// Pins another thread by native handle (the pool pins freshly spawned
/// workers from the constructor so the pinned count is known synchronously).
/// Same degradation contract as PinCurrentThread.
bool PinNativeThread(std::thread::native_handle_type handle, int cpu);

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_TOPOLOGY_H_
