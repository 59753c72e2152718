#ifndef DEEPAQP_UTIL_THREAD_POOL_H_
#define DEEPAQP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/topology.h"

namespace deepaqp::util {

/// Fixed-size thread pool used by every parallel hot path (training GEMMs,
/// synthetic-sample generation, pairwise distances, per-partition ensemble
/// training).
///
/// Determinism contract: the pool itself never introduces nondeterminism.
/// ParallelFor hands out loop indices dynamically, so *which* thread runs an
/// index varies — callers must make each index's work self-contained:
/// disjoint output slots per index and, where randomness is needed, a child
/// Rng stream derived from (master seed, index) via Rng::ChildStream. Under
/// that discipline results are bit-identical at every thread count,
/// including 1.
///
/// Placement: when util::ActivePinPolicy() is not kOff at construction
/// time, each worker lane is pinned to one CPU of the placement plan
/// (util::PlanPlacement over util::Topology()) and remembers the NUMA node
/// it lives on. Pinning failures (containers denying sched_setaffinity,
/// non-Linux) degrade silently to unpinned lanes; the node assignment is
/// kept, since ParallelForSharded only uses it as a scheduling preference.
/// Placement never changes what an index computes — only which lane runs
/// it — so every policy stays bit-identical to kOff under the contract
/// above.
class ThreadPool {
 public:
  /// `parallelism` counts the calling thread: a pool of parallelism N spawns
  /// N-1 workers and ParallelFor uses the caller as the N-th lane.
  /// Values < 1 are clamped to 1 (fully serial, no worker threads).
  explicit ThreadPool(int parallelism);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return parallelism_; }

  /// Placement introspection (benches, logs, tests). `pinned_workers` is
  /// the number of workers successfully pinned; `shard_count` the number of
  /// distinct NUMA nodes the lanes cover (1 when placement is off or the
  /// machine is single-node).
  int pinned_workers() const { return pinned_workers_; }
  int shard_count() const { return shard_count_; }
  const std::vector<LanePlacement>& placement() const { return placement_; }

  /// Enqueues a fire-and-forget task. With parallelism 1 the task runs
  /// inline. Tasks must not block waiting for later-queued tasks.
  void Submit(std::function<void()> task);

  /// Runs body(i) for every i in [begin, end) and blocks until all complete.
  /// The calling thread participates. The first exception thrown by any body
  /// is rethrown on the caller (remaining indices are skipped best-effort).
  /// Safe to call from inside a pool task: nested calls run inline serially,
  /// so parallel regions compose without deadlock.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

  /// ParallelFor with node-locality-aware scheduling: the index range is
  /// split into one contiguous shard per NUMA node (sized by that node's
  /// lane count) and each lane drains its own node's shard before stealing
  /// from the others. Callers lay data out so contiguous index blocks map
  /// to contiguous memory; once lanes are pinned and pages were
  /// first-touched under the same sharding, each node then reads mostly
  /// node-local rows. Semantics are exactly ParallelFor's — every index
  /// runs exactly once, exceptions propagate the same way — and with
  /// placement off or a single node it *is* ParallelFor, so results are
  /// bit-identical between the two at every thread count.
  void ParallelForSharded(size_t begin, size_t end,
                          const std::function<void(size_t)>& body);

 private:
  void WorkerLoop(size_t lane);

  const int parallelism_;
  // Per-lane placement (lane 0 = caller, never pinned; 1.. = workers),
  // empty when the policy is kOff. lane_shard_ maps each lane to a dense
  // shard slot; shard_weight_[s] counts the lanes of shard s.
  std::vector<LanePlacement> placement_;
  std::vector<int> lane_shard_;
  std::vector<int> shard_weight_;
  int shard_count_ = 1;
  int pinned_workers_ = 0;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool shared by all library parallel regions. Defaults to
/// hardware concurrency; resize with SetGlobalThreads before heavy work.
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of the given parallelism (0 or negative
/// means hardware concurrency). Not safe while parallel work is in flight.
/// The new pool replans placement, so this is also how a SetPinPolicy or
/// SetTopologyForTest change takes effect. Binaries size it with the
/// `--threads` flag through nn::ApplyRuntimeFlags, which sets `--pin`
/// first.
void SetGlobalThreads(int parallelism);

/// Parallelism of the global pool.
int GlobalThreads();

/// ParallelFor on the global pool.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body);

/// ParallelForSharded on the global pool.
void ParallelForSharded(size_t begin, size_t end,
                        const std::function<void(size_t)>& body);

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_THREAD_POOL_H_
