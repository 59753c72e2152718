#ifndef DEEPAQP_SERVER_SCHEDULER_H_
#define DEEPAQP_SERVER_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>

#include "util/status.h"
#include "util/thread_pool.h"

namespace deepaqp::server {

/// Multiplexes per-session work over the shared util::ThreadPool. Each key
/// (session id) is a strand: its tasks run one at a time, in submission
/// order, but different keys run concurrently on whatever pool threads are
/// free. Sessions therefore need no internal locking — every touch of a
/// Session object is posted to its strand.
///
/// A strand never occupies a pool thread while idle: the runner task drains
/// the strand's queue and exits, dropping the strand, and the next Post
/// re-creates it and re-submits. Tasks must not block on other strands'
/// work (the underlying pool requirement).
class RequestScheduler {
 public:
  /// Uses `pool` for execution; with nullptr the process-global pool is
  /// used, so `--threads` sizes the server like every other parallel path.
  /// `max_queue_per_strand` bounds how many tasks one strand may hold
  /// queued (admission control for a session that floods requests faster
  /// than it executes them); 0 = unbounded.
  explicit RequestScheduler(util::ThreadPool* pool = nullptr,
                            size_t max_queue_per_strand = 0);

  /// Waits for all in-flight and queued tasks, then returns. Outstanding
  /// work is completed, never dropped.
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Enqueues `task` on `key`'s strand. Instrumented with the
  /// `server/enqueue` fail point (arg = key): an injected fault rejects
  /// this one task with a Status and leaves the strand intact. When the
  /// strand already holds max_queue_per_strand queued tasks the post is
  /// shed with Unavailable (SERVER_BUSY) instead of queueing unboundedly.
  util::Status Post(uint64_t key, std::function<void()> task);

  /// Like Post but exempt from the per-strand queue bound: internal
  /// progress work (session steps, drain probes) must never be shed by
  /// admission control, or a backlogged session could not drain itself.
  util::Status PostInternal(uint64_t key, std::function<void()> task);

  /// Blocks until no task is queued or running anywhere.
  void WaitIdle();

  /// Tasks currently queued or running (observability).
  size_t pending() const;

  /// Strands currently holding queued or running work. A strand is dropped
  /// as soon as its queue drains, so idle and closed sessions hold none.
  size_t strand_count() const;

 private:
  void RunStrand(uint64_t key);
  util::Status PostImpl(uint64_t key, std::function<void()> task,
                        bool bounded);

  util::ThreadPool* pool_;
  size_t max_queue_per_strand_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  /// Queued tasks per key. An entry exists exactly while the key's runner
  /// task is on the pool; the runner erases it when the queue drains. So
  /// WaitIdle waits for an empty map, not only for pending_ == 0: a runner
  /// that just ran its last task still touches this object on its way out.
  std::map<uint64_t, std::deque<std::function<void()>>> strands_;
  size_t pending_ = 0;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_SCHEDULER_H_
