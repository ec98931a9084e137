// Small work-stealing thread pool for embarrassingly parallel loops.
//
// Each worker owns a deque guarded by its own mutex: the owner pushes and
// pops at the back (LIFO, cache-warm), thieves steal from the front (FIFO,
// oldest first). Tasks are type-erased std::function<void()>; submission
// round-robins across workers so a single producer still fills every queue.
//
// Threading contract (DESIGN.md "Solver performance"):
//  * submit() may be called from any thread, including from inside a task.
//  * parallel_for(n, body) blocks the caller until all n indices ran; the
//    caller participates in draining, so nesting parallel_for inside a task
//    can deadlock only if every worker blocks on an outer loop — don't nest.
//  * body(i) runs exactly once per index, on an unspecified thread, in an
//    unspecified order. Bit-identical reductions are the CALLER's job:
//    write results into a pre-sized slot array indexed by i and reduce
//    serially afterwards (see Campaign::run).
//  * The first exception thrown by any body is rethrown on the caller;
//    remaining indices are skipped (claimed but not executed).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace bate {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 picks std::thread::hardware_concurrency()
  /// (at least 1). With 1 worker the pool still works — parallel_for then
  /// runs mostly on the caller.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Never blocks (beyond the queue mutex).
  void submit(std::function<void()> task);

  /// Runs body(0..n-1) across the pool and the calling thread; returns when
  /// all indices completed. Rethrows the first body exception.
  void parallel_for(int n, const std::function<void(int)>& body);

  /// Process-wide shared pool (lazily constructed, never destroyed before
  /// exit). Use for library-internal parallelism so layers don't each spawn
  /// their own thread herd.
  static ThreadPool& shared();

 private:
  // Pool lock and per-worker queue locks share rank kThreadPool: they are
  // never nested (submit/try_pop take them strictly in sequence), and tasks
  // themselves run with no pool lock held.
  struct Queue {
    Mutex mu{LockRank::kThreadPool, "pool queue"};
    std::deque<std::function<void()>> tasks BATE_GUARDED_BY(mu);
  };

  void worker_loop(int self);
  bool try_pop(int self, std::function<void()>& task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  Mutex mu_{LockRank::kThreadPool, "pool"};
  CondVar cv_;
  // queued-but-unclaimed tasks
  int pending_ BATE_GUARDED_BY(mu_) = 0;
  bool stopping_ BATE_GUARDED_BY(mu_) = false;
  // round-robin submit cursor
  std::size_t next_queue_ BATE_GUARDED_BY(mu_) = 0;
};

}  // namespace bate
