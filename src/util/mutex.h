// Capability-annotated mutex wrappers: the ONLY sanctioned synchronization
// primitives in this repository (bate_lint `raw-mutex` rule).
//
// Two independent defenses against the two concurrency bug classes a
// centralized TE controller cannot afford (DESIGN.md Sec 8.5):
//
//  1. Clang Thread Safety Analysis. Every Mutex is a TSA capability and
//     every guarded field carries a real BATE_GUARDED_BY attribute, so an
//     unguarded access is a *compile error* under clang
//     (-Werror=thread-safety, the `tsa` preset; plain -Wthread-safety is on
//     for every clang build so local builds see findings immediately). The
//     macros expand to nothing on GCC — annotations never cost anything at
//     runtime and the GCC build stays identical.
//
//  2. A runtime lock-rank checker. TSA is per-TU and cannot see a
//     cross-module A->B / B->A deadlock cycle. Every Mutex is constructed
//     with a LockRank from the documented global hierarchy below; a
//     thread-local stack of held locks aborts (through the util/check.h
//     failure handler, so tests can observe it) the moment any thread
//     acquires out of order — turning a once-in-a-month production hang
//     into a deterministic unit-test failure. The checker is on in every
//     build (one thread-local array walk per acquisition, far cheaper than
//     the lock itself); -DBATE_MUTEX_NO_RANK_CHECKS compiles it out for
//     maximal-performance builds.
//
// Lock-rank hierarchy (acquire strictly downward; full rationale table in
// DESIGN.md Sec 8.5):
//
//   kController > kBroker > kEventLoop > kScheduler > kSolver
//               > kThreadPool > kLogger > kObsLedger > kObsRegistry
//
// A thread may acquire a Mutex only while every lock it already holds has a
// strictly GREATER rank. try_lock() is exempt from the ordering check (it
// cannot block, hence cannot deadlock) but still joins the held stack.
#pragma once

#include <chrono>
#include <condition_variable>  // bate-lint: allow(raw-mutex)
#include <shared_mutex>        // bate-lint: allow(raw-mutex)

// --- Clang Thread Safety Analysis attribute macros --------------------------
// GNU-attribute spellings per https://clang.llvm.org/docs/ThreadSafetyAnalysis
// (the modern capability-based names). Empty on every non-clang compiler.

#if defined(__clang__)
#define BATE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BATE_THREAD_ANNOTATION(x)
#endif

#define BATE_CAPABILITY(x) BATE_THREAD_ANNOTATION(capability(x))
#define BATE_SCOPED_CAPABILITY BATE_THREAD_ANNOTATION(scoped_lockable)
#define BATE_GUARDED_BY(x) BATE_THREAD_ANNOTATION(guarded_by(x))
#define BATE_PT_GUARDED_BY(x) BATE_THREAD_ANNOTATION(pt_guarded_by(x))
#define BATE_ACQUIRED_BEFORE(...) \
  BATE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BATE_ACQUIRED_AFTER(...) \
  BATE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define BATE_REQUIRES(...) \
  BATE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BATE_REQUIRES_SHARED(...) \
  BATE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define BATE_ACQUIRE(...) \
  BATE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BATE_ACQUIRE_SHARED(...) \
  BATE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define BATE_RELEASE(...) \
  BATE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BATE_RELEASE_SHARED(...) \
  BATE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define BATE_RELEASE_GENERIC(...) \
  BATE_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define BATE_TRY_ACQUIRE(...) \
  BATE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define BATE_TRY_ACQUIRE_SHARED(...) \
  BATE_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define BATE_EXCLUDES(...) BATE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define BATE_ASSERT_CAPABILITY(x) BATE_THREAD_ANNOTATION(assert_capability(x))
#define BATE_RETURN_CAPABILITY(x) BATE_THREAD_ANNOTATION(lock_returned(x))
#define BATE_NO_THREAD_SAFETY_ANALYSIS \
  BATE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace bate {

/// Global lock hierarchy, highest first. Acquisition must proceed strictly
/// downward in rank on any one thread; two locks of EQUAL rank may never be
/// held together (the broker's write_mu_/mu_ and the thread pool's
/// pool/queue locks are same-rank precisely because they are proven
/// disjoint). Ranks are spaced so future layers can slot in between.
enum class LockRank : int {
  kObsRegistry = 10,  // obs metric/tracer registration; callable under any lock
  kObsLedger = 12,    // SLO ledger + time-series store (src/obs); may register
                      // metrics (kObsRegistry) but never log under the lock
  kLogger = 15,       // util/log.h sink; check-failure paths log under locks
  kThreadPool = 20,   // pool + per-worker queue locks; tasks run lock-free
  kSolver = 30,       // solver-layer state; no src/ holder today (the
                      // B&B search is serial), mutex_test + tsa probes use it
  kScheduler = 35,    // scheduler joint-pattern cache
  kEventLoop = 40,    // cross-thread watcher-mutation queue
  kBroker = 50,       // broker enforcer state + socket write ordering
  kController = 60,   // reserved: controller replication state (ROADMAP 7)
};

namespace lock_rank {

/// Records an acquisition on the calling thread's held-lock stack; aborts
/// via check_failed on a double acquire, or (when `blocking`) on an
/// out-of-rank acquisition.
void note_acquire(const void* mu, int rank, const char* name, bool blocking);
/// Forgets a held lock (search from the top of the stack).
void note_release(const void* mu);
/// Locks currently held by the calling thread (test hook).
int held_depth();

}  // namespace lock_rank

/// Exclusive + shared mutex carrying a TSA capability and a lock rank.
/// Wraps std::shared_mutex so const read paths (registry snapshots, broker
/// getters) can overlap; CondVar waits require the exclusive side.
class BATE_CAPABILITY("mutex") Mutex {
 public:
  /// `name` appears in rank-violation aborts; use a string literal.
  explicit Mutex(LockRank rank, const char* name = "mutex")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BATE_ACQUIRE() {
    lock_rank::note_acquire(this, static_cast<int>(rank_), name_,
                            /*blocking=*/true);
    mu_.lock();
  }
  void unlock() BATE_RELEASE() {
    mu_.unlock();
    lock_rank::note_release(this);
  }
  /// Non-blocking, hence exempt from the rank-order check (a failed try
  /// cannot deadlock); a successful try still joins the held stack.
  bool try_lock() BATE_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::note_acquire(this, static_cast<int>(rank_), name_,
                            /*blocking=*/false);
    return true;
  }

  void lock_shared() BATE_ACQUIRE_SHARED() {
    lock_rank::note_acquire(this, static_cast<int>(rank_), name_,
                            /*blocking=*/true);
    mu_.lock_shared();
  }
  void unlock_shared() BATE_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank::note_release(this);
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;  // bate-lint: allow(raw-mutex)
  const LockRank rank_;
  const char* const name_;
};

/// Scoped exclusive lock. Relockable (unlock()/lock()) so wait-loop code
/// that drops the lock around expensive work keeps RAII safety: the
/// destructor releases only if currently held.
class BATE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BATE_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() BATE_RELEASE_GENERIC() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() BATE_RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  void lock() BATE_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Scoped shared (reader) lock for const snapshot paths.
class BATE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(Mutex& mu) BATE_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() BATE_RELEASE_GENERIC() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex (exclusive side). No predicate overloads
/// on purpose: callers write explicit `while (!cond) cv.wait(mu);` loops,
/// which keeps every guarded-field read inside the annotated function where
/// TSA can see it (a predicate lambda would be analyzed lock-blind).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mu`, blocks, reacquires. The release/reacquire
  /// runs through Mutex::unlock/lock, so the rank checker's held stack
  /// stays exact across the wait.
  void wait(Mutex& mu) BATE_REQUIRES(mu) {
    Reacquire scope{mu};
    cv_.wait(scope);
  }

  /// Returns false when `timeout` elapsed without a notification (callers
  /// loop: a true return may be a spurious wakeup).
  template <class Rep, class Period>
  bool wait_for(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      BATE_REQUIRES(mu) {
    Reacquire scope{mu};
    return cv_.wait_for(scope, timeout) == std::cv_status::no_timeout;
  }

  /// Returns false once `deadline` has passed (steady clock).
  bool wait_until(Mutex& mu,
                  std::chrono::steady_clock::time_point deadline)
      BATE_REQUIRES(mu) {
    Reacquire scope{mu};
    return cv_.wait_until(scope, deadline) == std::cv_status::no_timeout;
  }

 private:
  /// BasicLockable adapter handed to condition_variable_any: forwards to
  /// the Mutex wrapper (not the raw std::shared_mutex) so the wait's
  /// release/reacquire maintains the rank-checker bookkeeping.
  struct Reacquire {
    Mutex& mu;
    void lock() BATE_ACQUIRE(mu) { mu.lock(); }
    void unlock() BATE_RELEASE(mu) { mu.unlock(); }
  };

  std::condition_variable_any cv_;  // bate-lint: allow(raw-mutex)
};

}  // namespace bate
