#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/check.h"

namespace bate {

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  queues_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t q;
  {
    MutexLock lock(mu_);
    BATE_ASSERT_MSG(!stopping_, "thread_pool: submit after shutdown");
    q = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++pending_;
  }
  {
    MutexLock lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::try_pop(int self, std::function<void()>& task) {
  const std::size_t n = queues_.size();
  const std::size_t me = static_cast<std::size_t>(self);
  // Own queue first, back (LIFO): most recently pushed work is cache-warm.
  {
    Queue& q = *queues_[me];
    MutexLock lock(q.mu);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // Steal from the front (FIFO) of the other queues, starting after self so
  // thieves spread out instead of all hammering queue 0.
  for (std::size_t off = 1; off < n; ++off) {
    Queue& q = *queues_[(me + off) % n];
    MutexLock lock(q.mu);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(int self) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (pending_ == 0 && !stopping_) cv_.wait(mu_);
      if (pending_ == 0 && stopping_) return;
      // Claim optimistically; if another worker raced us to the actual
      // task, try_pop fails and we go back to sleep without a claim.
      if (pending_ == 0) continue;
      --pending_;
    }
    if (!try_pop(self, task)) {
      // Lost the race; return the claim.
      MutexLock lock(mu_);
      ++pending_;
      continue;
    }
    task();
  }
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  // Shared loop state outlives this frame only if a straggler worker is
  // still finishing its last index while the caller returns — hence the
  // shared_ptr. `next` hands out indices; `done` counts completed ones.
  struct LoopState {
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // written once, guarded by `failed` CAS
    Mutex done_mu{LockRank::kThreadPool, "parallel_for done"};
    CondVar done_cv;
    int n = 0;
    const std::function<void(int)>* body = nullptr;
  };
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->body = &body;

  auto run_chunk = [state] {
    for (;;) {
      const int i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) return;
      if (!state->failed.load(std::memory_order_acquire)) {
        try {
          (*state->body)(i);
        } catch (...) {
          bool expected = false;
          if (state->failed.compare_exchange_strong(expected, true)) {
            state->error = std::current_exception();
          }
        }
      }
      // Skipped-after-failure indices still count: done must reach n.
      const int finished = 1 + state->done.fetch_add(1);
      if (finished == state->n) {
        MutexLock lock(state->done_mu);
        state->done_cv.notify_all();
      }
    }
  };

  // One helper task per worker; each drains indices until exhausted.
  const int helpers =
      std::min(static_cast<int>(workers_.size()), n - 1);
  for (int h = 0; h < helpers; ++h) submit(run_chunk);

  // The caller drains too, then waits for stragglers mid-index.
  run_chunk();
  {
    MutexLock lock(state->done_mu);
    while (state->done.load() < state->n) state->done_cv.wait(state->done_mu);
  }
  if (state->failed.load()) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;  // leaked-at-exit by design (joined in ~ThreadPool)
  return pool;
}

}  // namespace bate
