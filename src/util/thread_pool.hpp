// Fixed-size worker pool plus a deterministic parallel_for.
//
// HPC-guide alignment: parallelism is explicit and structured — callers
// decompose work into independent ranges; there is no work stealing, and
// every item owns a derived RNG stream, so numeric results do not depend on
// the number of workers (DESIGN.md §6).
//
// Reentrancy: a task running on a pool worker may itself call parallel_for
// on the same pool. The nested call detects that it is on a worker thread
// and runs its chunks inline instead of enqueueing them — enqueueing would
// deadlock, with the worker blocked on chunks that need its own slot.
// Chunk boundaries are the same either way, so results are identical.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace deflate::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the future resolves when it finishes. Throws
  /// std::runtime_error once shutdown has begun: a task enqueued after the
  /// workers were told to stop would never run, leaving its future
  /// unresolved and wait_idle() hung (the daemon-shutdown race).
  std::future<void> submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed.
  void wait_idle();

  /// Stops accepting work, drains the queued tasks (workers finish what
  /// was already submitted) and joins the workers. Any task somehow left
  /// unrun has its promise broken, so no future ever blocks forever.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// True when the calling thread is one of *this* pool's workers. Used by
  /// parallel_for to run nested invocations inline instead of deadlocking.
  [[nodiscard]] bool on_worker_thread() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Returns the process-wide pool (lazily constructed). Its size honors the
/// DEFLATE_THREADS environment variable when set to a positive integer,
/// falling back to hardware concurrency.
ThreadPool& global_pool();

/// DEFLATE_THREADS as a worker count: 0 when unset or not a positive
/// integer. It sizes only the global pool and the arrival stream's default
/// prefetch workers (`trace::ReplayConfig::worker_threads == 0`); placement
/// runs on one thread whatever it says. Results are worker-count
/// independent by design, so the variable only changes speed.
[[nodiscard]] std::size_t env_threads();

/// Splits [0, n) into contiguous chunks and runs `body(begin, end)` on the
/// pool. Blocks until all chunks finish. Exceptions from the body propagate
/// (first one wins). With n == 0 this is a no-op. Safe to call from a task
/// already running on the pool: the nested call executes inline.
void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body);

/// Pool-explicit variant: `pool == nullptr` runs the whole range inline on
/// the calling thread (the serial degenerate case — one chunk, zero
/// threading overhead). Deterministic components thread an optional pool
/// through to here so the same build serves serial and parallel callers.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace deflate::util
