// A small work-stealing thread pool for per-shard verification tasks.
//
// Each worker owns a deque; submissions are distributed round-robin
// across the deques. A worker drains its own deque front-first (FIFO:
// all tasks here are external submissions, so this keeps execution
// close to submission order -- which is what makes fail-fast skips
// land on the *later* shards) and, when idle, steals from the back of
// the other deques, so uneven shard sizes (one hot key, many cold
// ones) keep every thread busy while owner and thief contend on
// opposite ends.
//
// The pool makes two guarantees the verification pipeline leans on:
//
//   1. every task submitted before shutdown() runs to completion
//      (shutdown drains, it does not abort), and
//   2. a submit()ted task's exception is captured and rethrown from the
//      future submit() returned, never swallowed or left to
//      terminate(). post()ed tasks have no future and must not throw.
//
// Cancellation is cooperative and lives in the caller (see
// pipeline/sharded_verifier.cpp's fail-fast flag): tasks that want to
// be cancellable check shared state and return cheaply.
#ifndef KAV_PIPELINE_THREAD_POOL_H
#define KAV_PIPELINE_THREAD_POOL_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_safety.h"

namespace kav::pipeline {

class ThreadPool {
 public:
  // threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  // The pool instruments itself (kav_pool_* metrics: queue depth,
  // steals, task latency) into `metrics`; nullptr means the process
  // registry, obs::MetricsRegistry::global(). The registry must
  // outlive the pool.
  explicit ThreadPool(std::size_t threads = 0,
                      obs::MetricsRegistry* metrics = nullptr);
  ~ThreadPool();  // shutdown()

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  // Process-wide count of pools ever constructed -- a test hook
  // (tests/engine_test.cpp) asserting that one kav::Engine running
  // batch and monitor work spawns exactly one pool.
  static std::uint64_t created_count();

  // Schedules fn and returns a future for its result; an exception
  // thrown by fn surfaces from future.get(). Throws std::runtime_error
  // if the pool has been shut down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only but std::function requires copyable
    // targets, so the task rides in a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  // Schedules fn with no future: the fire-and-forget form of submit()
  // for hot paths that track completion themselves (the keyed monitor's
  // drain tasks), sparing submit()'s packaged_task, shared state and
  // future. fn must not throw -- an escaping exception terminates the
  // process. Throws std::runtime_error if the pool has been shut down.
  template <typename F>
  void post(F&& fn) {
    enqueue([fn = std::forward<F>(fn)]() mutable noexcept { fn(); });
  }

  // Runs every already-submitted task to completion, then joins the
  // workers. Idempotent; later submit() and post() calls throw.
  void shutdown();

 private:
  // Locking contract: state_mutex_ orders the submission cursor, the
  // pending-task count, and shutdown; each WorkerQueue's own mutex
  // orders its deque. The only nesting anywhere is state_mutex_ ->
  // queue mutex (enqueue); workers never take state_mutex_ while
  // holding a queue mutex.
  struct WorkerQueue {
    util::Mutex mutex;
    std::deque<std::function<void()>> tasks KAV_GUARDED_BY(mutex);
  };

  void enqueue(std::function<void()> task) KAV_EXCLUDES(state_mutex_);
  void run_worker(std::size_t self) KAV_EXCLUDES(state_mutex_);
  // Pops own front, else steals another queue's back. Claims one unit
  // of pending_ on success.
  bool try_run_one(std::size_t self) KAV_EXCLUDES(state_mutex_);

  // kav_pool_* instruments, resolved once at construction (see
  // thread_pool.cpp). Owned by the registry, not the pool.
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  util::Mutex state_mutex_;
  util::CondVar wake_;
  // Round-robin submission cursor.
  std::size_t next_queue_ KAV_GUARDED_BY(state_mutex_) = 0;
  // Queued tasks not yet claimed by any worker.
  std::size_t pending_ KAV_GUARDED_BY(state_mutex_) = 0;
  bool stopping_ KAV_GUARDED_BY(state_mutex_) = false;
};

}  // namespace kav::pipeline

#endif  // KAV_PIPELINE_THREAD_POOL_H
