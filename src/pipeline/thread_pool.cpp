#include "pipeline/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/span.h"

namespace kav::pipeline {

namespace {
std::atomic<std::uint64_t> g_pools_created{0};
}  // namespace

// All counters are cumulative across every pool wired to the same
// registry; kav_pool_threads and kav_pool_queue_depth are likewise
// sums (each pool adds its contribution and removes it on shutdown).
struct ThreadPool::Metrics {
  obs::Counter& tasks_submitted;
  obs::Counter& tasks_completed;
  obs::Counter& steals;
  obs::Gauge& queue_depth;
  obs::Gauge& threads;
  obs::Histogram& task_seconds;

  explicit Metrics(obs::MetricsRegistry& registry)
      : tasks_submitted(registry.counter(
            "kav_pool_tasks_submitted_total",
            "Tasks submitted or posted to the work-stealing pool.")),
        tasks_completed(registry.counter(
            "kav_pool_tasks_completed_total",
            "Tasks the pool ran to completion (including ones whose "
            "exception was captured into a future).")),
        steals(registry.counter(
            "kav_pool_steals_total",
            "Tasks claimed from another worker's queue (work stealing).")),
        queue_depth(registry.gauge(
            "kav_pool_queue_depth",
            "Tasks enqueued but not yet claimed by any worker.")),
        threads(registry.gauge("kav_pool_threads",
                               "Worker threads across live pools.")),
        task_seconds(registry.histogram(
            "kav_pool_task_seconds",
            "Wall time per pool task, submission excluded.")) {}
};

std::uint64_t ThreadPool::created_count() {
  return g_pools_created.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t threads, obs::MetricsRegistry* metrics) {
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
  metrics_ = std::make_unique<Metrics>(
      metrics != nullptr ? *metrics : obs::MetricsRegistry::global());
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  metrics_->threads.add(static_cast<std::int64_t>(threads));
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { run_worker(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    util::MutexLock state_lock(state_mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    const std::size_t target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
    {
      // Nested state -> queue locking is the one ordering used anywhere
      // (workers never take state_mutex_ while holding a queue mutex).
      // Pushing before ++pending_ means a woken worker always finds the
      // task; incrementing first would let idle workers spin through
      // empty queues until the push lands.
      util::MutexLock queue_lock(queues_[target]->mutex);
      queues_[target]->tasks.push_back(std::move(task));
    }
    ++pending_;
  }
  metrics_->tasks_submitted.add(1);
  metrics_->queue_depth.add(1);
  wake_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t self) {
  std::function<void()> task;
  bool stolen = false;
  {
    WorkerQueue& own = *queues_[self];
    util::MutexLock lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
    }
  }
  if (!task) {
    // Steal from the back of the other queues (the end their owners
    // will reach last), scanning from the next worker over so victims
    // are spread instead of piling onto worker 0.
    for (std::size_t hop = 1; hop < queues_.size() && !task; ++hop) {
      WorkerQueue& victim = *queues_[(self + hop) % queues_.size()];
      util::MutexLock lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        stolen = true;
      }
    }
  }
  if (!task) return false;
  {
    util::MutexLock lock(state_mutex_);
    --pending_;
  }
  metrics_->queue_depth.sub(1);
  if (stolen) metrics_->steals.add(1);
  {
    obs::ScopedTimer timer(&metrics_->task_seconds, &obs::Tracer::global(),
                           "pool.task", "pipeline");
    // submit() wraps a packaged_task (exceptions land in its future);
    // post() tasks are noexcept.
    task();
  }
  metrics_->tasks_completed.add(1);
  return true;
}

void ThreadPool::run_worker(std::size_t self) {
  for (;;) {
    if (try_run_one(self)) continue;
    util::MutexLock lock(state_mutex_);
    while (!stopping_ && pending_ == 0) wake_.wait(state_mutex_);
    if (stopping_ && pending_ == 0) return;
  }
}

void ThreadPool::shutdown() {
  {
    util::MutexLock lock(state_mutex_);
    if (stopping_) {
      // Idempotent: the first call already joined the workers.
      return;
    }
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  metrics_->threads.sub(static_cast<std::int64_t>(workers_.size()));
}

}  // namespace kav::pipeline
