// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around calls into the library: name, start,
// end, parent and run id, written out as chrome://tracing JSON when the
// run ends.
//
// A span whose work is many short calls (one per operation) is recorded
// as an aggregate: the calls are timed one by one and summed, and the
// span stores the summed duration from the first call's start, with the
// call count. Self time of a span is its duration minus its children's.
//
// The library's obs::Tracer keeps no parent links or run ids and drops
// old spans from a fixed ring; this recorder keeps every span, and lives
// with the benchmark so that changes under src/obs cannot change what
// the benchmark measures.
#ifndef KAVBENCH_SPANS_H
#define KAVBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/thread_safety.h"

namespace kavbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t dur_ns = 0;
  std::int32_t parent = -1;   // index into spans, -1 for a root
  std::uint32_t run = 0;
  std::uint32_t thread = 0;
  std::uint64_t calls = 0;    // > 0 marks an aggregate
};

class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_run(std::uint32_t run) {
    kav::util::MutexLock lock(mutex_);
    run_ = run;
  }

  // RAII span; parent is the innermost open span of `thread`.
  class Scope {
   public:
    Scope(Recorder& recorder, const char* name, std::uint32_t thread = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int32_t id() const { return id_; }

   private:
    Recorder& recorder_;
    std::int32_t id_ = -1;  // -1 when the recorder is disabled
    std::uint32_t thread_;
  };

  // Accumulates many short calls into one aggregate child span of the
  // innermost open span of `thread`.
  class Tally {
   public:
    Tally(Recorder& recorder, const char* name, std::uint32_t thread = 0);
    ~Tally() { flush(); }
    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;

    template <typename F>
    decltype(auto) time(F&& f) {
      if (!recorder_.enabled()) return f();
      const Clock::time_point t0 = Clock::now();
      if (calls_ == 0) first_ = t0;
      struct Stop {
        Tally& tally;
        Clock::time_point t0;
        ~Stop() {
          tally.total_ += Clock::now() - t0;
          ++tally.calls_;
        }
      } stop{*this, t0};
      return f();
    }
    // Records the span so far and starts a new one.
    void flush();

   private:
    Recorder& recorder_;
    const char* name_;
    std::uint32_t thread_;
    Clock::time_point first_{};
    Clock::duration total_{};
    std::uint64_t calls_ = 0;
  };

  std::vector<Span> spans() const;
  std::int32_t current(std::uint32_t thread) const;

  // Self time per span name, in seconds, over spans of run `run` (and of
  // thread `thread` when it is >= 0).
  std::map<std::string, double> self_seconds(std::uint32_t run,
                                             int thread = -1) const;
  // Sum of durations / max duration per name for run `run`.
  std::map<std::string, double> total_seconds(std::uint32_t run) const;
  std::map<std::string, double> max_seconds(std::uint32_t run) const;

  // chrome://tracing "X" events for every span of run `run`.
  void write_chrome_json(const std::string& path, std::uint32_t run) const;

 private:
  std::int32_t open(const char* name, std::uint32_t thread, Clock::time_point t);
  void close(std::int32_t id, std::uint32_t thread, Clock::time_point t);
  std::int32_t add(Span span);

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable kav::util::Mutex mutex_;
  std::uint32_t run_ KAV_GUARDED_BY(mutex_) = 0;
  std::vector<Span> spans_ KAV_GUARDED_BY(mutex_);
  // Open spans per thread, innermost last.
  std::map<std::uint32_t, std::vector<std::int32_t>> stacks_ KAV_GUARDED_BY(mutex_);
};

}  // namespace kavbench

#endif  // KAVBENCH_SPANS_H
