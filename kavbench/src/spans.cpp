#include "spans.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace kavbench {

namespace {

std::int64_t ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

Recorder::Scope::Scope(Recorder& recorder, const char* name, std::uint32_t thread)
    : recorder_(recorder), thread_(thread) {
  if (recorder_.enabled()) id_ = recorder_.open(name, thread, Clock::now());
}

Recorder::Scope::~Scope() {
  if (id_ >= 0) recorder_.close(id_, thread_, Clock::now());
}

Recorder::Tally::Tally(Recorder& recorder, const char* name, std::uint32_t thread)
    : recorder_(recorder), name_(name), thread_(thread) {}

void Recorder::Tally::flush() {
  if (calls_ == 0) return;
  Span span;
  span.name = name_;
  span.start_ns = ns(first_ - recorder_.epoch_);
  span.dur_ns = ns(total_);
  span.parent = recorder_.current(thread_);
  span.thread = thread_;
  span.calls = calls_;
  recorder_.add(span);
  calls_ = 0;
  total_ = {};
}

std::int32_t Recorder::open(const char* name, std::uint32_t thread,
                            Clock::time_point t) {
  kav::util::MutexLock lock(mutex_);
  Span span;
  span.name = name;
  span.start_ns = ns(t - epoch_);
  span.dur_ns = -1;
  auto& stack = stacks_[thread];
  span.parent = stack.empty() ? -1 : stack.back();
  span.run = run_;
  span.thread = thread;
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack.push_back(id);
  return id;
}

void Recorder::close(std::int32_t id, std::uint32_t thread, Clock::time_point t) {
  kav::util::MutexLock lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur_ns = ns(t - epoch_) - span.start_ns;
  // Scopes are RAII objects, so each thread closes its innermost span.
  auto& stack = stacks_[thread];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

std::int32_t Recorder::add(Span span) {
  kav::util::MutexLock lock(mutex_);
  span.run = run_;
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t Recorder::current(std::uint32_t thread) const {
  kav::util::MutexLock lock(mutex_);
  const auto it = stacks_.find(thread);
  return it == stacks_.end() || it->second.empty() ? -1 : it->second.back();
}

std::vector<Span> Recorder::spans() const {
  kav::util::MutexLock lock(mutex_);
  return spans_;
}

std::map<std::string, double> Recorder::self_seconds(std::uint32_t run,
                                                     int thread) const {
  const std::vector<Span> all = spans();
  std::vector<std::int64_t> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) self[i] = all[i].dur_ns;
  for (const Span& span : all) {
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.dur_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].run != run) continue;
    if (thread >= 0 && all[i].thread != static_cast<std::uint32_t>(thread)) continue;
    out[all[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, double> Recorder::total_seconds(std::uint32_t run) const {
  std::map<std::string, double> out;
  for (const Span& span : spans()) {
    if (span.run == run) out[span.name] += static_cast<double>(span.dur_ns) * 1e-9;
  }
  return out;
}

std::map<std::string, double> Recorder::max_seconds(std::uint32_t run) const {
  std::map<std::string, double> out;
  for (const Span& span : spans()) {
    if (span.run != run) continue;
    double& slot = out[span.name];
    slot = std::max(slot, static_cast<double>(span.dur_ns) * 1e-9);
  }
  return out;
}

void Recorder::write_chrome_json(const std::string& path, std::uint32_t run) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  bool first = true;
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.run != run) continue;
    out << (first ? "" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << static_cast<double>(span.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(span.dur_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"run\":" << span.run << ",\"calls\":" << span.calls << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace kavbench
