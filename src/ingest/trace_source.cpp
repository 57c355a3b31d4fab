#include "ingest/trace_source.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "history/serialization.h"
#include "store/indexed_source.h"

namespace kav {

// --- TraceSource -----------------------------------------------------------

TraceSource::Pull TraceSource::try_next_batch_for(
    std::vector<KeyedOperation>& out, std::size_t max,
    std::chrono::milliseconds wait) {
  (void)wait;
  // Pulls straight into out's elements, so their key strings keep their
  // capacity from batch to batch.
  std::size_t n = 0;
  while (n < max) {
    if (n == out.size()) out.emplace_back();
    if (!next(out[n])) break;
    ++n;
  }
  out.resize(n);
  // An end of stream met after some items is reported by the next call:
  // the end is sticky (see next()).
  return n > 0 ? Pull::item : Pull::closed;
}

// --- MemoryTraceSource -----------------------------------------------------

bool MemoryTraceSource::next(KeyedOperation& out) {
  if (pos_ >= trace_.ops.size()) return false;
  out = trace_.ops[pos_++];
  return true;
}

std::string MemoryTraceSource::describe() const {
  return "memory(" + std::to_string(trace_.size()) + " ops)";
}

// --- TextFileTraceSource ---------------------------------------------------

TextFileTraceSource::TextFileTraceSource(const std::string& path)
    : path_(path), trace_(read_trace_file(path)) {}

bool TextFileTraceSource::next(KeyedOperation& out) {
  if (pos_ >= trace_.ops.size()) return false;
  // Single-pass source: moving the key string out keeps
  // drain(*open_trace_source(path)) a one-copy path.
  out = std::move(trace_.ops[pos_++]);
  return true;
}

std::string TextFileTraceSource::describe() const { return "text:" + path_; }

// --- BinaryFileTraceSource -------------------------------------------------

namespace {

// Turns an unopenable path into a clear error before BinaryTraceReader
// would report a confusing truncated-header one.
const std::string& require_readable(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error("cannot open trace file: " + path);
  return path;
}

}  // namespace

BinaryFileTraceSource::BinaryFileTraceSource(const std::string& path)
    : path_(path),
      in_(require_readable(path), std::ios::binary),
      reader_(in_),
      fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}

BinaryFileTraceSource::~BinaryFileTraceSource() {
  if (fd_ >= 0) ::close(fd_);
}

bool BinaryFileTraceSource::next(KeyedOperation& out) {
  started_ = true;
  // A v2 stream ends at its footer sentinel; reading on would parse the
  // footer as a chunk header.
  if (ended_) return false;
  ended_ = !reader_.next(out);
  return !ended_;
}

GroupedDecode BinaryFileTraceSource::decode_grouped(pipeline::ThreadPool& pool,
                                                    const StopCheck& stop) {
  if (std::exchange(started_, true)) return {};
  GroupedDecode decoded = parallel_decode(fd_, pool, stop);
  ended_ = decoded.status != GroupedDecode::Status::declined;
  return decoded;
}

std::string BinaryFileTraceSource::describe() const {
  return "binary:" + path_;
}

// --- PushTraceSource -------------------------------------------------------

void PushTraceSource::push(std::string key, Operation op) {
  push(KeyedOperation{std::move(key), op});
}

void PushTraceSource::push(KeyedOperation kop) {
  util::MutexLock lock(mutex_);
  while (!closed_ && items_.size() >= capacity_) {
    ++waiting_producers_;
    not_full_.wait(mutex_);
    --waiting_producers_;
  }
  if (closed_) {
    throw std::logic_error("PushTraceSource::push after close()");
  }
  items_.push_back(std::move(kop));
  // Each waiting consumer needs one item of its own; further items are
  // taken by whichever consumer wakes, so they need no signal.
  if (items_.size() <= waiting_consumers_) not_empty_.notify_one();
}

void PushTraceSource::close() {
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool PushTraceSource::wait_for_items(
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  while (!closed_ && items_.empty()) {
    bool timed_out = false;
    ++waiting_consumers_;
    if (deadline) {
      timed_out = not_empty_.wait_until(mutex_, *deadline) ==
                  std::cv_status::timeout;
    } else {
      not_empty_.wait(mutex_);
    }
    --waiting_consumers_;
    if (timed_out) break;
  }
  return !items_.empty();
}

void PushTraceSource::wake_producers(std::size_t freed) {
  if (waiting_producers_ == 0 || freed == 0) return;
  if (freed == 1) {
    not_full_.notify_one();
  } else {
    not_full_.notify_all();
  }
}

bool PushTraceSource::next(KeyedOperation& out) {
  util::MutexLock lock(mutex_);
  if (!wait_for_items(std::nullopt)) return false;  // closed and drained
  out = std::move(items_.front());
  items_.pop_front();
  wake_producers(1);
  return true;
}

TraceSource::Pull PushTraceSource::try_next_batch_for(
    std::vector<KeyedOperation>& out, std::size_t max,
    std::chrono::milliseconds wait) {
  out.clear();
  const auto deadline = std::chrono::steady_clock::now() + wait;
  util::MutexLock lock(mutex_);
  if (!wait_for_items(deadline)) return closed_ ? Pull::closed : Pull::pending;
  const std::size_t n = std::min(max, items_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  wake_producers(n);
  return Pull::item;
}

std::string PushTraceSource::describe() const {
  util::MutexLock lock(mutex_);
  return "push(" + std::to_string(items_.size()) + " queued" +
         (closed_ ? ", closed)" : ")");
}

// --- Factory + drain -------------------------------------------------------

std::unique_ptr<TraceSource> open_trace_source(const std::string& path) {
  if (is_binary_trace_file(path)) {
    // Indexed v2 segments open mmap-backed with the selective
    // interface; v1 (and unsealed v2) files stream chunk by chunk.
    // A file claiming an index it cannot back up (corrupt footer)
    // throws here rather than silently degrading.
    if (auto indexed = IndexedTraceSource::try_open(path)) return indexed;
    return std::make_unique<BinaryFileTraceSource>(path);
  }
  return std::make_unique<TextFileTraceSource>(path);
}

KeyedTrace drain(TraceSource& source) {
  KeyedTrace trace;
  KeyedOperation kop;
  while (source.next(kop)) trace.ops.push_back(std::move(kop));
  return trace;
}

}  // namespace kav
