// TraceSource: the one polymorphic input kav::Engine (core/engine.h)
// verifies and monitors from. Every way a trace reaches the library --
// an in-memory KeyedTrace, a text-format file, a binary .kavb file, or
// a live producer pushing operations one at a time -- is the same
// pull-based stream of KeyedOperations, so new backends (sockets, RPC
// front-ends, replay logs) plug in by implementing two methods instead
// of growing another facade overload.
//
// Sources are single-pass: next() walks the stream once. File sources
// detect format by magic bytes (open_trace_source), never by file
// extension; drain(*open_trace_source(path)) reads a whole file of
// either format. Memory cost: binary file sources and push sources are
// truly streaming (O(chunk) / O(capacity)); text file sources load the
// whole trace at construction, which is inherent to the line-oriented
// text format. A batch run groups the whole trace by key whatever the
// source: over a .kavb file, BinaryFileTraceSource::decode_grouped does
// it in O(threads x chunk) read buffers plus exact-size per-key
// buckets, with no growth slack.
#ifndef KAV_INGEST_TRACE_SOURCE_H
#define KAV_INGEST_TRACE_SOURCE_H

#include <chrono>
#include <cstddef>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "history/history.h"
#include "history/keyed_trace.h"
#include "ingest/binary_trace.h"
#include "ingest/parallel_decode.h"
#include "util/thread_safety.h"

namespace kav {

class TraceSource {
 public:
  // Result of a bounded pull (try_next_batch_for): operations were
  // produced, nothing arrived within the wait (stream still open), or
  // the stream ended.
  enum class Pull : unsigned char { item, pending, closed };

  virtual ~TraceSource() = default;

  // Pulls the next operation; false at the end of the stream, and
  // false again on every later call. May block (push sources block
  // until an operation arrives or the producer closes). Throws
  // std::runtime_error on malformed input.
  virtual bool next(KeyedOperation& out) = 0;

  // Bounded batch pull: replaces `out` with 1..`max` operations in
  // stream order and returns Pull::item, or leaves it empty and returns
  // Pull::closed at the end of the stream -- or Pull::pending when a
  // source that might block indefinitely saw nothing arrive within
  // ~`wait`, so a consumer can re-check a CancelToken or deadline
  // between pulls (Engine pulls every source through this). The
  // default repeats next(), which is correct for sources that never
  // block longer than their input takes to read; blocking sources
  // (PushTraceSource) override it.
  virtual Pull try_next_batch_for(std::vector<KeyedOperation>& out,
                                  std::size_t max,
                                  std::chrono::milliseconds wait);

  // Human-readable origin for reports and error messages, e.g.
  // "memory(120 ops)" or "binary:trace.kavb".
  virtual std::string describe() const = 0;
};

// Capability interface for sources backed by a per-key index (the
// trace store's mmap-backed IndexedTraceSource, store/indexed_source.h,
// is the one implementation). Streaming via next() still yields the
// full record stream in arrival order, so such a source behaves like
// any other; the extra methods let kav::Engine serve a selective run
// (RunOptions::key_filter) by materializing ONLY the requested keys'
// histories -- each one loaded inside a pool worker, straight from the
// index, with the rest of the input never decoded.
class SelectiveTraceSource : public TraceSource {
 public:
  // Every key the source can serve selectively (unspecified order).
  virtual std::vector<std::string> selectable_keys() const = 0;
  // Operations stored for `key`; 0 when absent. Available without
  // decoding records -- this is what index-driven shard budgeting and
  // scheduling read.
  virtual std::size_t key_op_count(const std::string& key) const = 0;
  // Decodes `key`'s operations (in arrival order) into a History.
  // Must be thread-safe and independent of the next() cursor: Engine
  // calls it concurrently from pool workers.
  virtual History load_key(const std::string& key) const = 0;
};

// In-memory trace, replayed in insertion (arrival) order.
class MemoryTraceSource final : public TraceSource {
 public:
  explicit MemoryTraceSource(KeyedTrace trace) : trace_(std::move(trace)) {}

  bool next(KeyedOperation& out) override;
  std::string describe() const override;

  // Memory sources alone are re-runnable: rewind to replay the same
  // trace through another Engine call.
  void rewind() { pos_ = 0; }

 private:
  KeyedTrace trace_;
  std::size_t pos_ = 0;
};

// Text-format file (history/serialization.h). The text reader is
// whole-stream, so the trace is parsed eagerly at construction; throws
// std::runtime_error with a line number on parse errors.
class TextFileTraceSource final : public TraceSource {
 public:
  explicit TextFileTraceSource(const std::string& path);

  bool next(KeyedOperation& out) override;
  std::string describe() const override;

 private:
  std::string path_;
  KeyedTrace trace_;
  std::size_t pos_ = 0;
};

// Binary .kavb file (ingest/binary_trace.h): true streaming, one chunk
// in memory at a time. Throws std::runtime_error with a byte offset on
// malformed input.
class BinaryFileTraceSource final : public TraceSource {
 public:
  explicit BinaryFileTraceSource(const std::string& path);
  ~BinaryFileTraceSource() override;

  BinaryFileTraceSource(const BinaryFileTraceSource&) = delete;
  BinaryFileTraceSource& operator=(const BinaryFileTraceSource&) = delete;

  bool next(KeyedOperation& out) override;
  std::string describe() const override;

  // Whole-stream batch pull for Engine::verify: decodes the file on
  // `pool` straight into per-key groups (ingest/parallel_decode.h).
  // Declines, touching nothing, once the stream has been read from or
  // when the bytes are malformed -- next() then still reads from where
  // it was, and reports the fault. After `done` or `stopped` the source
  // is at its end, as a drained source is.
  GroupedDecode decode_grouped(pipeline::ThreadPool& pool,
                               const StopCheck& stop);

 private:
  std::string path_;
  std::ifstream in_;
  BinaryTraceReader reader_;
  // The same file for decode_grouped, opened with the stream, so a
  // path replaced later cannot change what a run reads.
  int fd_;
  bool started_ = false;  // next() or decode_grouped() has run
  bool ended_ = false;    // the reader must not be pulled past the end
};

// Incremental push source: producers push() completed operations from
// any thread; the consumer side (Engine::monitor, typically on another
// thread) pulls them via next(), which blocks until an operation is
// available or the source is closed. push() blocks while the internal
// queue is at capacity (backpressure) and throws std::logic_error
// after close().
//
// Handoffs are counted, not signalled blindly: a push wakes the
// consumer only when one is waiting on an empty queue, and a pull wakes
// producers only when one is blocked on a full queue -- once per
// batch for try_next_batch_for.
class PushTraceSource final : public TraceSource {
 public:
  explicit PushTraceSource(std::size_t capacity = 1'024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(std::string key, Operation op);
  void push(KeyedOperation kop) KAV_EXCLUDES(mutex_);
  // Ends the stream: next() drains what is queued, then returns false.
  // Idempotent.
  void close() KAV_EXCLUDES(mutex_);

  bool next(KeyedOperation& out) override KAV_EXCLUDES(mutex_);
  // Takes up to `max` queued operations under one lock. Times out with
  // Pull::pending instead of blocking forever, so a cancelled
  // Engine::monitor over a push source that is never closed still
  // returns.
  Pull try_next_batch_for(std::vector<KeyedOperation>& out, std::size_t max,
                          std::chrono::milliseconds wait) override
      KAV_EXCLUDES(mutex_);
  std::string describe() const override KAV_EXCLUDES(mutex_);

 private:
  // Waits until an item is queued, the source is closed, or `deadline`
  // passes (nullopt: no deadline). True when an item is queued.
  bool wait_for_items(
      const std::optional<std::chrono::steady_clock::time_point>& deadline)
      KAV_REQUIRES(mutex_);
  // Wakes blocked producers after `freed` items left the queue.
  void wake_producers(std::size_t freed) KAV_REQUIRES(mutex_);

  // One lock orders the whole handoff: producers block on not_full_
  // (capacity backpressure), the consumer blocks on not_empty_, and
  // close() flips closed_ then wakes both sides.
  mutable util::Mutex mutex_;
  util::CondVar not_full_;
  util::CondVar not_empty_;
  std::deque<KeyedOperation> items_ KAV_GUARDED_BY(mutex_);
  // Threads currently blocked on either side; a handoff signals only
  // when the other side has a waiter.
  std::size_t waiting_producers_ KAV_GUARDED_BY(mutex_) = 0;
  std::size_t waiting_consumers_ KAV_GUARDED_BY(mutex_) = 0;
  // Immutable after construction; readable without the lock.
  const std::size_t capacity_;
  bool closed_ KAV_GUARDED_BY(mutex_) = false;
};

// Opens a trace file as a source, deciding text vs binary by magic
// bytes (never by extension). Throws std::runtime_error when the file
// cannot be opened or its header is malformed.
std::unique_ptr<TraceSource> open_trace_source(const std::string& path);

// Pulls a source dry into a KeyedTrace.
KeyedTrace drain(TraceSource& source);

}  // namespace kav

#endif  // KAV_INGEST_TRACE_SOURCE_H
