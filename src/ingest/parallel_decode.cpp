#include "ingest/parallel_decode.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <future>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "ingest/binary_trace.h"
#include "ingest/wire.h"
#include "pipeline/thread_pool.h"

namespace kav {

namespace {

using wire::load_i64;
using wire::load_u16;
using wire::load_u32;

// A borrowed read-only descriptor, read only through pread, so that
// every range shares it without a shared file offset.
class File {
 public:
  explicit File(int fd) : fd_(fd) {}

  // The file's size, or nullopt when it cannot be read.
  std::optional<std::uint64_t> size() const {
    struct stat st {};
    if (fd_ < 0 || ::fstat(fd_, &st) != 0) return std::nullopt;
    return static_cast<std::uint64_t>(st.st_size);
  }

  // Reads up to `n` bytes at `offset`, fewer only at the end of the
  // file; nullopt on an I/O error.
  std::optional<std::size_t> read_at(std::uint64_t offset, unsigned char* dst,
                                     std::size_t n) const {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t got = ::pread(fd_, dst + done, n - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) return std::nullopt;
      if (got == 0) break;
      done += static_cast<std::size_t>(got);
    }
    return done;
  }

 private:
  int fd_;
};

// The header pass's reader: small sequential reads served from one
// window, refilled by one pread when a read leaves it.
class HeaderCursor {
 public:
  explicit HeaderCursor(const File& file) : file_(file) {}

  // `n` bytes at `offset`, valid until the next call; nullptr when the
  // file ends first.
  const unsigned char* at(std::uint64_t offset, std::size_t n) {
    if (offset < base_ || offset - base_ + n > filled_) {
      window_.resize(std::max(n, kWindowBytes));
      base_ = offset;
      filled_ = file_.read_at(offset, window_.data(), window_.size())
                    .value_or(0);
    }
    return offset - base_ + n <= filled_ ? window_.data() + (offset - base_)
                                         : nullptr;
  }

 private:
  static constexpr std::size_t kWindowBytes = 16 * 1024;
  const File& file_;
  std::vector<unsigned char> window_;
  std::uint64_t base_ = 0;
  std::size_t filled_ = 0;
};

struct ChunkSpan {
  std::uint64_t payload = 0;  // absolute offset of the chunk's first record
  std::uint32_t records = 0;
  // Key-table size once this chunk's delta is read: the bound the
  // serial reader checks this chunk's key ids against.
  std::size_t key_bound = 0;
};

struct Layout {
  std::vector<std::string> keys;  // by file-global id
  std::vector<ChunkSpan> chunks;
};

// The serial header pass. False on any header or key-table byte the
// serial reader rejects, and on a payload running past the end.
bool read_layout(const File& file, std::uint64_t file_size, Layout& layout) {
  HeaderCursor in(file);
  const unsigned char* header = in.at(0, kBinaryTraceHeaderBytes);
  if (header == nullptr || load_u32(header) != kBinaryTraceMagic) return false;
  const std::uint16_t version = load_u16(header + 4);
  if (version != kBinaryTraceVersion && version != kBinaryTraceVersion2) {
    return false;
  }
  std::uint64_t offset = kBinaryTraceHeaderBytes;
  while (offset < file_size) {
    const unsigned char* first = in.at(offset, 4);
    if (first == nullptr) return false;
    const std::uint32_t new_keys = load_u32(first);
    // v2: the footer follows; the record stream is complete.
    if (version == kBinaryTraceVersion2 &&
        new_keys == kBinaryTraceFooterSentinel) {
      return true;
    }
    const unsigned char* second = in.at(offset + 4, 4);
    if (second == nullptr) return false;
    const std::uint32_t records = load_u32(second);
    if (new_keys > kBinaryTraceMaxChunkKeys ||
        records > kBinaryTraceMaxChunkRecords ||
        (new_keys == 0 && records == 0)) {
      return false;
    }
    offset += 8;
    for (std::uint32_t i = 0; i < new_keys; ++i) {
      const unsigned char* length_bytes = in.at(offset, 2);
      if (length_bytes == nullptr) return false;
      const std::uint16_t length = load_u16(length_bytes);
      const unsigned char* bytes = in.at(offset + 2, length);
      if (bytes == nullptr) return false;
      layout.keys.emplace_back(reinterpret_cast<const char*>(bytes), length);
      offset += 2 + std::uint64_t{length};
    }
    layout.chunks.push_back({offset, records, layout.keys.size()});
    offset += std::uint64_t{records} * kBinaryTraceRecordBytes;
  }
  // Clean end of stream: the last payload ends exactly at the end.
  return offset == file_size;
}

// Runs body(r) for every r in [0, ranges): range 0 on the calling
// thread, the others on `pool`. Returns once every range has finished,
// rethrowing the first exception only then, since each task refers to
// the caller's state.
template <typename Body>
void run_ranges(pipeline::ThreadPool& pool, std::size_t ranges,
                const Body& body) {
  std::vector<std::future<void>> futures;
  futures.reserve(ranges);
  try {
    for (std::size_t r = 1; r < ranges; ++r) {
      futures.push_back(pool.submit([&body, r] { body(r); }));
    }
    body(0);
  } catch (...) {
    for (const auto& future : futures) future.wait();
    throw;
  }
  for (const auto& future : futures) future.wait();
  for (auto& future : futures) future.get();
}

// The two parallel passes over one file's layout. Range r covers
// chunks [bounds[r], bounds[r + 1]); the ranges hold about equal
// record counts.
class Decoder {
 public:
  Decoder(const File& file, Layout& layout, pipeline::ThreadPool& pool,
          const StopCheck& stop)
      : file_(file),
        layout_(layout),
        pool_(pool),
        stop_(stop),
        keys_(layout.keys.size()) {
    std::uint64_t total = 0;
    for (const ChunkSpan& chunk : layout.chunks) total += chunk.records;
    ranges_ = std::min(layout.chunks.size(), pool.thread_count() + 1);
    bounds_.push_back(0);
    std::uint64_t seen = 0;
    for (std::size_t c = 0; c < layout.chunks.size(); ++c) {
      seen += layout.chunks[c].records;
      while (bounds_.size() < ranges_ &&
             seen * ranges_ >= total * bounds_.size()) {
        bounds_.push_back(c + 1);
      }
    }
    while (bounds_.size() <= ranges_) bounds_.push_back(layout.chunks.size());
    faults_.assign(ranges_, Fault::none);
    stop_reasons_.resize(ranges_);
    // Rows 0..ranges-1: each range's counts, then its write offsets;
    // row `ranges`: each key's total.
    table_.assign((ranges_ + 1) * keys_, 0);
  }

  GroupedDecode run(std::vector<std::uint32_t> key_order) {
    GroupedDecode out;
    if (!pass([this](std::size_t r) { count(r); }, out)) return out;

    // Prefix sums over (key, range): each key's exact size and each
    // range's first write position within it.
    for (std::size_t k = 0; k < keys_; ++k) {
      std::uint64_t sum = 0;
      for (std::size_t r = 0; r < ranges_; ++r) {
        std::uint64_t& cell = table_[r * keys_ + k];
        sum += std::exchange(cell, sum);
      }
      table_[ranges_ * keys_ + k] = sum;
    }
    // Sized on the calling thread: buckets allocated by whichever pool
    // worker ran a range would spread each run's memory over several
    // allocator arenas, raising the process's peak from run to run.
    buckets_.resize(keys_);
    for (std::size_t k = 0; k < keys_; ++k) {
      buckets_[k].resize(table_[ranges_ * keys_ + k]);
    }
    if (!pass([this](std::size_t r) { scatter(r); }, out)) return out;

    out.status = GroupedDecode::Status::done;
    for (std::uint32_t id : key_order) {
      if (buckets_[id].empty()) continue;
      out.groups.keys.push_back(std::move(layout_.keys[id]));
      out.groups.ops.push_back(std::move(buckets_[id]));
    }
    return out;
  }

 private:
  enum class Fault : unsigned char { none, stopped, declined };

  // Runs one pass over every range; false (with `out` saying why) when
  // a range stopped or declined. Declining wins: the serial reader
  // then meets both the bad bytes and the stop condition itself.
  template <typename Body>
  bool pass(const Body& body, GroupedDecode& out) {
    run_ranges(pool_, ranges_, body);
    for (std::size_t r = 0; r < ranges_; ++r) {
      if (faults_[r] == Fault::declined) return false;
    }
    for (std::size_t r = 0; r < ranges_; ++r) {
      if (faults_[r] == Fault::stopped) {
        out.status = GroupedDecode::Status::stopped;
        out.stop_reason = std::move(stop_reasons_[r]);
        return false;
      }
    }
    return true;
  }

  // Ends range r's pass with `fault` and tells the other ranges to end
  // theirs.
  void fail(std::size_t r, Fault fault) {
    faults_[r] = fault;
    abort_.store(true, std::memory_order_relaxed);
  }

  // The per-chunk prelude of both passes: the stop check, then chunk
  // c's payload into `buffer`. False when range r must end.
  bool load(std::size_t r, std::size_t c, std::vector<unsigned char>& buffer) {
    if (abort_.load(std::memory_order_relaxed)) return false;
    std::string reason = stop_();
    if (!reason.empty()) {
      stop_reasons_[r] = std::move(reason);
      fail(r, Fault::stopped);
      return false;
    }
    const ChunkSpan& chunk = layout_.chunks[c];
    buffer.resize(std::size_t{chunk.records} * kBinaryTraceRecordBytes);
    if (file_.read_at(chunk.payload, buffer.data(), buffer.size()) !=
        buffer.size()) {
      fail(r, Fault::declined);  // the file shrank since the header pass
      return false;
    }
    return true;
  }

  void count(std::size_t r) {
    std::uint64_t* counts = table_.data() + r * keys_;
    std::vector<unsigned char> buffer;
    for (std::size_t c = bounds_[r]; c < bounds_[r + 1]; ++c) {
      if (!load(r, c, buffer)) return;
      const std::size_t bound = layout_.chunks[c].key_bound;
      for (std::size_t at = 0; at < buffer.size();
           at += kBinaryTraceRecordBytes) {
        const std::uint32_t id = load_u32(buffer.data() + at);
        if (id >= bound) return fail(r, Fault::declined);
        ++counts[id];
      }
    }
  }

  void scatter(std::size_t r) {
    const std::uint64_t* first = table_.data() + r * keys_;
    const std::uint64_t* limit = first + keys_;  // range r + 1's first
    std::vector<std::uint64_t> cursor(first, first + keys_);
    std::vector<Operation*> base(keys_);
    for (std::size_t k = 0; k < keys_; ++k) base[k] = buckets_[k].data();
    std::vector<unsigned char> buffer;
    for (std::size_t c = bounds_[r]; c < bounds_[r + 1]; ++c) {
      if (!load(r, c, buffer)) return;
      const std::size_t bound = layout_.chunks[c].key_bound;
      for (std::size_t at = 0; at < buffer.size();
           at += kBinaryTraceRecordBytes) {
        const unsigned char* p = buffer.data() + at;
        const std::uint32_t id = load_u32(p);
        Operation op;
        op.start = load_i64(p + 4);
        op.finish = load_i64(p + 12);
        op.value = load_i64(p + 20);
        op.client = static_cast<ClientId>(load_u32(p + 28));
        op.type = p[32] == 1 ? OpType::write : OpType::read;
        // A key whose slots are used up means the file changed since
        // the counting pass.
        if (id >= bound || p[32] > 1 || op.start >= op.finish ||
            cursor[id] == limit[id]) {
          return fail(r, Fault::declined);
        }
        base[id][cursor[id]++] = op;
      }
    }
    // Every slot must be written: a missing record leaves a gap.
    if (!std::equal(cursor.begin(), cursor.end(), limit)) {
      fail(r, Fault::declined);
    }
  }

  const File& file_;
  Layout& layout_;
  pipeline::ThreadPool& pool_;
  const StopCheck& stop_;
  const std::size_t keys_;
  std::size_t ranges_ = 0;
  std::vector<std::size_t> bounds_;
  std::vector<std::uint64_t> table_;
  std::vector<std::vector<Operation>> buckets_;
  // Each range writes only its own slot; read after the pass joins.
  std::vector<Fault> faults_;
  std::vector<std::string> stop_reasons_;
  std::atomic<bool> abort_{false};
};

}  // namespace

GroupedDecode parallel_decode(int fd, pipeline::ThreadPool& pool,
                              const StopCheck& stop) {
  const File file(fd);
  const std::optional<std::uint64_t> size = file.size();
  Layout layout;
  if (!size || !read_layout(file, *size, layout)) return {};

  // Key order for the result; a key string held under two ids would
  // need its two buckets interleaved, which the serial path does.
  if (layout.keys.size() > std::numeric_limits<std::uint32_t>::max()) {
    return {};
  }
  std::vector<std::uint32_t> order(layout.keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&layout](auto a, auto b) {
    return layout.keys[a] < layout.keys[b];
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (layout.keys[order[i - 1]] == layout.keys[order[i]]) return {};
  }
  if (layout.chunks.empty()) return {GroupedDecode::Status::done, {}, {}};
  return Decoder(file, layout, pool, stop).run(std::move(order));
}

}  // namespace kav
