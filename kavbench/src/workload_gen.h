// Workload generation with a built-in answer key.
//
// Every key's history is laid out on its own time axis as a sequence of
// time-disjoint segments: clean blocks from gen::generate_k_atomic
// (2-atomic by construction) and, on bad keys, paper NO patterns
// (property-P triple, B >= 3 chunk, forced separation 2). Because all
// operations of one segment precede all operations of the next, a key is
// 2-atomic iff none of its segments is a NO pattern, so the verdict of
// every key is known without running any decider. Each pattern is
// followed by a silent gap longer than staleness horizon + reorder slack,
// so an online monitor settles and reports it before the key's traffic
// resumes, as one not-2-atomic finding.
//
// All keys are merged into one stream in finish order, the order a
// storage client logs operations as they complete. That one stream is
// the input of every workload: written to a .kavb file, appended to a
// TraceStore, or pushed into a PushTraceSource.
#ifndef KAVBENCH_WORKLOAD_GEN_H
#define KAVBENCH_WORKLOAD_GEN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "history/keyed_trace.h"

namespace kavbench {

enum class Pattern : unsigned char { property_p_triple, b3_chunk, forced_separation };
const char* to_string(Pattern pattern);

// Generator parameters of one workload. Sizes are fixed per workload so
// that every seed produces the same amount of work.
struct Shape {
  std::size_t keys = 64;         // small background keys
  int blocks = 2;                // clean blocks per background key
  int block_writes = 16;         // writes per clean block
  double spread = 0.8;           // interval half-width (write concurrency)
  std::size_t hot_keys = 0;      // large high-concurrency keys
  int hot_blocks = 0;
  int hot_block_writes = 0;
  double hot_spread = 2.5;
  int patterns_per_bad_key = 1;  // NO patterns embedded in each bad key
  // Share of keys whose clock is coarse (timestamps rounded outward to
  // kCoarseQuantum): duplicate stamps the Engine must normalize away.
  double coarse_fraction = 0.25;
  // Online-monitor settings the layout is built for.
  kav::TimePoint horizon = 20'000;
};

inline constexpr std::size_t kBadOneIn = 8;  // 1 key in 8 is bad
inline constexpr kav::TimePoint kCoarseQuantum = 250;

struct Injected {
  std::uint32_t key = 0;
  Pattern pattern = Pattern::property_p_triple;
  kav::TimePoint begin = 0;  // first start of the pattern's operations
  kav::TimePoint end = 0;    // last finish of the pattern's operations
};

struct Input {
  Shape shape;
  std::vector<std::string> key_names;  // key id -> name
  std::vector<char> bad;               // key id -> not 2-atomic
  std::vector<char> hot;               // key id -> large hot key
  std::vector<std::size_t> key_ops;    // key id -> operation count
  kav::KeyedTrace stream;              // every op, in finish order
  std::vector<std::uint32_t> stream_key;  // key id of stream.ops[i]
  std::vector<Injected> injected;      // by key, then time
  kav::TimePoint slack = 0;            // reorder slack >= max op duration
  std::uint64_t digest = 0;            // of the stream's bytes

  std::size_t bad_keys() const;
};

Input generate(const Shape& shape, std::uint64_t seed);

// 64-bit FNV-1a over the canonical record bytes of the stream (key name,
// start, finish, value, type per op, in stream order): two runs with
// equal digests verified the same input.
std::uint64_t stream_digest(const kav::KeyedTrace& stream);

}  // namespace kavbench

#endif  // KAVBENCH_WORKLOAD_GEN_H
