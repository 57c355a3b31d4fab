#include "workload_gen.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <numeric>
#include <stdexcept>

#include "gen/generators.h"
#include "util/rng.h"

namespace kavbench {

using kav::Operation;
using kav::TimePoint;
using kav::Value;

namespace {

// Time units between consecutive distinct timestamps of a clean block,
// and the gap left between segments of one key.
constexpr TimePoint kTick = 100;
constexpr TimePoint kSpacing = 1000;

TimePoint floor_to(TimePoint t, TimePoint q) { return t - (t % q); }
TimePoint ceil_to(TimePoint t, TimePoint q) { return floor_to(t + q - 1, q); }

// generate_k_atomic returns a normalized history whose stamps are event
// ranks times (size + 2), so its time scale grows with the block. Maps
// the distinct stamps to multiples of kTick in order: strictly monotone,
// so precedence, uniqueness and write-shortening are unchanged, and an
// operation's duration depends only on how many others overlap it.
std::vector<Operation> compress_times(std::span<const Operation> block) {
  std::vector<TimePoint> stamps;
  stamps.reserve(2 * block.size());
  for (const Operation& op : block) {
    stamps.push_back(op.start);
    stamps.push_back(op.finish);
  }
  std::sort(stamps.begin(), stamps.end());
  stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
  auto rank = [&](TimePoint t) {
    return kTick * static_cast<TimePoint>(
                       std::lower_bound(stamps.begin(), stamps.end(), t) - stamps.begin());
  };
  std::vector<Operation> out(block.begin(), block.end());
  for (Operation& op : out) {
    op.start = rank(op.start);
    op.finish = rank(op.finish);
  }
  return out;
}

// Lays one key's segments end to end on its own time axis, renumbering
// values so they stay unique within the key.
class KeyBuilder {
 public:
  KeyBuilder(TimePoint start, bool coarse) : cursor_(start), coarse_(coarse) {}

  // Appends `segment` at the cursor; returns its [begin, end] window.
  std::pair<TimePoint, TimePoint> append(std::span<const Operation> segment,
                                         bool round_clock) {
    TimePoint min_start = segment.front().start;
    Value max_value = 0;
    for (const Operation& op : segment) {
      min_start = std::min(min_start, op.start);
      max_value = std::max(max_value, op.value);
    }
    const TimePoint shift = cursor_ - min_start;
    TimePoint begin = kav::kTimeMax;
    TimePoint end = kav::kTimeMin;
    for (Operation op : segment) {
      op.start += shift;
      op.finish += shift;
      op.value += value_base_;
      if (round_clock && coarse_) {
        // Outward rounding only widens intervals, so it removes
        // precedence pairs and keeps a 2-atomic block 2-atomic.
        op.start = floor_to(op.start, kCoarseQuantum);
        op.finish = ceil_to(op.finish, kCoarseQuantum);
      }
      begin = std::min(begin, op.start);
      end = std::max(end, op.finish);
      ops_.push_back(op);
    }
    value_base_ += max_value;
    cursor_ = end;
    return {begin, end};
  }

  void skip(TimePoint gap) { cursor_ += gap; }
  std::vector<Operation>& ops() { return ops_; }

 private:
  TimePoint cursor_;
  bool coarse_;
  Value value_base_ = 0;
  std::vector<Operation> ops_;
};

kav::History make_pattern(Pattern pattern) {
  switch (pattern) {
    case Pattern::property_p_triple:
      return kav::gen::generate_property_p_triple();
    case Pattern::b3_chunk:
      return kav::gen::generate_b3_chunk(3);
    case Pattern::forced_separation:
      return kav::gen::generate_forced_separation(2);
  }
  throw std::logic_error("unknown pattern");
}

// Picks exactly n / kBadOneIn (at least one when n >= kBadOneIn) of the
// ids [first, first + n) as bad.
void pick_bad(std::vector<char>& bad, std::size_t first, std::size_t n,
              kav::Rng& rng) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), first);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < n / kBadOneIn; ++i) bad[ids[i]] = 1;
}

}  // namespace

const char* to_string(Pattern pattern) {
  switch (pattern) {
    case Pattern::property_p_triple:
      return "property_p_triple";
    case Pattern::b3_chunk:
      return "b3_chunk";
    case Pattern::forced_separation:
      return "forced_separation";
  }
  return "unknown";
}

std::size_t Input::bad_keys() const {
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
}

Input generate(const Shape& shape, std::uint64_t seed) {
  if (shape.blocks < shape.patterns_per_bad_key + 1 ||
      (shape.hot_keys > 0 && shape.hot_blocks < shape.patterns_per_bad_key + 1)) {
    throw std::invalid_argument("every pattern needs a clean block after it");
  }
  kav::Rng rng(seed);
  Input in;
  in.shape = shape;
  const std::size_t total_keys = shape.keys + shape.hot_keys;
  in.bad.assign(total_keys, 0);
  in.hot.assign(total_keys, 0);
  in.key_ops.assign(total_keys, 0);
  pick_bad(in.bad, 0, shape.keys, rng);
  pick_bad(in.bad, shape.keys, shape.hot_keys, rng);

  // Phase 1: each key's segments, in order, before placement.
  struct Segment {
    std::vector<Operation> ops;
    bool clean = true;
    Pattern pattern = Pattern::property_p_triple;
  };
  std::vector<std::vector<Segment>> plan(total_keys);
  std::vector<char> coarse(total_keys, 0);
  std::vector<TimePoint> jitter(total_keys, 0);
  TimePoint max_duration = 0;
  TimePoint max_read_lag = 0;  // read start - dictating write finish
  for (std::size_t key = 0; key < total_keys; ++key) {
    const bool hot = key >= shape.keys;
    in.hot[key] = hot ? 1 : 0;
    char name[32];
    std::snprintf(name, sizeof name, hot ? "hot%03zu" : "k%06zu",
                  hot ? key - shape.keys : key);
    in.key_names.emplace_back(name);

    kav::gen::KAtomicConfig config;
    config.writes = hot ? shape.hot_block_writes : shape.block_writes;
    config.spread = hot ? shape.hot_spread : shape.spread;
    const int blocks = hot ? shape.hot_blocks : shape.blocks;
    coarse[key] = !hot && rng.bernoulli(shape.coarse_fraction) ? 1 : 0;
    jitter[key] = rng.uniform(0, static_cast<TimePoint>(config.writes) * kSpacing);
    for (int b = 0; b < blocks; ++b) {
      const kav::gen::GeneratedHistory block = kav::gen::generate_k_atomic(config, rng);
      Segment clean{compress_times(block.history.operations())};
      for (const Operation& op : clean.ops) {
        max_duration = std::max(max_duration, op.finish - op.start);
      }
      for (kav::OpId r : block.history.reads()) {
        const kav::OpId w = block.history.dictating_write(r);
        max_read_lag = std::max(max_read_lag, clean.ops[r].start - clean.ops[w].finish);
      }
      plan[key].push_back(std::move(clean));
      if (in.bad[key] && b < shape.patterns_per_bad_key) {
        const auto pattern = static_cast<Pattern>(rng.uniform(0, 2));
        const kav::History ops = make_pattern(pattern);
        plan[key].push_back({{ops.operations().begin(), ops.operations().end()}, false, pattern});
      }
    }
  }

  // Phase 2: monitor settings. Coarse rounding widens an operation by
  // less than two quanta; the slack is rounded up so that it rarely
  // depends on the seed.
  in.slack = (max_duration + 2 * kCoarseQuantum) / kSpacing * kSpacing + kSpacing;
  if (max_read_lag + 2 * kCoarseQuantum >= shape.horizon) {
    throw std::logic_error("staleness horizon below the generated read lag");
  }
  // Silent gap after a pattern: the next block starts past
  // end + horizon + slack even after coarse rounding.
  const TimePoint pattern_gap = shape.horizon + in.slack + 2 * kCoarseQuantum + kSpacing;

  // Phase 3: lay each key's segments end to end.
  struct Tagged {
    TimePoint finish;
    std::uint32_t key;
    std::uint32_t index;
  };
  std::vector<std::vector<Operation>> per_key(total_keys);
  std::vector<Tagged> order;
  for (std::size_t key = 0; key < total_keys; ++key) {
    KeyBuilder builder(kSpacing + jitter[key], coarse[key] != 0);
    for (std::size_t i = 0; i < plan[key].size(); ++i) {
      const Segment& segment = plan[key][i];
      if (i > 0) builder.skip(kSpacing);
      const auto [begin, end] = builder.append(segment.ops, /*round_clock=*/segment.clean);
      if (!segment.clean) {
        in.injected.push_back({static_cast<std::uint32_t>(key), segment.pattern, begin, end});
        builder.skip(pattern_gap);
      }
    }
    plan[key].clear();
    per_key[key] = std::move(builder.ops());
    in.key_ops[key] = per_key[key].size();
    for (std::size_t i = 0; i < per_key[key].size(); ++i) {
      order.push_back({per_key[key][i].finish, static_cast<std::uint32_t>(key),
                       static_cast<std::uint32_t>(i)});
    }
  }

  std::sort(order.begin(), order.end(), [](const Tagged& a, const Tagged& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    if (a.key != b.key) return a.key < b.key;
    return a.index < b.index;
  });
  in.stream.ops.reserve(order.size());
  in.stream_key.reserve(order.size());
  for (const Tagged& t : order) {
    in.stream.add(in.key_names[t.key], per_key[t.key][t.index]);
    in.stream_key.push_back(t.key);
  }

  in.digest = stream_digest(in.stream);
  return in;
}

std::uint64_t stream_digest(const kav::KeyedTrace& stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const kav::KeyedOperation& kop : stream.ops) {
    mix(kop.key.data(), kop.key.size() + 1);  // includes the terminator
    const std::int64_t fields[3] = {kop.op.start, kop.op.finish, kop.op.value};
    mix(fields, sizeof fields);
    const unsigned char type = kop.op.is_write() ? 1 : 0;
    mix(&type, 1);
  }
  return h;
}

}  // namespace kavbench
