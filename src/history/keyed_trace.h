// Multi-register traces. k-atomicity is a local property (Section II-B
// of the paper): a trace over many registers is k-atomic iff the
// projection onto each register is, so verification splits a trace by
// key and reasons per register. KeyedTrace is the raw form emitted by
// workload sources (the quorum simulator, trace files); KeyGrouper
// splits operations by key in one pass, and split_by_key produces one
// single-register History per key from it.
#ifndef KAV_HISTORY_KEYED_TRACE_H
#define KAV_HISTORY_KEYED_TRACE_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "history/history.h"

namespace kav {

struct KeyedOperation {
  std::string key;
  Operation op;
};

struct KeyedTrace {
  std::vector<KeyedOperation> ops;

  void add(std::string key, Operation op) {
    ops.push_back({std::move(key), op});
  }
  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
};

// Operations grouped by key: ops[i] holds keys[i]'s operations in
// arrival order, and keys are distinct and in lexicographic
// (std::string) order.
struct KeyGroups {
  std::vector<std::string> keys;
  std::vector<std::vector<Operation>> ops;
};

// One-pass grouping by key. Each distinct key is interned once into a
// dense id through a hash map looked up by string_view, so adding an
// operation costs one hash probe and one append to that key's bucket;
// the distinct keys are sorted once, in finish().
//
// An optional `keep` predicate selects keys: it is asked once per
// distinct key, operations of rejected keys are not stored, but the
// key itself still appears in the result (with an empty bucket) so a
// caller can tell which keys the input offered.
class KeyGrouper {
 public:
  using KeepKey = std::function<bool(std::string_view)>;

  KeyGrouper() = default;
  explicit KeyGrouper(KeepKey keep) : keep_(std::move(keep)) {}

  void add(std::string_view key, const Operation& op) {
    const std::uint32_t id = intern(key);
    if (kept_[id]) buckets_[id].push_back(op);
  }

  KeyGroups finish() &&;

 private:
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::uint32_t intern(std::string_view key);

  KeepKey keep_;
  std::unordered_map<std::string, std::uint32_t, KeyHash, std::equal_to<>>
      ids_;
  std::vector<std::vector<Operation>> buckets_;  // by key id
  std::vector<char> kept_;                       // by key id
};

// Groups every operation of `trace` by key.
KeyGroups group_by_key(const KeyedTrace& trace);

// One History per key, in lexicographic key order. Note the per-key op
// ids index into that key's History, not into the original trace.
struct KeyedHistories {
  std::map<std::string, History> per_key;

  // Keys in map (lexicographic) order -- the shard enumeration order
  // the verification pipeline dispatches and merges in.
  std::vector<std::string> keys() const;
  // Total operations across all shards and the largest single shard;
  // what PipelineOptions::shard_op_budget is measured against.
  std::size_t total_ops() const;
  std::size_t max_shard_ops() const;
};

KeyedHistories split_by_key(const KeyedTrace& trace);

}  // namespace kav

#endif  // KAV_HISTORY_KEYED_TRACE_H
