#include "history/keyed_trace.h"

#include <algorithm>
#include <utility>

namespace kav {

std::uint32_t KeyGrouper::intern(std::string_view key) {
  const auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(buckets_.size());
  ids_.emplace(std::string(key), id);
  buckets_.emplace_back();
  kept_.push_back(!keep_ || keep_(key) ? 1 : 0);
  return id;
}

KeyGroups KeyGrouper::finish() && {
  std::vector<std::pair<std::string, std::uint32_t>> order;
  order.reserve(ids_.size());
  while (!ids_.empty()) {
    auto node = ids_.extract(ids_.begin());
    order.emplace_back(std::move(node.key()), node.mapped());
  }
  // Keys are distinct, so this orders by key alone.
  std::sort(order.begin(), order.end());
  KeyGroups out;
  out.keys.reserve(order.size());
  out.ops.reserve(order.size());
  for (auto& [key, id] : order) {
    out.keys.push_back(std::move(key));
    out.ops.push_back(std::move(buckets_[id]));
  }
  return out;
}

KeyGroups group_by_key(const KeyedTrace& trace) {
  KeyGrouper grouper;
  for (const KeyedOperation& kop : trace.ops) grouper.add(kop.key, kop.op);
  return std::move(grouper).finish();
}

std::vector<std::string> KeyedHistories::keys() const {
  std::vector<std::string> out;
  out.reserve(per_key.size());
  for (const auto& [key, history] : per_key) out.push_back(key);
  return out;
}

std::size_t KeyedHistories::total_ops() const {
  std::size_t n = 0;
  for (const auto& [key, history] : per_key) n += history.size();
  return n;
}

std::size_t KeyedHistories::max_shard_ops() const {
  std::size_t n = 0;
  for (const auto& [key, history] : per_key) {
    if (history.size() > n) n = history.size();
  }
  return n;
}

KeyedHistories split_by_key(const KeyedTrace& trace) {
  KeyGroups groups = group_by_key(trace);
  KeyedHistories out;
  // Keys arrive sorted: every insertion lands at the end of the map.
  for (std::size_t i = 0; i < groups.keys.size(); ++i) {
    out.per_key.emplace_hint(out.per_key.end(), std::move(groups.keys[i]),
                             History(std::move(groups.ops[i])));
  }
  return out;
}

}  // namespace kav
