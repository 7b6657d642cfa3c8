// Memoised batch pricing: serial dedupe -> parallel price -> serial publish.
//
// The one copy of the discipline behind every memoised oracle in MARS:
// SkeletonSpace's second-level strategies, comap's rollout fitness and
// explore's per-point inner searches.
//   1. probe() (serial, batch order): a key in the memo is a hit; the
//      first appearance of any other key is the miss and captures the
//      input that prices it; its later appearances are hits. The counts
//      equal a serial left-to-right sweep of memoised lookups.
//   2. publish() prices the misses on a util::WorkerPool when one is
//      given and there are two or more, inline otherwise. Pricing must be
//      a pure function of its input, so partitioning changes nothing.
//   3. publish() then inserts the values into the memo in first-seen
//      order. When pricing throws, the lowest-chunk exception propagates
//      and nothing is published; hits() and misses() keep their counts.
// Header-only so probing and pricing inline into the search hot paths.
#pragma once

#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mars/util/worker_pool.h"

namespace mars::util {

/// One batch against `Memo`, a std::unordered_map (its nodes keep
/// published values at stable addresses). `Input` is what pricing one
/// missed key needs. Use once: probe every key, then publish().
template <class Memo, class Input>
class MemoBatch {
 public:
  using Key = typename Memo::key_type;
  using Value = typename Memo::mapped_type;

  explicit MemoBatch(Memo& memo) : memo_(&memo) {}

  /// Returns the memoised value on a memo hit; otherwise nullptr, and the
  /// value is in the memo after publish(). `make_input()` runs only for
  /// the miss.
  template <class MakeInput>
  const Value* probe(const Key& key, MakeInput&& make_input) {
    if (const auto it = memo_->find(key); it != memo_->end()) {
      ++hits_;
      return &it->second;
    }
    if (pending_.insert(key).second) {
      ++misses_;
      keys_.push_back(key);
      inputs_.push_back(make_input());
    } else {
      ++hits_;
    }
    return nullptr;
  }

  [[nodiscard]] long long hits() const { return hits_; }
  [[nodiscard]] long long misses() const { return misses_; }

  /// `price(const Input&) -> Value` for every miss, then the publish,
  /// calling `on_publish(Value&)` on each new memo entry in order.
  template <class Price, class OnPublish>
  void publish(const Price& price, WorkerPool* pool, OnPublish&& on_publish) {
    std::vector<Value> priced(inputs_.size());
    const auto run = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) priced[i] = price(inputs_[i]);
    };
    if (pool != nullptr && inputs_.size() > 1) {
      pool->parallel_for(inputs_.size(), run);
    } else {
      run(0, inputs_.size());
    }
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      on_publish(memo_->emplace(std::move(keys_[i]), std::move(priced[i]))
                     .first->second);
    }
  }

  template <class Price>
  void publish(const Price& price, WorkerPool* pool) {
    publish(price, pool, [](Value&) {});
  }

 private:
  Memo* memo_;
  std::unordered_set<Key, typename Memo::hasher, typename Memo::key_equal>
      pending_;
  std::vector<Key> keys_;  // the misses, first-seen order
  std::vector<Input> inputs_;
  long long hits_ = 0;
  long long misses_ = 0;
};

}  // namespace mars::util
