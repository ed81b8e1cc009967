// Byte-budgeted LRU cache.
//
// SCFS uses two of these (paper §2.5.1): a main-memory cache of open files
// (hundreds of MB) and a disk cache (GBs). The cache tracks a byte budget,
// evicting least-recently-used entries when inserting would exceed it. An
// eviction callback lets the memory cache spill evicted files to disk.

#ifndef SCFS_COMMON_LRU_CACHE_H_
#define SCFS_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

namespace scfs {

template <typename K, typename V>
class LruCache {
 public:
  using SizeFn = std::function<size_t(const V&)>;
  using EvictFn = std::function<void(const K&, V&&)>;

  // size_fn computes the charged size of a value; defaults to 1 per entry
  // (i.e. the budget is an entry count).
  explicit LruCache(size_t byte_budget, SizeFn size_fn = nullptr,
                    EvictFn evict_fn = nullptr)
      : budget_(byte_budget),
        size_fn_(std::move(size_fn)),
        evict_fn_(std::move(evict_fn)) {}

  // Inserts or replaces. Returns false if the value alone exceeds the budget
  // (the value is not cached; the caller still owns the problem).
  bool Put(const K& key, V value) {
    size_t size = SizeOf(value);
    Erase(key);
    if (size > budget_) {
      return false;
    }
    order_.push_front(key);
    map_.emplace(key, Entry{std::move(value), size, order_.begin()});
    used_ += size;
    EvictUntilFits();
    return true;
  }

  // Returns the value and marks it most recently used.
  std::optional<V> Get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return std::nullopt;
    }
    Touch(it);
    return it->second.value;
  }

  // Get without a copy; pointer invalidated by the next mutation.
  V* GetRef(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    Touch(it);
    return &it->second.value;
  }

  bool Contains(const K& key) const { return map_.count(key) > 0; }

  // Removes without invoking the eviction callback (explicit removal is not
  // an eviction).
  bool Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    used_ -= it->second.size;
    order_.erase(it->second.order_it);
    map_.erase(it);
    return true;
  }

  // Re-charges an entry whose value was mutated in place via GetRef.
  void Recharge(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return;
    }
    used_ -= it->second.size;
    it->second.size = SizeOf(it->second.value);
    used_ += it->second.size;
    EvictUntilFits();
  }

  size_t size() const { return map_.size(); }
  size_t used_bytes() const { return used_; }
  size_t budget() const { return budget_; }

 private:
  struct Entry {
    V value;
    size_t size;
    typename std::list<K>::iterator order_it;
  };

  size_t SizeOf(const V& value) const {
    return size_fn_ ? size_fn_(value) : 1;
  }

  void Touch(typename std::unordered_map<K, Entry>::iterator it) {
    order_.erase(it->second.order_it);
    order_.push_front(it->first);
    it->second.order_it = order_.begin();
  }

  void EvictUntilFits() {
    while (used_ > budget_ && !order_.empty()) {
      const K& victim_key = order_.back();
      auto it = map_.find(victim_key);
      used_ -= it->second.size;
      V victim = std::move(it->second.value);
      K key_copy = victim_key;
      order_.pop_back();
      map_.erase(it);
      if (evict_fn_) {
        evict_fn_(key_copy, std::move(victim));
      }
    }
  }

  size_t budget_;
  size_t used_ = 0;
  SizeFn size_fn_;
  EvictFn evict_fn_;
  std::list<K> order_;  // front = most recent
  std::unordered_map<K, Entry> map_;
};

}  // namespace scfs

#endif  // SCFS_COMMON_LRU_CACHE_H_
