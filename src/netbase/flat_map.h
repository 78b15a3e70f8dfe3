// Open-addressed hash map over unsigned integer keys, for hot lookup
// tables that only grow: one flat slot array, linear probing, power-of-two
// capacity, no erase. A slot is just {key, value}: the all-ones key marks
// an empty slot, and an entry whose key really is all ones lives in a side
// slot. Iteration order is slot order, which depends on the insertion
// history — callers that serialize a FlatMap sort its entries first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace rrr {

template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys are unsigned ints");

 public:
  std::size_t size() const { return size_ + (all_ones_ ? 1 : 0); }

  void clear() {
    slots_.clear();
    size_ = 0;
    shift_ = 64;
    all_ones_.reset();
  }

  // Sizes the table so `n` entries fit without a rehash.
  void reserve(std::size_t n) {
    std::size_t capacity = kMinCapacity;
    while (capacity < 2 * n) capacity *= 2;
    if (capacity > slots_.size()) rehash(capacity);
  }

  const Value* find(Key key) const {
    if (key == kEmpty) return all_ones_ ? &*all_ones_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == kEmpty) return nullptr;
    }
  }

  // Inserts (key, value) unless `key` is present; returns the stored value
  // and whether it was inserted.
  std::pair<Value*, bool> try_emplace(Key key, const Value& value) {
    if (key == kEmpty) {
      if (all_ones_) return {&*all_ones_, false};
      return {&all_ones_.emplace(value), true};
    }
    // Grow past 1/2 occupancy: linear probes stay a slot or two long.
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == kEmpty) {
        slot = Slot{key, value};
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  // Calls fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty) fn(slot.key, slot.value);
    }
    if (all_ones_) fn(kEmpty, *all_ones_);
  }

 private:
  struct Slot {
    Key key = kEmpty;
    Value value{};
  };
  static constexpr Key kEmpty = ~Key{0};
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t mask() const { return slots_.size() - 1; }
  // Fibonacci hashing: the high bits of key * 2^64/phi. Addresses come in
  // dense blocks, so the low bits of the key alone would cluster.
  std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c /= 2) --shift_;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) try_emplace(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // slot entries, not counting all_ones_
  int shift_ = 64;        // 64 - log2(capacity)
  std::optional<Value> all_ones_;
};

}  // namespace rrr
