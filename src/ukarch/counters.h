// ukarch/counters.h - live statistics counters with by-value snapshots.
//
// Every micro-library reports its statistics the same way: a snapshot struct
// made only of std::uint64_t fields, returned by value, so a reader can
// compare a snapshot taken before an operation with one taken after while
// the owning loops keep counting. This header is the one implementation of
// that pattern:
//
//   Counters<S>         one block of relaxed atomics, one per field of S.
//                       Add(&S::field, n) bumps a field; Load() returns an S.
//   CounterSlots<S, N>  N cacheline-padded blocks, one per event loop, so
//                       sharded loops never write-share a counter line.
//                       Load(slot) reads one loop's block, Sum() all of them.
//   AddTo(&acc, s)      field-wise acc += s, for anyone folding snapshots.
//
// Every bump is a relaxed fetch_add (a single locked add on x86, the same
// instruction as ++ on a std::atomic). Load() reads each field with its own
// atomic load: a snapshot is exact per field, not a cross-field instant.
#ifndef UKARCH_COUNTERS_H_
#define UKARCH_COUNTERS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ukarch/align.h"

namespace ukarch {

// A snapshot struct viewed as its fields in declaration order. The
// static_asserts stand in for "made only of std::uint64_t fields": trivially
// copyable, no padding bytes, and a whole number of 8-byte words.
template <class S>
using CounterWords = std::array<std::uint64_t, sizeof(S) / sizeof(std::uint64_t)>;

template <class S>
inline constexpr bool kIsCounterSnapshot =
    std::is_trivially_copyable_v<S> &&
    std::has_unique_object_representations_v<S> &&
    alignof(S) == alignof(std::uint64_t) &&
    sizeof(S) % sizeof(std::uint64_t) == 0;

template <class S>
void AddTo(S* acc, const S& delta) {
  static_assert(kIsCounterSnapshot<S>, "counter snapshots hold only uint64_t fields");
  auto sum = std::bit_cast<CounterWords<S>>(*acc);
  const auto add = std::bit_cast<CounterWords<S>>(delta);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    sum[i] += add[i];
  }
  *acc = std::bit_cast<S>(sum);
}

template <class S>
class Counters {
  static_assert(kIsCounterSnapshot<S>, "counter snapshots hold only uint64_t fields");

 public:
  using Field = std::uint64_t S::*;

  void Add(Field field, std::uint64_t n = 1) {
    words_[Index(field)].fetch_add(n, std::memory_order_relaxed);
  }

  S Load() const {
    CounterWords<S> snap;
    for (std::size_t i = 0; i < snap.size(); ++i) {
      snap[i] = words_[i].load(std::memory_order_relaxed);
    }
    return std::bit_cast<S>(snap);
  }

 private:
  // The field's word index: its byte offset inside a probe object. With a
  // constant member pointer this folds to an immediate, so Add() compiles to
  // one locked add at a fixed offset.
  static std::size_t Index(Field field) {
    static constexpr S kProbe{};
    const auto* base = reinterpret_cast<const unsigned char*>(&kProbe);
    const auto* at = reinterpret_cast<const unsigned char*>(&(kProbe.*field));
    return static_cast<std::size_t>(at - base) / sizeof(std::uint64_t);
  }

  std::array<std::atomic<std::uint64_t>, sizeof(S) / sizeof(std::uint64_t)> words_{};
};

// One counter block per event loop. The loop owning slot i is its only
// writer; readers take snapshots from any thread. A slot index past the end
// lands in the last slot.
template <class S, std::size_t kSlots>
class CounterSlots {
  static_assert(kSlots > 0);

 public:
  Counters<S>& At(std::size_t slot) { return slots_[Clamp(slot)].block; }
  S Load(std::size_t slot) const { return slots_[Clamp(slot)].block.Load(); }
  S Sum() const {
    S sum{};
    for (const Padded& p : slots_) {
      AddTo(&sum, p.block.Load());
    }
    return sum;
  }

 private:
  static std::size_t Clamp(std::size_t slot) {
    return slot < kSlots ? slot : kSlots - 1;
  }
  struct alignas(kCacheLineSize) Padded {
    Counters<S> block;
  };
  std::array<Padded, kSlots> slots_{};
};

}  // namespace ukarch

#endif  // UKARCH_COUNTERS_H_
