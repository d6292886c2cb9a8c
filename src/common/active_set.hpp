// Dense bitset active set for activity-driven stepping.
//
// Each sleepable subsystem (routers of one network, cores, MCs, NIs) gets
// one ActiveSet sized to its member count. A member that may do work next
// cycle is woken (O(1), duplicate-safe); each simulated cycle the owner
// drains the set once and steps only the woken members, in ascending index
// order so iteration order — and therefore free-list recycling, trace event
// order and every other order-sensitive side effect — is identical to the
// always-on full loop.
//
// Wakes issued while a drain is in progress land in the *next* drain: the
// drain swaps the pending bits out before visiting them, so a component
// that re-wakes itself (still busy) or wakes a peer is scheduled for the
// following cycle, never re-entered within the current one. Nothing here
// allocates after resize().
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace arinoc {

class ActiveSet {
 public:
  /// Sizes the set for indices [0, n). Drops all members.
  void resize(std::size_t n) {
    size_ = n;
    pending_bits_.assign((n + 63) / 64, 0);
    draining_.assign(pending_bits_.size(), 0);
    pending_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t pending() const { return pending_; }

  /// Marks member `i` active for the next drain. O(1); duplicate wakes
  /// before the drain are absorbed.
  void wake(std::size_t i) {
    std::uint64_t& word = pending_bits_[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((word & bit) == 0) {
      word |= bit;
      ++pending_;
    }
  }

  void wake_all() {
    for (std::size_t i = 0; i < size_; ++i) wake(i);
  }

  bool contains(std::size_t i) const {
    return (pending_bits_[i / 64] >> (i % 64)) & 1u;
  }

  /// Drops every pending member without invoking anything.
  void clear() {
    std::fill(pending_bits_.begin(), pending_bits_.end(), std::uint64_t{0});
    pending_ = 0;
  }

  /// Invokes `fn(i)` once per pending member, in ascending index order.
  /// wake() calls made during the drain (self re-wakes, peer wakes) are
  /// deferred to the next drain.
  template <typename Fn>
  void drain_sorted(Fn&& fn) {
    // draining_ is all zero between drains; after the swap it holds this
    // drain's members and pending_bits_ starts empty.
    draining_.swap(pending_bits_);
    pending_ = 0;
    for (std::size_t w = 0; w < draining_.size(); ++w) {
      for (std::uint64_t bits = std::exchange(draining_[w], 0); bits != 0;
           bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  std::size_t size_ = 0;
  std::size_t pending_ = 0;  ///< Set bits in pending_bits_.
  std::vector<std::uint64_t> pending_bits_;  ///< Bit i set => i pending.
  std::vector<std::uint64_t> draining_;      ///< Drain snapshot (all zero
                                             ///< outside drain_sorted).
};

}  // namespace arinoc
