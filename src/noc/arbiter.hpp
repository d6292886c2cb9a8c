// Arbiters for the separable input-first allocator (Table I).
//
// RoundRobinArbiter: classic rotating-priority arbiter.
// PriorityArbiter:   picks the request with the highest priority key,
//                    breaking ties round-robin. Used by output-port switch
//                    arbitration when ARI's multi-level prioritization (§5)
//                    is enabled; with all keys equal it degenerates to RR.
//
// Requests are fixed-width bitsets owned by the caller: input i requests iff
// bit i%64 of word i/64 is set, over request_words(size()) words, with every
// bit at or above size() clear. Arbitration scans set bits with
// find-first-set from the round-robin pointer and never allocates.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace arinoc {

/// Words of a request bitset covering `inputs` requesters.
constexpr std::size_t request_words(std::size_t inputs) {
  return (inputs + 63) / 64;
}

/// Bit i of a multi-word bitset (word i/64, bit i%64).
inline void set_bit(std::uint64_t* words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}
inline void clear_bit(std::uint64_t* words, std::size_t i) {
  words[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

/// Calls `fn(i)` for every set bit i of the `n`-input bitset `words`, in
/// round-robin order starting at `ptr` (ptr, ptr+1, ..., n-1, 0, ...,
/// ptr-1). Stops early when `fn` returns true.
template <typename Fn>
void scan_round_robin(const std::uint64_t* words, std::size_t n,
                      std::size_t ptr, Fn&& fn) {
  const std::size_t nw = request_words(n);
  const std::size_t w0 = ptr / 64;
  const std::uint64_t at_or_after = ~std::uint64_t{0} << (ptr % 64);
  // Word w0 is visited twice: its bits >= ptr first, its bits < ptr last.
  for (std::size_t k = 0; k <= nw; ++k) {
    const std::size_t w = (w0 + k) % nw;
    std::uint64_t bits = words[w];
    if (k == 0) {
      bits &= at_or_after;
    } else if (k == nw) {
      bits &= ~at_or_after;
    }
    while (bits != 0) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      if (fn(i)) return;
      bits &= bits - 1;
    }
  }
}

class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::size_t inputs = 0) : n_(inputs) {}

  void resize(std::size_t inputs) {
    n_ = inputs;
    if (ptr_ >= n_) ptr_ = 0;
  }
  std::size_t size() const { return n_; }

  /// Picks the first requesting input at or after the pointer; advances the
  /// pointer past the grant. Returns -1 (pointer unchanged) if no input
  /// requests.
  int pick(const std::uint64_t* request) {
    int winner = -1;
    if (n_ == 0) return winner;
    scan_round_robin(request, n_, ptr_, [&](std::size_t i) {
      winner = static_cast<int>(i);
      return true;
    });
    if (winner >= 0) grant(static_cast<std::size_t>(winner));
    return winner;
  }

 private:
  friend class PriorityArbiter;
  void grant(std::size_t i) { ptr_ = i + 1 == n_ ? 0 : i + 1; }

  std::size_t n_;
  std::size_t ptr_ = 0;
};

class PriorityArbiter {
 public:
  explicit PriorityArbiter(std::size_t inputs = 0) : rr_(inputs) {}

  void resize(std::size_t inputs) { rr_.resize(inputs); }

  /// Highest key[i] among requesters wins; among equal keys the first at or
  /// after the round-robin pointer wins (the pointer then moves past it).
  /// Keys of non-requesters are never read. Returns -1 if no input requests.
  int pick(const std::uint64_t* request, const std::uint32_t* key) {
    int winner = -1;
    if (rr_.n_ == 0) return winner;
    std::uint32_t best = 0;
    // In round-robin order the first requester holding the maximum key is
    // exactly the round-robin pick among the maximum-key requesters.
    scan_round_robin(request, rr_.n_, rr_.ptr_, [&](std::size_t i) {
      if (winner < 0 || key[i] > best) {
        best = key[i];
        winner = static_cast<int>(i);
      }
      return false;
    });
    if (winner >= 0) rr_.grant(static_cast<std::size_t>(winner));
    return winner;
  }

 private:
  RoundRobinArbiter rr_;
};

}  // namespace arinoc
