// Bounded flit FIFO used for VC buffers, NI injection queues and ejection
// staging. Tracks occupancy statistics for the Fig. 6 experiment.
//
// A ring over storage sized by the capacity: push/pop never allocate.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "noc/flit.hpp"

namespace arinoc {

class FlitBuffer {
 public:
  explicit FlitBuffer(std::size_t capacity_flits = 0)
      : ring_(capacity_flits) {}

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  std::size_t free_space() const { return ring_.size() - size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= ring_.size(); }

  /// True if a whole packet of `flits` flits fits right now.
  bool fits(std::size_t flits) const { return free_space() >= flits; }

  /// Push one flit. Caller must have checked capacity.
  void push(const Flit& f) {
    assert(size_ < ring_.size() && "FlitBuffer overflow");
    ring_[wrap(head_ + size_)] = f;
    ++size_;
  }

  const Flit& front() const {
    assert(size_ > 0);
    return ring_[head_];
  }
  Flit pop() {
    assert(size_ > 0 && "FlitBuffer underflow");
    const Flit f = ring_[head_];
    head_ = wrap(head_ + 1);
    --size_;
    return f;
  }

  /// Flit at queue position i (0 = front); used by wide-link enqueue checks.
  const Flit& at(std::size_t i) const {
    assert(i < size_);
    return ring_[wrap(head_ + i)];
  }

  /// Sizes the storage of an empty buffer (the only call that allocates).
  void set_capacity(std::size_t capacity_flits) {
    assert(empty() && "FlitBuffer resized while holding flits");
    ring_.assign(capacity_flits, Flit{});
    head_ = 0;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  // Occupancy sampling (flits): updated on every push/pop.
  std::uint64_t sample_count() const { return samples_; }
  double mean_occupancy() const {
    return samples_ ? occupancy_sum_ / static_cast<double>(samples_) : 0.0;
  }
  std::size_t peak_occupancy() const { return peak_; }
  void reset_stats() {
    samples_ = 0;
    occupancy_sum_ = 0.0;
    peak_ = 0;
  }
  /// Record one occupancy sample (called once per cycle by the owner).
  void sample() {
    ++samples_;
    occupancy_sum_ += static_cast<double>(size_);
    if (size_ > peak_) peak_ = size_;
  }

 private:
  /// Maps a logical position in [0, 2 * capacity) onto the ring.
  std::size_t wrap(std::size_t i) const {
    return i >= ring_.size() ? i - ring_.size() : i;
  }

  std::vector<Flit> ring_;  ///< Storage; size() is the capacity.
  std::size_t head_ = 0;    ///< Ring index of the front flit.
  std::size_t size_ = 0;
  std::uint64_t samples_ = 0;
  double occupancy_sum_ = 0.0;
  std::size_t peak_ = 0;
};

}  // namespace arinoc
