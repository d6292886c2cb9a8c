// Route computation: XY dimension-order and minimal adaptive routing.
//
// Adaptive routing is made deadlock-free with an escape virtual channel
// (Duato): VC 0 of every port is the escape lane and only ever follows the
// XY route; VCs 1..V-1 may take any minimal direction. Whole-packet
// forwarding (WPF, Ma et al. HPCA'12) is applied at VC allocation so the
// adaptive lanes can be reallocated non-atomically without deadlock.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/config.hpp"
#include "noc/topology.hpp"
#include "topo/fabric.hpp"

namespace arinoc {

/// Ordered list of output ports stored inline (no heap): a fabric has at
/// most topo::kMaxPorts direction ports, and a route lists each at most once
/// (or only the local port).
class PortList {
 public:
  static constexpr std::size_t kCapacity = topo::kMaxPorts;

  std::size_t size() const { return n_; }
  int operator[](std::size_t i) const { return ports_[i]; }
  const std::int8_t* begin() const { return ports_; }
  const std::int8_t* end() const { return ports_ + n_; }
  void push_back(int port) {
    assert(n_ < kCapacity && port >= 0 && port <= topo::kMaxPorts);
    ports_[n_++] = static_cast<std::int8_t>(port);
  }

 private:
  std::int8_t ports_[kCapacity] = {};
  std::uint8_t n_ = 0;
};

struct RouteCandidates {
  /// Minimal productive output ports, or the local (ejection) port when the
  /// packet has arrived. On meshes this is the 1-2 productive directions
  /// (x before y); on table-routed fabrics it is every minimal
  /// up*/down*-legal port, in ascending port order.
  PortList minimal;
  /// The escape port (always a member of `minimal`): the XY dimension-order
  /// direction on meshes, the lowest-numbered minimal legal port on
  /// table-routed fabrics.
  int xy = kLocal;
};

/// Computes the candidate output ports for a packet at `here` going to
/// `dest`. `algo` selects whether the full minimal set or only the XY
/// direction is productive for adaptive VCs.
RouteCandidates compute_route(const Mesh& mesh, NodeId here, NodeId dest,
                              RoutingAlgo algo);

/// Fabric-generic route computation. Dispatches to the mesh overload above
/// when the fabric has a native mesh view (bit-identical to the pre-fabric
/// path); otherwise consults the compiled up*/down* routing table.
/// `in_port` is the input port the packet occupies at `here` (injection
/// ports or -1 mean "freshly injected") — it determines the up*/down*
/// routing phase and is ignored on meshes.
RouteCandidates compute_route(const topo::Fabric& fabric, NodeId here,
                              int in_port, NodeId dest, RoutingAlgo algo);

}  // namespace arinoc
