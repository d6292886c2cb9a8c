// Per-network packet observer: the NoC's one hook per packet event. Router
// and Network hold a pointer to it (NIs and the retransmission tracker read
// their Network's), null unless a sink is attached, so an unobserved event
// costs one branch. Each method fans out to the attached PacketTracer and
// LatencyAttributor, doing the type lookups and head-flit filtering they
// need; docs/observability.md maps each event to both.
#pragma once

#include <cstdint>

#include "noc/fault.hpp"
#include "noc/flit.hpp"
#include "noc/packet.hpp"
#include "obs/attr.hpp"
#include "obs/trace.hpp"

namespace arinoc::obs {

class PacketObserver {
 public:
  PacketObserver() = default;
  /// `arena` is the network's (not owned); either sink may be null.
  PacketObserver(std::uint8_t net, const PacketArena* arena,
                 PacketTracer* tracer, LatencyAttributor* attr)
      : net_(net), arena_(arena), tracer_(tracer), attr_(attr) {}

  void ni_enqueue(PacketId id, NodeId node, Cycle now) {
    if (tracer_) trace(Kind::kNiEnqueue, id, node, -1, now);
    if (attr_) attr_->on_ni_enqueue(net_, id, arena_->at(id).type, node, now);
  }
  void retransmit(PacketId id, std::uint32_t retry, Cycle first_accept,
                  Cycle now) {
    if (tracer_) {
      trace(Kind::kRetransmit, id, arena_->at(id).src,
            static_cast<int>(retry), now);
    }
    if (attr_) attr_->on_retransmit(net_, id, first_accept, now);
  }
  void inject(PacketId id, NodeId node, int vc, Cycle now) {
    if (tracer_) trace(Kind::kInject, id, node, vc, now);
    if (attr_) attr_->on_inject(net_, id, node, now);
  }
  void vc_alloc(PacketId id, NodeId node, int port, int vc, Cycle now) {
    if (tracer_) trace(Kind::kVcAlloc, id, node, port, now);
    if (attr_) attr_->on_vc_alloc(net_, id, node, port, vc, now);
  }
  // The flit events report head flits only (link_depart also reports a
  // corruption on this link, for any flit).
  void head_arrive(const Flit& f, NodeId node, Cycle now) {
    if (attr_ && f.head) attr_->on_head_arrive(net_, f.pkt, node, now);
  }
  void link_depart(const Flit& f, NodeId node, int port, bool corrupted,
                   Cycle now) {
    if (tracer_ && corrupted) trace(Kind::kCorrupt, f.pkt, node, port, now);
    if (!f.head) return;
    if (tracer_) trace(Kind::kLinkHop, f.pkt, node, port, now);
    if (attr_) attr_->on_link_depart(net_, f.pkt, node, port, now);
  }
  void eject_start(const Flit& f, NodeId node, Cycle now) {
    if (attr_ && f.head) attr_->on_eject_start(net_, f.pkt, node, now);
  }
  void reassembled(PacketId id, NodeId node, bool corrupted, Cycle now) {
    if (tracer_) trace(Kind::kEject, id, node, corrupted ? 1 : 0, now);
  }
  // deliver and drop fire before the packet is retired from the arena.
  void deliver(PacketId id, Cycle now) {
    if (tracer_) trace(Kind::kDeliver, id, arena_->at(id).dest, -1, now);
    if (attr_) attr_->on_deliver(net_, id, now);
  }
  void drop(PacketId id, RxOutcome why, Cycle now) {
    if (tracer_) {
      trace(Kind::kDrop, id, arena_->at(id).dest, static_cast<int>(why), now);
    }
    if (attr_) attr_->on_drop(net_, id, now);
  }

 private:
  using Kind = TraceEventKind;

  void trace(Kind k, PacketId id, NodeId node, int aux, Cycle now) {
    tracer_->record(k, net_, now, id, arena_->at(id).type, node, aux);
  }

  std::uint8_t net_ = 0;  ///< 0 = request network, 1 = reply network.
  const PacketArena* arena_ = nullptr;
  PacketTracer* tracer_ = nullptr;
  LatencyAttributor* attr_ = nullptr;
};

}  // namespace arinoc::obs
