// Discrete-event queue: a binary heap of events ordered by a *stable key*
// (time, depth, owner, oseq) with the insertion sequence as a final
// fallback. The stable key — unlike a bare insertion counter — is a
// property of the event itself, independent of the order schedule() calls
// happen to execute in, which is what lets the parallel engine
// (sim/pdes/) reproduce the serial dispatch order bit for bit:
//
//  - depth: same-timestamp causal rank. Events scheduled for a strictly
//    later time start at depth 0; an event scheduled *at the current
//    time* from inside a handler gets (dispatching event's depth) + 1,
//    so zero-delay cascades always sort after their cause.
//  - owner: which simulation object emitted the event (a link, a flow's
//    timer, or one of the root streams seeded before the run).
//  - oseq:  the owner's private monotone counter, making keys unique.
//
// Events pushed without a key (tests, benchmarks) all carry the zero key
// and fall through to the insertion sequence, i.e. the historical
// (time, FIFO) order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/packet.hpp"

namespace flexnets::sim {

enum class EventType : std::uint8_t {
  kLinkDequeue,   // a = link id: transmission of head packet finished
  kPacketArrive,  // a = node id: packet reached the node after propagation
  kTransportTimer,  // a = flow id, b = timer generation
  kFlowStart,     // a = index into the experiment's flow list
  kFault,         // a = index into the network's FaultPlan events
  kRepair,        // b = fault version; control plane reconverged
  kDetect,        // a = EdgeId: the control plane learns a link is gray
};

// The (owner, oseq) half of the stable key; see the header comment.
struct EventKey {
  std::uint64_t owner = 0;
  std::uint64_t oseq = 0;
};

// Owner-id construction. The category lives above bit 40 so link ids,
// flow ids, and the root streams can never collide.
namespace owner {
// Root streams: events seeded before the run (or by a fault). All three
// use the stream id itself as the owner and disambiguate via oseq (spec
// index, fault index, fault version respectively).
inline constexpr std::uint64_t kFlowStartRoot = 0;
inline constexpr std::uint64_t kFaultRoot = 1;
inline constexpr std::uint64_t kRepairRoot = 2;

[[nodiscard]] constexpr std::uint64_t link(std::int32_t link_id) {
  return (std::uint64_t{1} << 40) | static_cast<std::uint32_t>(link_id);
}
[[nodiscard]] constexpr std::uint64_t flow_timer(std::int32_t flow_id) {
  return (std::uint64_t{2} << 40) | static_cast<std::uint32_t>(flow_id);
}
[[nodiscard]] constexpr std::uint64_t detect(std::int32_t edge_id) {
  return (std::uint64_t{3} << 40) | static_cast<std::uint32_t>(edge_id);
}
}  // namespace owner

struct Event {
  TimeNs time = 0;
  std::uint64_t seq = 0;  // insertion sequence (assigned by push)
  std::int32_t depth = 0;
  EventKey key;
  EventType type = EventType::kFlowStart;
  std::int32_t a = 0;
  std::uint64_t b = 0;
  Packet pkt;  // valid for kPacketArrive only
};

// The heap holds compact 56-byte entries: the full ordering key plus
// type/a/b. Only a kPacketArrive event's Packet lives outside the heap,
// in a per-queue slab whose slots are recycled through a LIFO free list,
// so a sift moves 56 bytes instead of a whole Event, and the arrival a
// handler schedules right after a pop reuses the slot just freed while it
// is still in cache. Link dequeues, timers, flow starts, faults, repairs
// and detections never touch the slab.
class EventQueue {
 public:
  // Pre-sizes the heap for n live events. The packet slab grows on
  // demand to the peak number of in-flight arrivals.
  void reserve(std::size_t n) { heap_.reserve(n); }

  // Builds an event in place. `pkt` is the arrival's packet: non-null
  // exactly for kPacketArrive, and copied into a slab slot.
  void emplace(TimeNs time, std::int32_t depth, EventKey key, EventType type,
               std::int32_t a, std::uint64_t b, const Packet* pkt);
  void push(const Event& e);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  // The next event's timestamp, without materializing the event.
  [[nodiscard]] TimeNs top_time() const;
  // True when this queue's next event dispatches strictly before
  // `other`'s under before() -- how the parallel engine picks among
  // several queues' heads.
  [[nodiscard]] bool top_before(const EventQueue& other) const;
  // A copy of the next event.
  [[nodiscard]] Event top() const;

  Event pop();
  // Pops into `out`, reusing its storage: `out.pkt` is written only for
  // kPacketArrive and is stale for every other type.
  void pop_into(Event& out);

  // True when x dispatches strictly before y under the stable key
  // (time, depth, owner, oseq) with the insertion seq as final fallback:
  // the queue's dispatch order, stated on Events so tests can check the
  // heap against it.
  [[nodiscard]] static bool before(const Event& x, const Event& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.depth != y.depth) return x.depth < y.depth;
    if (x.key.owner != y.key.owner) return x.key.owner < y.key.owner;
    if (x.key.oseq != y.key.oseq) return x.key.oseq < y.key.oseq;
    return x.seq < y.seq;
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct Entry {
    TimeNs time;
    std::uint64_t owner;
    std::uint64_t oseq;
    std::uint64_t seq;
    std::uint64_t b;
    std::int32_t depth;
    std::int32_t a;
    std::uint32_t slot;  // packet slab index, kNoSlot if none
    EventType type;
  };
  static_assert(sizeof(Entry) == 56, "heap entries must stay compact");

  // before() on entries: the same key, the same order.
  [[nodiscard]] static bool entry_before(const Entry& x, const Entry& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.depth != y.depth) return x.depth < y.depth;
    if (x.owner != y.owner) return x.owner < y.owner;
    if (x.oseq != y.oseq) return x.oseq < y.oseq;
    return x.seq < y.seq;
  }
  [[nodiscard]] const Entry& head() const;
  // Writes h into out; the packet only if h holds a slab slot.
  void materialize(const Entry& h, Event& out) const;

  std::vector<Entry> heap_;  // binary min-heap under entry_before
  std::vector<Packet> slab_;
  std::vector<std::uint32_t> free_slots_;  // LIFO
  std::uint64_t next_seq_ = 0;
  // Audit state: the full ordering key of the last popped event.
  Entry last_pop_{};
  bool popped_any_ = false;
};

}  // namespace flexnets::sim
