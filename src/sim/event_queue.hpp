// Discrete-event queue: events ordered by a *stable key*
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

#include <array>
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

// A timing wheel (Varghese and Lauck, SOSP 1987) in front of two binary
// heaps, over compact 56-byte entries. `cur_` is the time of the last
// settle, and every entry sits in one of three places:
//
//  - bucket 0: every entry with time <= cur_, as a binary heap under the
//    full key (time, depth, owner, oseq, seq). Ties are resolved only
//    here; on packet runs it holds under two entries on average.
//  - the wheel: entries with cur_ < time < cur_ + kWheelSlots, each linked
//    once into slot time % kWheelSlots, one nanosecond wide. A slot is an
//    intrusive list of pool nodes; an occupancy bitmap and a one-word
//    summary of it find the next non-empty slot. Link dequeues and
//    arrivals (serialization plus propagation) land here.
//  - the far heap: entries pushed at cur_ + kWheelSlots or later, in one
//    binary heap under the same key: pending retransmission timers,
//    pre-scheduled flow starts and faults, and the link events of links
//    too slow for the wheel's window. Its entries never move into the
//    wheel; each leaves the heap when its own time is settled.
//
// When bucket 0 is empty, settle() finds the next occupied slot, moves
// cur_ to the earlier of that slot's time and the far heap's front, and
// moves that one timestamp's entries, from the slot and from the far
// heap, into bucket 0, where the full key orders them. While the wheel
// holds anything, cur_ thus only ever advances to the queue's minimum, so
// every wheel entry stays inside (cur_, cur_ + kWheelSlots) and a slot
// holds exactly one timestamp. The peeks (top_time, top_before, top)
// settle too, which is why they are not const. Any push is valid at any
// time -- a time <= cur_ just joins bucket 0 -- so a push below a peeked
// head (the parallel engine's barrier exchange) needs no precondition.
//
// Only a kPacketArrive event's Packet lives outside the entries, in a
// per-queue slab whose slots are recycled through a LIFO free list, so a
// move copies 56 bytes instead of a whole Event, and the arrival a handler
// schedules right after a pop reuses the slot just freed while it is still
// in cache. Link dequeues, timers, flow starts, faults, repairs and
// detections never touch the slab.
class EventQueue {
 public:
  // Pre-sizes the far heap for n live events: on packet runs it holds
  // most of the live population (pending timers, pre-scheduled flow
  // starts and faults). Bucket 0, the wheel's node pool and the packet
  // slab grow on demand to their peaks.
  void reserve(std::size_t n) { far_.reserve(n); }

  // Builds an event in place. `pkt` is the arrival's packet: non-null
  // exactly for kPacketArrive, and copied into a slab slot. `time` must
  // be non-negative.
  void emplace(TimeNs time, std::int32_t depth, EventKey key, EventType type,
               std::int32_t a, std::uint64_t b, const Packet* pkt);
  void push(const Event& e);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  // The next event's timestamp, without materializing the event.
  [[nodiscard]] TimeNs top_time();
  // True when this queue's next event dispatches strictly before
  // `other`'s under before() -- how the parallel engine picks among
  // several queues' heads.
  [[nodiscard]] bool top_before(EventQueue& other);
  // A copy of the next event.
  [[nodiscard]] Event top();

  Event pop();
  // Pops into `out`, reusing its storage: `out.pkt` is written only for
  // kPacketArrive and is stale for every other type.
  void pop_into(Event& out);

  // True when x dispatches strictly before y under the stable key
  // (time, depth, owner, oseq) with the insertion seq as final fallback:
  // the queue's dispatch order, stated on Events so tests can check the
  // queue against it.
  [[nodiscard]] static bool before(const Event& x, const Event& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.depth != y.depth) return x.depth < y.depth;
    if (x.key.owner != y.key.owner) return x.key.owner < y.key.owner;
    if (x.key.oseq != y.key.oseq) return x.key.oseq < y.key.oseq;
    return x.seq < y.seq;
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  // The wheel spans 4,096 ns past cur_, one slot per nanosecond. That
  // covers a full-sized packet's serialization plus propagation (1.3 us
  // at 10 Gbps, 2.5 us on a half-rate degraded link), so dequeues and
  // arrivals are filed once, and stays far below the minimum RTO
  // (200 us), so pending timers wait in the far heap. Events of slower
  // links fall back to the far heap.
  static constexpr std::size_t kWheelSlots = 4096;  // a power of two
  static constexpr std::size_t kWheelWords = kWheelSlots / 64;
  // While the wheel and the far heap are empty and bucket 0 holds fewer
  // than this many entries, every push joins bucket 0 (see place()), so
  // the few events of a single link or a fault queue skip the settles.
  static constexpr std::size_t kSmallQueue = 8;

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
  static_assert(sizeof(Entry) == 56, "queue entries must stay compact");

  // A wheel entry: `next` links the entries of one slot, or the free
  // nodes, and is kNoNode at a list's end.
  static constexpr std::uint32_t kNoNode = UINT32_MAX;
  struct Node {
    Entry entry;
    std::uint32_t next;
  };

  // before() on entries: the same key, the same order.
  [[nodiscard]] static bool entry_before(const Entry& x, const Entry& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.depth != y.depth) return x.depth < y.depth;
    if (x.owner != y.owner) return x.owner < y.owner;
    if (x.oseq != y.oseq) return x.oseq < y.oseq;
    return x.seq < y.seq;
  }
  // Binary min-heap operations under entry_before.
  static void heap_push(std::vector<Entry>& heap, const Entry& e);
  static Entry heap_pop(std::vector<Entry>& heap);

  // Files e into bucket 0, the wheel or the far heap, relative to cur_.
  void place(const Entry& e);
  // Links e into its wheel slot. Requires cur_ < e.time < cur_ +
  // kWheelSlots.
  void wheel_link(const Entry& e);
  // The first occupied slot after cur_'s, in time order. Requires a
  // non-empty wheel.
  [[nodiscard]] std::size_t next_slot() const;
  // Refills an empty bucket 0 with the queue's next timestamp, from the
  // wheel and the far heap. Requires a non-empty queue.
  void settle();
  // The next entry (bucket 0's root), settling first if needed.
  [[nodiscard]] const Entry& head();
  // Writes h into out; the packet only if h holds a slab slot.
  void materialize(const Entry& h, Event& out) const;

  std::vector<Entry> bucket0_;  // binary min-heap: time <= cur_
  // The wheel: slot s's list starts at slot_head_[s], which is valid only
  // while bit s of occupied_ is set; bit w of summary_ is set iff
  // occupied_[w] is non-zero.
  std::array<std::uint32_t, kWheelSlots> slot_head_{};
  std::array<std::uint64_t, kWheelWords> occupied_{};
  std::uint64_t summary_ = 0;
  std::vector<Node> pool_;
  std::uint32_t free_node_ = kNoNode;  // LIFO through Node::next
  std::vector<Entry> far_;  // binary min-heap: pushed beyond the wheel
  TimeNs cur_ = 0;
  std::size_t size_ = 0;
  std::vector<Packet> slab_;
  std::vector<std::uint32_t> free_slots_;  // LIFO
  std::uint64_t next_seq_ = 0;
  // Audit state: the full ordering key of the last popped event.
  Entry last_pop_{};
  bool popped_any_ = false;
};

}  // namespace flexnets::sim
