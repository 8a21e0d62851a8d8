#include "sim/event_queue.hpp"

#include "common/check.hpp"

namespace flexnets::sim {

void EventQueue::emplace(TimeNs time, std::int32_t depth, EventKey key,
                         EventType type, std::int32_t a, std::uint64_t b,
                         const Packet* pkt) {
  FLEXNETS_DCHECK((pkt != nullptr) == (type == EventType::kPacketArrive),
                  "a packet travels with kPacketArrive events only: type=",
                  static_cast<int>(type));
  std::uint32_t slot = kNoSlot;
  if (pkt != nullptr) {
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(*pkt);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = *pkt;
    }
  }
  const Entry e{time, key.owner, key.oseq, next_seq_++, b, depth, a, slot,
                type};
  // Sift up: move parents down into the hole until e fits.
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::push(const Event& e) {
  emplace(e.time, e.depth, e.key, e.type, e.a, e.b,
          e.type == EventType::kPacketArrive ? &e.pkt : nullptr);
}

const EventQueue::Entry& EventQueue::head() const {
  FLEXNETS_CHECK(!heap_.empty(), "top on empty event queue");
  return heap_.front();
}

TimeNs EventQueue::top_time() const { return head().time; }

bool EventQueue::top_before(const EventQueue& other) const {
  return entry_before(head(), other.head());
}

void EventQueue::materialize(const Entry& h, Event& out) const {
  out.time = h.time;
  out.seq = h.seq;
  out.depth = h.depth;
  out.key = {h.owner, h.oseq};
  out.type = h.type;
  out.a = h.a;
  out.b = h.b;
  if (h.slot != kNoSlot) out.pkt = slab_[h.slot];
}

Event EventQueue::top() const {
  Event e;
  materialize(head(), e);
  return e;
}

Event EventQueue::pop() {
  Event e;
  pop_into(e);
  return e;
}

void EventQueue::pop_into(Event& out) {
  FLEXNETS_CHECK(!heap_.empty(), "pop on empty event queue");
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift down: move the earlier child up into the hole until `last`
    // fits.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && entry_before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!entry_before(heap_[child], last)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = last;
  }
  // Audit: the pop stream must be totally ordered by the stable key
  // (time, depth, owner, oseq, seq). A violation means heap corruption or
  // a comparator bug -- either would silently reorder the simulation.
  if (audit_enabled()) {
    FLEXNETS_CHECK(!popped_any_ || entry_before(last_pop_, top),
                   "event queue popped out of order: time=", top.time,
                   " depth=", top.depth, " owner=", top.owner,
                   " oseq=", top.oseq, " seq=", top.seq,
                   " after time=", last_pop_.time, " depth=", last_pop_.depth,
                   " owner=", last_pop_.owner, " oseq=", last_pop_.oseq,
                   " seq=", last_pop_.seq);
    last_pop_ = top;
    popped_any_ = true;
  }
  materialize(top, out);
  if (top.slot != kNoSlot) free_slots_.push_back(top.slot);
}

}  // namespace flexnets::sim
