#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace flexnets::sim {

// heap_push, heap_pop and place run on every push and pop; without the
// forced inlining GCC calls them out of line, which costs more than the
// work they do on the small queues of a single link.
[[gnu::always_inline]] inline void EventQueue::heap_push(
    std::vector<Entry>& heap, const Entry& e) {
  // Sift up: move parents down into the hole until e fits.
  std::size_t i = heap.size();
  heap.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_before(e, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = e;
}

[[gnu::always_inline]] inline EventQueue::Entry EventQueue::heap_pop(
    std::vector<Entry>& heap) {
  const Entry top = heap.front();
  const Entry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    // Sift down: move the earlier child up into the hole until `last`
    // fits.
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && entry_before(heap[child + 1], heap[child])) {
        ++child;
      }
      if (!entry_before(heap[child], last)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = last;
  }
  return top;
}

[[gnu::always_inline]] inline void EventQueue::place(const Entry& e) {
  // A small queue with nothing beyond bucket 0 stays a plain binary
  // heap: last_ may jump ahead, since no near or far entry depends on it.
  if (e.time > last_ && near_mask_ == 0 && far_.empty() &&
      bucket0_.size() < kSmallQueue) {
    last_ = e.time;
  }
  if (e.time <= last_) {
    heap_push(bucket0_, e);
    return;
  }
  const int bit =
      std::bit_width(static_cast<std::uint64_t>(e.time ^ last_)) - 1;
  if (bit < kNearBits) {
    near_[static_cast<std::size_t>(bit)].push_back(e);
    near_mask_ |= std::uint32_t{1} << bit;
  } else {
    heap_push(far_, e);
  }
}

void EventQueue::settle() {
  if (near_mask_ != 0) {
    // The lowest non-empty near bucket holds the next time: its entries
    // agree with last_ above bit i and have bit i set, which every entry
    // in a higher bucket or the far heap exceeds.
    const int i = std::countr_zero(near_mask_);
    std::vector<Entry>& from = near_[static_cast<std::size_t>(i)];
    TimeNs m = from.front().time;
    for (const Entry& e : from) m = std::min(m, e.time);
    // last_ changes only below bit i, so entries elsewhere keep their
    // place, and each of these lands in bucket 0 or below bucket i.
    last_ = m;
    near_mask_ &= near_mask_ - 1;
    for (const Entry& e : from) place(e);
    from.clear();
    return;
  }
  // Near buckets dry: pull the far heap's next 2^kNearBits ns block. What
  // stays in the far heap lies in a later block, so it still differs from
  // the new last_ at bit kNearBits or above.
  last_ = far_.front().time;
  const TimeNs block = last_ >> kNearBits;
  while (!far_.empty() && (far_.front().time >> kNearBits) == block) {
    place(heap_pop(far_));
  }
}

void EventQueue::emplace(TimeNs time, std::int32_t depth, EventKey key,
                         EventType type, std::int32_t a, std::uint64_t b,
                         const Packet* pkt) {
  FLEXNETS_DCHECK((pkt != nullptr) == (type == EventType::kPacketArrive),
                  "a packet travels with kPacketArrive events only: type=",
                  static_cast<int>(type));
  FLEXNETS_CHECK(time >= 0, "event time must be non-negative: ", time);
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
  place({time, key.owner, key.oseq, next_seq_++, b, depth, a, slot, type});
  ++size_;
}

void EventQueue::push(const Event& e) {
  emplace(e.time, e.depth, e.key, e.type, e.a, e.b,
          e.type == EventType::kPacketArrive ? &e.pkt : nullptr);
}

const EventQueue::Entry& EventQueue::head() {
  FLEXNETS_CHECK(size_ != 0, "top on empty event queue");
  if (bucket0_.empty()) settle();
  return bucket0_.front();
}

TimeNs EventQueue::top_time() { return head().time; }

bool EventQueue::top_before(EventQueue& other) {
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

Event EventQueue::top() {
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
  FLEXNETS_CHECK(size_ != 0, "pop on empty event queue");
  if (bucket0_.empty()) settle();
  const Entry top = heap_pop(bucket0_);
  --size_;
  // Audit: the pop stream must be totally ordered by the stable key
  // (time, depth, owner, oseq, seq). A violation means a misfiled entry
  // or a comparator bug -- either would silently reorder the simulation.
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
