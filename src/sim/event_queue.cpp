#include "sim/event_queue.hpp"

#include <bit>

#include "common/check.hpp"

namespace flexnets::sim {

// heap_push, heap_pop, wheel_link and place run on every push and pop;
// without the forced inlining GCC calls them out of line, which costs
// more than the work they do on the small queues of a single link.
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

[[gnu::always_inline]] inline void EventQueue::wheel_link(const Entry& e) {
  std::uint32_t n = free_node_;
  if (n == kNoNode) {
    n = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back({e, kNoNode});
  } else {
    free_node_ = pool_[n].next;
    pool_[n].entry = e;
  }
  const auto s = static_cast<std::size_t>(e.time) & (kWheelSlots - 1);
  const std::size_t w = s / 64;
  const std::uint64_t bit = std::uint64_t{1} << (s % 64);
  pool_[n].next = (occupied_[w] & bit) != 0 ? slot_head_[s] : kNoNode;
  slot_head_[s] = n;
  occupied_[w] |= bit;
  summary_ |= std::uint64_t{1} << w;
}

[[gnu::always_inline]] inline void EventQueue::place(const Entry& e) {
  // A small queue with nothing beyond bucket 0 stays a plain binary
  // heap: cur_ may jump ahead, since no wheel or far entry depends on it.
  if (e.time > cur_ && summary_ == 0 && far_.empty() &&
      bucket0_.size() < kSmallQueue) {
    cur_ = e.time;
  }
  if (e.time <= cur_) {
    heap_push(bucket0_, e);
  } else if (static_cast<std::uint64_t>(e.time - cur_) < kWheelSlots) {
    wheel_link(e);
  } else {
    heap_push(far_, e);
  }
}

std::size_t EventQueue::next_slot() const {
  // Wheel entries lie in (cur_, cur_ + kWheelSlots), so the slots after
  // cur_'s up to the last, then from slot 0 up to cur_'s, are in time
  // order.
  const std::size_t start =
      static_cast<std::size_t>(cur_ + 1) & (kWheelSlots - 1);
  const std::size_t w = start / 64;
  const std::uint64_t here =
      occupied_[w] & (~std::uint64_t{0} << (start % 64));
  if (here != 0) {
    return w * 64 + static_cast<std::size_t>(std::countr_zero(here));
  }
  // Words above w, else wrap to the lowest occupied word, which is at or
  // below w (and if w itself, below start, since the bits from start on
  // are empty).
  const std::uint64_t above = summary_ & ((~std::uint64_t{0} << w) << 1);
  const auto word = static_cast<std::size_t>(
      std::countr_zero(above != 0 ? above : summary_));
  return word * 64 +
         static_cast<std::size_t>(std::countr_zero(occupied_[word]));
}

void EventQueue::settle() {
  // The queue's minimum time is the earlier of the next slot's (a slot
  // holds one timestamp) and the far heap's front.
  std::size_t s = kWheelSlots;
  if (summary_ != 0) {
    s = next_slot();
    cur_ = pool_[slot_head_[s]].entry.time;
    if (!far_.empty() && far_.front().time < cur_) {
      cur_ = far_.front().time;
      s = kWheelSlots;  // the slot is later; it stays
    }
  } else {
    cur_ = far_.front().time;
  }
  if (s != kWheelSlots) {
    std::uint32_t n = slot_head_[s];
    do {
      Node& node = pool_[n];
      heap_push(bucket0_, node.entry);
      const std::uint32_t next = node.next;
      node.next = free_node_;
      free_node_ = n;
      n = next;
    } while (n != kNoNode);
    const std::size_t w = s / 64;
    occupied_[w] &= ~(std::uint64_t{1} << (s % 64));
    if (occupied_[w] == 0) summary_ &= ~(std::uint64_t{1} << w);
  }
  // Far entries at cur_ join bucket 0 too, where the full key orders
  // them against the slot's.
  while (!far_.empty() && far_.front().time == cur_) {
    heap_push(bucket0_, heap_pop(far_));
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
