#include "sim/event_queue.hpp"

#include <cassert>
#include <type_traits>
#include <utility>

namespace xgbe::sim {

EventId EventQueue::schedule(SimTime at, Callback&& cb) {
  // Sifts copy keys, never callbacks: a key must stay a plain 24-byte record.
  static_assert(std::is_trivially_copyable_v<Entry>);
  static_assert(sizeof(Entry) <= 24);
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t h = acquire_handle();
  callbacks_[h] = std::move(cb);
  push_heap(Entry{at, seq, h, kNoLane});
  return EventId{h, handles_[h].gen};
}

LaneId EventQueue::open_lane() {
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

void EventQueue::schedule_in_lane(LaneId id, SimTime at, Callback&& cb) {
  const std::uint64_t seq = next_seq_++;
  Lane& lane = lanes_[id];
  if (lane.count == 0 || at >= lane.tail) {
    const bool head = lane.count == 0;
    lane.tail = at;
    enqueue(lane, at, seq, std::move(cb));
    if (head) push_heap(Entry{at, seq, 0, id});
    return;
  }
  // Earlier than the lane's tail (a fault delay, a duplicate copy): the
  // FIFO would misorder it, so it waits in the heap like any event.
  const std::uint32_t h = acquire_handle();
  callbacks_[h] = std::move(cb);
  push_heap(Entry{at, seq, h, kNoLane});
}

void EventQueue::cancel(EventId id) {
  if (id.slot >= handles_.size()) return;
  const HandleRec rec = handles_[id.slot];
  if (rec.gen != id.gen || rec.pos == kFreePos) return;
  // Take the callback out before touching the heap; it dies at the end of
  // this call, once the queue is consistent again, so a capture whose
  // destructor schedules or cancels events sees a well-formed queue.
  const Callback dead = std::move(callbacks_[id.slot]);
  if (hole_) refill_root();  // moves entries: read the position afterwards
  const std::uint32_t pos = handles_[id.slot].pos;
  release_handle(id.slot);
  remove_at(pos);
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  if (hole_) refill_root();
  const Entry root = heap_.front();
  Fired fired{root.time, nullptr};
  if (root.lane == kNoLane) {
    fired.cb = std::move(callbacks_[root.handle]);
    release_handle(root.handle);
    vacate_root();
    return fired;
  }
  Lane& lane = lanes_[root.lane];
  LaneSlot* const slots = lane.slots();
  fired.cb = std::move(slots[lane.first].cb);
  lane.first = (lane.first + 1) & lane.mask();
  if (--lane.count != 0) {
    // The lane's next event replaces the root: one sift, no push.
    const LaneSlot& next = slots[lane.first];
    heap_.front() = Entry{next.time, next.seq, 0, root.lane};
    sift_down(0);
  } else {
    vacate_root();
  }
  return fired;
}

std::uint32_t EventQueue::acquire_handle() {
  // The slot's position is set when its key enters the heap.
  if (!free_handles_.empty()) {
    const std::uint32_t h = free_handles_.back();
    free_handles_.pop_back();
    return h;
  }
  // Generations start at 1 so a default-constructed EventId (gen 0) can
  // never match a live handle.
  handles_.push_back(HandleRec{kFreePos, 1});
  callbacks_.emplace_back();
  return static_cast<std::uint32_t>(handles_.size() - 1);
}

void EventQueue::release_handle(std::uint32_t h) {
  handles_[h].pos = kFreePos;
  ++handles_[h].gen;  // invalidates every outstanding EventId for this slot
  free_handles_.push_back(h);
}

void EventQueue::enqueue(Lane& lane, SimTime at, std::uint64_t seq,
                         Callback&& cb) {
  const std::uint32_t mask = lane.mask();
  if (lane.count == mask + 1) {
    // Full: double the ring, unrolled to start at 0.
    std::vector<LaneSlot> grown(2 * (mask + 1));
    LaneSlot* const old = lane.slots();
    for (std::uint32_t i = 0; i < lane.count; ++i) {
      grown[i] = std::move(old[(lane.first + i) & mask]);
    }
    lane.ring.swap(grown);
    lane.first = 0;
  }
  LaneSlot& slot = lane.slots()[(lane.first + lane.count) & lane.mask()];
  slot.time = at;
  slot.seq = seq;
  slot.cb = std::move(cb);
  ++lane.count;
}

void EventQueue::push_heap(const Entry& e) {
  if (hole_) {
    hole_ = false;
    heap_.front() = e;
    sift_down(0);
    return;
  }
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void EventQueue::vacate_root() {
  if (heap_.size() == 1) {
    heap_.pop_back();
  } else {
    hole_ = true;
  }
}

void EventQueue::refill_root() {
  hole_ = false;
  heap_.front() = heap_.back();
  heap_.pop_back();
  sift_down(0);
}

void EventQueue::remove_at(std::size_t i) {
  const std::size_t last = heap_.size() - 1;
  if (i == last) {
    heap_.pop_back();
    return;
  }
  heap_[i] = heap_[last];
  heap_.pop_back();
  if (i > 0 && before(heap_[i], heap_[(i - 1) / kArity])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void EventQueue::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  if (e.lane == kNoLane) handles_[e.handle].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t p = (i - 1) / kArity;
    if (!before(e, heap_[p])) break;
    place(i, heap_[p]);
    i = p;
  }
  place(i, e);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

}  // namespace xgbe::sim
