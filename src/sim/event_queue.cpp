#include "sim/event_queue.hpp"

#include <cassert>
#include <type_traits>
#include <utility>

namespace xgbe::sim {

EventId EventQueue::schedule(SimTime at, Callback cb) {
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

void EventQueue::schedule_in_lane(LaneId id, SimTime at, Callback cb) {
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t h = acquire_handle();
  callbacks_[h] = std::move(cb);
  Lane& lane = lanes_[id];
  if (!lane.armed) {
    lane.armed = true;
    lane.tail = at;
    push_heap(Entry{at, seq, h, id});
  } else if (at >= lane.tail) {
    lane.tail = at;
    enqueue(lane, Entry{at, seq, h, id});
  } else {
    // Earlier than the lane's tail (a fault delay, a duplicate copy): the
    // FIFO would misorder it, so it waits in the heap like any event.
    push_heap(Entry{at, seq, h, kNoLane});
  }
}

void EventQueue::cancel(EventId id) {
  if (id.slot >= handles_.size()) return;
  const HandleRec rec = handles_[id.slot];
  if (rec.gen != id.gen || rec.pos == kFreePos) return;
  // Take the callback out before touching the heap; it dies at the end of
  // this call, once the queue is consistent again, so a capture whose
  // destructor schedules or cancels events sees a well-formed queue.
  const Callback dead = std::move(callbacks_[id.slot]);
  release_handle(id.slot);
  remove_at(rec.pos);
}

SimTime EventQueue::next_time() const {
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Entry root = heap_.front();
  release_handle(root.handle);
  if (root.lane == kNoLane) {
    remove_at(0);
  } else {
    Lane& lane = lanes_[root.lane];
    if (lane.queued != 0) {
      // The lane's next key replaces the root: one sift, no push.
      heap_.front() = lane.ring[lane.first];
      lane.first = (lane.first + 1) &
                   static_cast<std::uint32_t>(lane.ring.size() - 1);
      --lane.queued;
      sift_down(0);
    } else {
      lane.armed = false;
      remove_at(0);
    }
  }
  return Fired{root.time, std::move(callbacks_[root.handle])};
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

void EventQueue::push_heap(const Entry& e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void EventQueue::enqueue(Lane& lane, const Entry& e) {
  const auto cap = static_cast<std::uint32_t>(lane.ring.size());
  if (lane.queued == cap) {
    // Full (or never used): double the ring, unrolled to start at 0.
    std::vector<Entry> grown(cap == 0 ? 8 : 2 * cap);
    for (std::uint32_t i = 0; i < lane.queued; ++i) {
      grown[i] = lane.ring[(lane.first + i) & (cap - 1)];
    }
    lane.ring.swap(grown);
    lane.first = 0;
  }
  const auto mask = static_cast<std::uint32_t>(lane.ring.size() - 1);
  lane.ring[(lane.first + lane.queued) & mask] = e;
  ++lane.queued;
}

void EventQueue::remove_at(std::size_t i) {
  const std::size_t last = heap_.size() - 1;
  if (i != last) {
    heap_[i] = heap_[last];
    handles_[heap_[i].handle].pos = static_cast<std::uint32_t>(i);
    heap_.pop_back();
    if (i > 0 && before(heap_[i], heap_[(i - 1) / kArity])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  } else {
    heap_.pop_back();
  }
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t p = (i - 1) / kArity;
    if (!before(e, heap_[p])) break;
    heap_[i] = heap_[p];
    handles_[heap_[i].handle].pos = static_cast<std::uint32_t>(i);
    i = p;
  }
  heap_[i] = e;
  handles_[e.handle].pos = static_cast<std::uint32_t>(i);
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
    heap_[i] = heap_[best];
    handles_[heap_[i].handle].pos = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = e;
  handles_[e.handle].pos = static_cast<std::uint32_t>(i);
}

}  // namespace xgbe::sim
