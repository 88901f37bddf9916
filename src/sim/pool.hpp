// Free-list object pool for event-loop hot paths.
//
// The simulation's steady-state malloc traffic comes from a handful of
// per-frame and per-interrupt control records: link delivery records
// (~200-byte Packet captures that overflow InlineCallback's inline buffer),
// NIC interrupt batches (a fresh std::vector per interrupt), and the
// shared-ownership blocks the kernel model used to build with
// std::make_shared. A Pool recycles those records through a free list so the
// steady state allocates nothing: a released node keeps its value object
// alive (vectors keep their capacity) and the next acquire() hands it back.
//
// Threading contract: a Pool is single-threaded, like the event queue it
// feeds. In the sharded engine every pool is owned by one shard (or by one
// exchange channel, whose pool is touched only by the owning shard's worker
// and, between windows, by the barrier thread) — frees never cross shards
// inside a window, so no locks and no atomic refcounts are needed.
//
// Lifetime: handles are refcounted and may outlive the Pool (events still
// pending in an EventQueue can hold handles while the owning component is
// torn down first — the queue dies with the Simulator, after the component).
// The Pool registers every node it hands out; its destructor frees the
// parked ones and orphans the live ones, and an orphan's last handle simply
// deletes the node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xgbe::sim {

/// Bounded-retention object pool. `T` must be default-constructible.
/// acquire() returns a refcounted Handle; the node returns to the free list
/// when the last Handle dies. Reused values are handed back AS-IS (that is
/// the point: vectors keep capacity) — callers reset the fields they use.
template <typename T>
class Pool {
  struct Node {
    T value{};
    std::uint32_t refs = 0;
    std::uint32_t index = 0;  // position in owner->nodes_
    Pool* owner = nullptr;    // null once the Pool is gone
  };

  static void release(Node* node) {
    if (node == nullptr || --node->refs != 0) return;
    if (node->owner == nullptr) {
      delete node;  // orphaned by ~Pool: nothing to return it to
    } else {
      node->owner->recycle(node);
    }
  }

 public:
  /// Refcounted pointer to a pooled value. Copyable (the kernel shares one
  /// interrupt batch across per-packet continuations); not thread-safe.
  class Handle {
   public:
    Handle() = default;
    Handle(const Handle& other) : node_(other.node_) {
      if (node_ != nullptr) ++node_->refs;
    }
    Handle(Handle&& other) noexcept : node_(other.node_) {
      other.node_ = nullptr;
    }
    Handle& operator=(const Handle& other) {
      if (this != &other) {
        Node* old = node_;
        node_ = other.node_;
        if (node_ != nullptr) ++node_->refs;
        release(old);
      }
      return *this;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        release(node_);
        node_ = other.node_;
        other.node_ = nullptr;
      }
      return *this;
    }
    ~Handle() { release(node_); }

    T* operator->() const { return &node_->value; }
    T& operator*() const { return node_->value; }
    T* get() const { return node_ != nullptr ? &node_->value : nullptr; }
    explicit operator bool() const { return node_ != nullptr; }
    void reset() {
      release(node_);
      node_ = nullptr;
    }

   private:
    friend class Pool;
    explicit Handle(Node* node) : node_(node) {}
    Node* node_ = nullptr;
  };

  /// `max_free`: nodes retained for reuse. More live handles than that is
  /// fine — acquire() falls back to plain heap allocation and release()
  /// frees past the cap, so an exhausted pool degrades to malloc, never
  /// fails.
  explicit Pool(std::size_t max_free = 256) : max_free_(max_free) {}

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    for (Node* node : nodes_) {
      if (node->refs == 0) {
        delete node;
      } else {
        node->owner = nullptr;  // its last handle deletes it
      }
    }
  }

  /// Returns a handle to a (possibly recycled) value. The value's previous
  /// contents are preserved on reuse; overwrite what you use.
  Handle acquire() {
    Node* node;
    if (!free_.empty()) {
      node = free_.back();
      free_.pop_back();
      ++reused_;
    } else {
      node = new Node;
      node->owner = this;
      node->index = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(node);
      ++allocated_;
    }
    node->refs = 1;
    ++live_;
    return Handle(node);
  }

  /// Fresh heap nodes ever created (steady state: stops growing).
  std::uint64_t allocated() const { return allocated_; }
  /// Acquires served from the free list.
  std::uint64_t reused() const { return reused_; }
  /// Nodes currently referenced by live handles.
  std::size_t live() const { return live_; }
  /// Nodes parked on the free list right now.
  std::size_t free_size() const { return free_.size(); }
  std::size_t max_free() const { return max_free_; }

 private:
  void recycle(Node* node) {
    --live_;
    if (free_.size() < max_free_) {
      free_.push_back(node);
      return;
    }
    // Retention cap reached: exhaustion fallback is the heap. Unregister
    // the node (swap-remove) before freeing it.
    Node* moved = nodes_.back();
    moved->index = node->index;
    nodes_[node->index] = moved;
    nodes_.pop_back();
    delete node;
  }

  std::vector<Node*> nodes_;  // every node alive and owned: live or parked
  std::vector<Node*> free_;
  std::size_t max_free_;
  std::size_t live_ = 0;  // nodes currently referenced by handles
  // Diagnostics for the pool tests and metrics.
  std::uint64_t allocated_ = 0;  // fresh heap nodes
  std::uint64_t reused_ = 0;     // acquires served from the free list
};

}  // namespace xgbe::sim
