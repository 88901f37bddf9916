// Receive-side segment reassembly (in-order delivery + out-of-order queue).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/seq.hpp"

namespace xgbe::net {}  // forward-include convenience

namespace xgbe::tcp {

/// Orders sequence numbers with RFC 793 wraparound comparison. This is a
/// strict weak order only over values that lie within 2^31 of each other;
/// Reassembly keeps its keys inside that span (see below).
struct SeqLess {
  bool operator()(net::Seq a, net::Seq b) const { return net::seq_lt(a, b); }
};

/// Tracks the receive sequence space: rcv_nxt plus an out-of-order range
/// set. Payload bytes are counted, not stored.
///
/// Cost: offer() and is_duplicate() take O(log R) for R held ranges (one
/// map lookup, plus the ranges an insert coalesces); an in-order offer also
/// drains the ranges it makes contiguous, O(1) amortized per range.
///
/// Precondition: every held range and every offered or probed segment lies
/// within 2^31 of rcv_nxt, so SeqLess totally orders them. The receive
/// window (at most 2^30 with window scaling) guarantees this for segments
/// the endpoint accepts.
class Reassembly {
 public:
  explicit Reassembly(net::Seq initial_rcv_nxt = 0)
      : rcv_nxt_(initial_rcv_nxt) {}

  net::Seq rcv_nxt() const { return rcv_nxt_; }

  /// Offers a segment [seq, seq+len). Returns the number of bytes newly
  /// made deliverable in order (0 for out-of-order or duplicate data).
  std::uint32_t offer(net::Seq seq, std::uint32_t len);

  /// True if the segment contains only already-received data.
  bool is_duplicate(net::Seq seq, std::uint32_t len) const;

  std::uint32_t ooo_bytes() const { return ooo_bytes_; }
  std::size_t ooo_ranges() const { return ooo_.size(); }

  /// Structural self-check for the fault-injection watchdog: every queued
  /// range must lie strictly beyond rcv_nxt, ranges must be disjoint with
  /// gaps between them (coalescing merged the rest), and the byte tally
  /// must match. Returns an empty string while the invariants hold.
  std::string invariant_violation() const;

 private:
  net::Seq rcv_nxt_;
  // Out-of-order ranges keyed by start seq (non-overlapping, coalesced).
  std::map<net::Seq, std::uint32_t, SeqLess> ooo_;
  std::uint32_t ooo_bytes_ = 0;
};

}  // namespace xgbe::tcp
