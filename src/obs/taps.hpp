// The per-shard observability seam: the trace sink and span profiler every
// model component on one shard records into.
//
// core::Testbed owns one Taps per shard (classic mode is shard 0) and hands
// each component a pointer to its shard's Taps when it builds the
// component; a link direction gets its transmitting shard's. Arming or
// disarming is one write into that Taps, seen at once by every component
// on the shard, existing or built later. A component built outside a
// testbed points at kNoTaps, so hot paths test the member pointers without
// ever null-checking the Taps pointer itself.
//
// Both probes obey the zero-perturbation contract: they draw no random
// numbers and schedule no events, so an armed run is bit-identical to an
// unarmed one.
#pragma once

namespace xgbe::obs {

class SpanProfiler;
class TraceSink;

struct Taps {
  TraceSink* trace = nullptr;
  SpanProfiler* spans = nullptr;
};

/// The disarmed Taps standalone components point at.
inline constexpr Taps kNoTaps{};

}  // namespace xgbe::obs
