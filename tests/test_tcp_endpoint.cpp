// Endpoint-level TCP tests over real simulated hosts: negotiation,
// segmentation semantics, flow control, loss recovery.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "obs/trace.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

struct Pair {
  core::Testbed tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;
  link::Link* wire = nullptr;

  explicit Pair(const core::TuningProfile& tuning,
                const link::LinkSpec& spec = link::LinkSpec{}) {
    a = &tb.add_host("a", hw::presets::pe2650(), tuning);
    b = &tb.add_host("b", hw::presets::pe2650(), tuning);
    wire = &tb.connect(*a, *b, spec);
  }
};

TEST(Handshake, NegotiatesMinimumMss) {
  core::Testbed tb;
  auto& a = tb.add_host("a", hw::presets::pe2650(),
                        core::TuningProfile::stock(9000));
  auto& b = tb.add_host("b", hw::presets::pe2650(),
                        core::TuningProfile::stock(1500));
  tb.connect(a, b);
  auto ca = a.endpoint_config();
  auto cb = b.endpoint_config();
  auto conn = tb.open_connection(a, b, ca, cb);
  ASSERT_TRUE(tb.run_until_established(conn));
  // Sender limited by the peer's 1460 MSS option minus 12 timestamp bytes.
  EXPECT_EQ(conn.client->mss_payload(), 1448u);
  EXPECT_EQ(conn.server->mss_payload(), 1448u);
}

TEST(Handshake, TimestampsRequireBothEnds) {
  Pair p(core::TuningProfile::stock(9000));
  auto ca = p.a->endpoint_config();
  auto cb = p.b->endpoint_config();
  cb.timestamps = false;
  auto conn = p.tb.open_connection(*p.a, *p.b, ca, cb);
  ASSERT_TRUE(p.tb.run_until_established(conn));
  // No timestamp option -> the full 8960 MSS is usable.
  EXPECT_EQ(conn.client->mss_payload(), 8960u);
}

TEST(Handshake, TimestampsCost12Bytes) {
  Pair p(core::TuningProfile::stock(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));
  EXPECT_EQ(conn.client->mss_payload(), 8948u);  // the paper's MSS
}

TEST(Segmentation, PushPerWriteSendsOneSegmentPerWrite) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 4000;  // sub-MSS writes
  opt.count = 100;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.segments_sent, 100u);  // exactly one segment per write
}

TEST(Segmentation, LargeWritesSplitAtMss) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 9000;  // 8948 + 52 per write
  opt.count = 100;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.segments_sent, 200u);
}

TEST(Segmentation, StreamModeCoalescesToFullMss) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto cfg = p.a->endpoint_config();
  cfg.push_per_write = false;  // iperf semantics
  auto conn = p.tb.open_connection(*p.a, *p.b, cfg, p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 4000;
  opt.count = 100;  // 400000 bytes => ceil(400000/8948) = 45 segments
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.segments_sent, 46u);
  EXPECT_GE(r.segments_sent, 45u);
}

TEST(FlowControl, ClosedWindowStallsWithoutReader) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto ca = p.a->endpoint_config();
  auto cb = p.b->endpoint_config();
  cb.app_reader = false;  // the receiving application never reads
  auto conn = p.tb.open_connection(*p.a, *p.b, ca, cb);
  ASSERT_TRUE(p.tb.run_until_established(conn));
  // Stream far more than the receive buffer can hold.
  for (int i = 0; i < 200; ++i) conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::msec(500));
  // The receiver queue is bounded by its buffer accounting; most data is
  // still waiting at the sender (in the socket or in unadmitted writes).
  EXPECT_LT(conn.server->stats().bytes_delivered, 600u * 1024u);
  EXPECT_LT(conn.client->stats().bytes_sent, 200ull * 8948ull / 2ull);
}

TEST(FlowControl, WindowReopensWhenReaderResumes) {
  // Same as above, but reading resumes: verify delivery completes via the
  // window-update path.
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto cb = p.b->endpoint_config();
  cb.read_chunk = 16384;  // slow reader in small chunks
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(), cb);
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 300;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 8948u * 300u);
}

TEST(Loss, FastRetransmitRecovers) {
  link::LinkSpec lossy;
  lossy.loss_rate = 0.002;
  lossy.loss_seed = 1234;
  Pair p(core::TuningProfile::lan_tuned(9000), lossy);
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 2000;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);  // all data delivered despite loss
  EXPECT_EQ(r.bytes, 8948ull * 2000ull);
  EXPECT_GT(conn.client->stats().retransmits, 0u);
  EXPECT_GT(conn.client->stats().fast_retransmits, 0u);
}

TEST(Loss, HeavyLossFallsBackToRto) {
  link::LinkSpec lossy;
  lossy.loss_rate = 0.25;
  lossy.loss_seed = 77;
  Pair p(core::TuningProfile::lan_tuned(9000), lossy);
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 50;
  opt.timeout = sim::sec(300);
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(conn.client->stats().timeouts, 0u);
}

TEST(Loss, CongestionWindowHalvesOnFastRetransmit) {
  link::LinkSpec lossy;
  lossy.loss_rate = 0.01;
  lossy.loss_seed = 5;
  Pair p(core::TuningProfile::lan_tuned(9000), lossy);
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));
  std::uint32_t max_before_drop = 0;
  bool saw_halving = false;
  std::uint32_t prev = 0;
  conn.client->cwnd_trace = [&](sim::SimTime, std::uint32_t cwnd) {
    if (prev != 0 && cwnd < prev && cwnd <= prev / 2 + 1) saw_halving = true;
    prev = cwnd;
    max_before_drop = std::max(max_before_drop, cwnd);
  };
  for (int i = 0; i < 1000; ++i) conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::msec(200));
  EXPECT_TRUE(saw_halving);
}

TEST(DelayedAck, AcksRoughlyEveryOtherSegment) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 400;
  auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  const double acks = static_cast<double>(conn.server->stats().acks_sent);
  // Delayed ACK: between 1/2 and ~1 ack per segment (window updates add).
  EXPECT_GT(acks, 400 * 0.45);
  EXPECT_LT(acks, 400 * 1.2);
}

TEST(Mechanism, TruesizeWindowCollapseAtJumboMss) {
  // The paper's Fig 3 dip: with default buffers, jumbo-MSS-sized writes
  // throttle well below the 8000-byte-write rate because each segment
  // charges a 16 KB block against an 87380-byte rcvbuf.
  auto run = [](std::uint32_t payload) {
    Pair p(core::TuningProfile::with_pci_burst(9000));
    auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                     p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = payload;
    opt.count = 1500;
    return tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt).throughput_gbps();
  };
  const double at8000 = run(8000);
  const double at8948 = run(8948);
  EXPECT_GT(at8000, at8948 * 1.4);
}

TEST(Mechanism, OversizedWindowsCureTheDip) {
  auto run = [](const core::TuningProfile& t) {
    Pair p(t);
    auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                     p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = 8948;
    opt.count = 1500;
    return tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt).throughput_gbps();
  };
  const double small = run(core::TuningProfile::with_uniprocessor(9000));
  const double big = run(core::TuningProfile::with_big_windows(9000));
  EXPECT_GT(big, small * 1.3);  // §3.3: the 256 KB buffers remove the dip
}

TEST(Tso, OffloadReducesSenderSegmentWork) {
  auto run = [](bool tso) {
    core::TuningProfile t = core::TuningProfile::lan_tuned(9000);
    t.tso = tso;
    Pair p(t);
    auto cfg = p.a->endpoint_config();
    cfg.push_per_write = false;
    auto conn =
        p.tb.open_connection(*p.a, *p.b, cfg, p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = 32768;
    opt.count = 200;
    auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
    EXPECT_TRUE(r.completed);
    return r;
  };
  const auto without = run(false);
  const auto with = run(true);
  // TSO reduces the sender CPU load ("should reduce the CPU load on
  // transmitting systems, and in many cases, will increase throughput").
  EXPECT_LT(with.sender_load, without.sender_load);
  EXPECT_GE(with.throughput_bps, without.throughput_bps * 0.95);
}

// The sender keeps a running packets-in-flight count beside its
// retransmission queue, and invariant_violation() recomputes it from the
// queue. Walk one TSO connection through every path that edits the queue
// -- byte-granular partial-ACK trims, a zero-window probe, fast
// retransmit, RTO and abort() -- checking the invariants between events
// every 200 us of simulated time, and pin the congestion window the count
// feeds.
TEST(FlightCount, TracksTheRetransmissionQueueThroughEveryPath) {
  core::TuningProfile tuning = core::TuningProfile::lan_tuned(9000);
  tuning.tso = true;
  Pair p(tuning);
  auto ca = p.a->endpoint_config();
  ca.push_per_write = false;
  auto conn = p.tb.open_connection(*p.a, *p.b, ca, p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));
  tcp::Endpoint& tx = *conn.client;
  const std::uint32_t mss = tx.mss_payload();

  // Partial-ACK detector: an ACK landing strictly inside a TSO
  // super-segment makes the sender trim the queue head.
  std::vector<std::pair<net::Seq, net::Seq>> super_segments;
  int partial_acks = 0;
  obs::TraceSink sink;
  sink.on_record = [&](const obs::TraceEvent& ev) {
    if (ev.src == p.a->node() && ev.type == obs::EventType::kSegTx &&
        ev.len > mss) {
      super_segments.emplace_back(ev.seq, ev.seq + ev.len);
    }
    if (ev.src != p.b->node() || ev.type != obs::EventType::kWireTx ||
        p.wire->name() != ev.where || (ev.flags & obs::kFlagAck) == 0) {
      return;
    }
    for (const auto& [begin, end] : super_segments) {
      if (net::seq_gt(ev.ack, begin) && net::seq_lt(ev.ack, end)) {
        ++partial_acks;
        break;
      }
    }
  };
  p.tb.set_taps({&sink, nullptr});

  // Runs in short slices, checking both ends between events.
  auto run_checked = [&](sim::SimTime duration) {
    const sim::SimTime end = p.tb.now() + duration;
    while (p.tb.now() < end) {
      p.tb.run_for(sim::usec(200));
      ASSERT_EQ(tx.invariant_violation(), "");
      ASSERT_EQ(conn.server->invariant_violation(), "");
    }
  };
  std::vector<std::uint32_t> cwnd_after_step;

  // 1. TSO super-segments, acknowledged mid-segment.
  for (int i = 0; i < 40; ++i) tx.app_send(32768, nullptr);
  run_checked(sim::msec(20));
  EXPECT_GT(partial_acks, 0);
  cwnd_after_step.push_back(tx.cwnd_segments());

  // 2. The reader stops, the window closes, the sender probes it.
  conn.server->set_app_reader(false);
  for (int i = 0; i < 40; ++i) tx.app_send(32768, nullptr);
  run_checked(sim::sec(1));
  EXPECT_GT(tx.stats().window_probes, 0u);
  conn.server->set_app_reader(true);
  run_checked(sim::msec(50));
  EXPECT_EQ(tx.stats().bytes_acked, 80u * 32768u);
  cwnd_after_step.push_back(tx.cwnd_segments());

  // 3. One data frame lost in a deep pipeline: fast retransmit.
  for (int i = 0; i < 40; ++i) tx.app_send(32768, nullptr);
  run_checked(sim::usec(400));
  p.wire->fault_injector(true).inject_drops(1);
  run_checked(sim::msec(50));
  EXPECT_EQ(tx.stats().fast_retransmits, 1u);
  EXPECT_EQ(tx.stats().bytes_acked, 120u * 32768u);
  cwnd_after_step.push_back(tx.cwnd_segments());

  // 4. Every ACK lost for a while: the retransmission timer fires.
  fault::FaultPlan blackout;
  blackout.flaps.push_back(
      fault::LinkFlap{p.tb.now(), p.tb.now() + sim::msec(500)});
  p.wire->set_fault_plan(blackout, /*from_a=*/false);
  for (int i = 0; i < 8; ++i) tx.app_send(32768, nullptr);
  run_checked(sim::sec(2));
  EXPECT_GT(tx.stats().timeouts, 0u);
  EXPECT_EQ(tx.stats().bytes_acked, 128u * 32768u);
  cwnd_after_step.push_back(tx.cwnd_segments());

  // 5. abort() with data in flight empties the queue and the count.
  for (int i = 0; i < 8; ++i) tx.app_send(32768, nullptr);
  run_checked(sim::usec(200));
  ASSERT_GT(tx.unacked_segments(), 0u);
  tx.abort();
  EXPECT_TRUE(tx.closed());
  EXPECT_EQ(tx.unacked_segments(), 0u);
  EXPECT_EQ(tx.invariant_violation(), "");
  run_checked(sim::msec(10));
  p.tb.set_taps({});

  EXPECT_EQ(cwnd_after_step, (std::vector<std::uint32_t>{162, 324, 17, 5}));
}

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  auto run = []() {
    Pair p(core::TuningProfile::lan_tuned(9000));
    auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                     p.b->endpoint_config());
    tools::NttcpOptions opt;
    opt.payload = 8192;
    opt.count = 500;
    return tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.elapsed_s, r2.elapsed_s);
  EXPECT_EQ(r1.segments_sent, r2.segments_sent);
  EXPECT_DOUBLE_EQ(r1.throughput_bps, r2.throughput_bps);
}

}  // namespace
}  // namespace xgbe
