// Unit tests for TCP building blocks: RTT estimation, congestion control,
// window advertising, reassembly.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/random.hpp"
#include "tcp/cwnd.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/rtt.hpp"
#include "tcp/window.hpp"

namespace xgbe::tcp {
namespace {

TEST(Rtt, FirstSampleInitializes) {
  RttEstimator r;
  EXPECT_FALSE(r.has_estimate());
  EXPECT_EQ(r.rto(), RttEstimator::kInitialRto);
  r.sample(sim::msec(100));
  EXPECT_TRUE(r.has_estimate());
  EXPECT_EQ(r.srtt(), sim::msec(100));
  EXPECT_EQ(r.rttvar(), sim::msec(50));
}

TEST(Rtt, ConvergesToSteadyRtt) {
  RttEstimator r;
  for (int i = 0; i < 100; ++i) r.sample(sim::msec(10));
  EXPECT_NEAR(static_cast<double>(r.srtt()),
              static_cast<double>(sim::msec(10)), sim::msec(1));
  EXPECT_LT(r.rttvar(), sim::msec(1));
}

TEST(Rtt, RtoClampedToMinimum) {
  RttEstimator r;
  for (int i = 0; i < 50; ++i) r.sample(sim::usec(20));
  EXPECT_EQ(r.rto(), RttEstimator::kMinRto);  // Linux 200 ms floor
}

TEST(Rtt, BackoffDoublesAndResets) {
  RttEstimator r;
  r.sample(sim::msec(100));
  const auto base = r.rto();
  r.backoff();
  EXPECT_EQ(r.rto(), 2 * base);
  r.backoff();
  EXPECT_EQ(r.rto(), 4 * base);
  r.sample(sim::msec(100));
  // Backoff cleared; rttvar has decayed slightly, so rto is at or below
  // the original base.
  EXPECT_LE(r.rto(), base);
  EXPECT_GE(r.rto(), base / 2);
}

TEST(Rtt, MinRttTracksFloor) {
  RttEstimator r;
  r.sample(sim::msec(30));
  r.sample(sim::msec(10));
  r.sample(sim::msec(50));
  EXPECT_EQ(r.min_rtt(), sim::msec(10));
}

TEST(Cwnd, SlowStartDoublesPerWindow) {
  CongestionControl cc(2);
  EXPECT_TRUE(cc.in_slow_start());
  cc.on_ack(2);  // acking a full window doubles it
  EXPECT_EQ(cc.cwnd(), 4u);
  cc.on_ack(4);
  EXPECT_EQ(cc.cwnd(), 8u);
}

TEST(Cwnd, CongestionAvoidanceLinear) {
  CongestionControl cc(2);
  cc.on_fast_retransmit(20);  // ssthresh = 10
  cc.on_recovery_exit();
  EXPECT_EQ(cc.cwnd(), 10u);
  EXPECT_FALSE(cc.in_slow_start());
  cc.on_ack(10);  // one window's worth of ACKs -> +1
  EXPECT_EQ(cc.cwnd(), 11u);
  cc.on_ack(11);
  EXPECT_EQ(cc.cwnd(), 12u);
}

TEST(Cwnd, FastRetransmitHalvesWindow) {
  CongestionControl cc(2);
  cc.on_ack(62);  // grow to 64 in slow start
  EXPECT_EQ(cc.cwnd(), 64u);
  EXPECT_TRUE(cc.on_fast_retransmit(64));
  EXPECT_TRUE(cc.in_recovery());
  EXPECT_EQ(cc.ssthresh(), 32u);
  EXPECT_EQ(cc.cwnd(), 32u);
  EXPECT_EQ(cc.usable_cwnd(), 35u);  // +3 dupacks inflation
  EXPECT_FALSE(cc.on_fast_retransmit(64));  // no re-entry
}

TEST(Cwnd, RecoveryInflationAndExit) {
  CongestionControl cc(2);
  cc.on_ack(30);
  cc.on_fast_retransmit(32);
  cc.on_dupack_in_recovery();
  cc.on_dupack_in_recovery();
  EXPECT_EQ(cc.usable_cwnd(), cc.cwnd() + 5);
  cc.on_recovery_exit();
  EXPECT_FALSE(cc.in_recovery());
  EXPECT_EQ(cc.usable_cwnd(), cc.cwnd());
  EXPECT_EQ(cc.cwnd(), cc.ssthresh());
}

TEST(Cwnd, TimeoutCollapsesToOne) {
  CongestionControl cc(2);
  cc.on_ack(62);
  cc.on_timeout(64);
  EXPECT_EQ(cc.cwnd(), 1u);
  EXPECT_EQ(cc.ssthresh(), 32u);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(Cwnd, SsthreshNeverBelowTwo) {
  CongestionControl cc(2);
  cc.on_timeout(1);
  EXPECT_EQ(cc.ssthresh(), 2u);
}

TEST(Cwnd, ClampStopsGrowth) {
  CongestionControl cc(2);
  cc.set_clamp(16);
  cc.on_ack(100);
  EXPECT_EQ(cc.cwnd(), 16u);
}

TEST(Cwnd, GrowthSuspendedInRecovery) {
  CongestionControl cc(2);
  cc.on_ack(30);
  cc.on_fast_retransmit(32);
  const auto w = cc.cwnd();
  cc.on_ack(10);
  EXPECT_EQ(cc.cwnd(), w);
}

TEST(WindowAdvertiser, RoundsDownToMss) {
  WindowAdvertiser w(true, 1 << 30);
  // The paper's §3.5.1 example: 33000 bytes available, 8948-byte MSS
  // estimate -> 26844 advertised.
  EXPECT_EQ(w.select(33000, 8948, 0), 26844u);
}

TEST(WindowAdvertiser, NoRoundingWhenDisabled) {
  WindowAdvertiser w(false, 1 << 30);
  EXPECT_EQ(w.select(33000, 8948, 0), 33000u);
}

TEST(WindowAdvertiser, NeverShrinksRightEdge) {
  WindowAdvertiser w(true, 1 << 30);
  EXPECT_EQ(w.select(50000, 1000, 0), 50000u);
  // Free space collapsed but the edge was already promised.
  EXPECT_EQ(w.select(10000, 1000, 20000), 30000u);
}

TEST(WindowAdvertiser, EdgeAdvancesWithRcvNxt) {
  WindowAdvertiser w(true, 1 << 30);
  w.select(50000, 1000, 0);
  // rcv_nxt advanced past old edge; full space available again.
  EXPECT_EQ(w.select(50000, 1000, 60000), 50000u);
  EXPECT_EQ(w.rcv_adv(), 110000u);
}

TEST(WindowAdvertiser, ClampAppliesBeforeRounding) {
  WindowAdvertiser w(true, 65535);
  EXPECT_EQ(w.select(1000000, 8948, 0), 62636u);  // 7 * 8948
}

TEST(SenderWindow, PaperFig8Example) {
  // Receiver advertises 26844 (rounded with MSS 8948); the sender's own MSS
  // is 8960, leaving 2 * 8960 = 17920 usable — "nearly 50% smaller than the
  // actual available socket memory" (§3.5.1).
  EXPECT_EQ(sender_usable_window(26844, 8960), 17920u);
}

TEST(Reassembly, InOrderDelivery) {
  Reassembly r(100);
  EXPECT_EQ(r.offer(100, 50), 50u);
  EXPECT_EQ(r.rcv_nxt(), 150u);
  EXPECT_EQ(r.offer(150, 50), 50u);
  EXPECT_EQ(r.rcv_nxt(), 200u);
}

TEST(Reassembly, OutOfOrderHeldThenDrained) {
  Reassembly r(0);
  EXPECT_EQ(r.offer(100, 100), 0u);  // hole at 0
  EXPECT_EQ(r.ooo_bytes(), 100u);
  EXPECT_EQ(r.offer(0, 100), 200u);  // fills the hole, drains the range
  EXPECT_EQ(r.rcv_nxt(), 200u);
  EXPECT_EQ(r.ooo_bytes(), 0u);
}

TEST(Reassembly, DuplicateDetection) {
  Reassembly r(0);
  r.offer(0, 100);
  EXPECT_TRUE(r.is_duplicate(0, 100));
  EXPECT_TRUE(r.is_duplicate(50, 50));
  EXPECT_FALSE(r.is_duplicate(50, 100));
  r.offer(200, 100);
  EXPECT_TRUE(r.is_duplicate(200, 100));
  EXPECT_FALSE(r.is_duplicate(150, 100));
}

TEST(Reassembly, OverlapTrimming) {
  Reassembly r(0);
  r.offer(0, 100);
  EXPECT_EQ(r.offer(50, 100), 50u);  // first half duplicate
  EXPECT_EQ(r.rcv_nxt(), 150u);
}

TEST(Reassembly, CoalescesAdjacentRanges) {
  Reassembly r(0);
  r.offer(100, 100);
  r.offer(300, 100);
  EXPECT_EQ(r.ooo_ranges(), 2u);
  r.offer(200, 100);  // bridges the two
  EXPECT_EQ(r.ooo_ranges(), 1u);
  EXPECT_EQ(r.offer(0, 100), 400u);
}

// Property: any permutation of segment arrival delivers every byte once.
class ReassemblyShuffle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyShuffle, AllBytesDeliveredExactlyOnce) {
  sim::Rng rng(GetParam());
  constexpr std::uint32_t kSegments = 64;
  constexpr std::uint32_t kSegLen = 1000;
  std::vector<std::uint32_t> order(kSegments);
  for (std::uint32_t i = 0; i < kSegments; ++i) order[i] = i;
  for (std::uint32_t i = kSegments - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  Reassembly r(0);
  std::uint64_t delivered = 0;
  for (std::uint32_t idx : order) {
    delivered += r.offer(idx * kSegLen, kSegLen);
    // Duplicates must deliver nothing.
    delivered += r.offer(idx * kSegLen, kSegLen);
  }
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kSegments) * kSegLen);
  EXPECT_EQ(r.rcv_nxt(), kSegments * kSegLen);
  EXPECT_EQ(r.ooo_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyShuffle,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 9999u));

// Differential test: Reassembly against a naive byte-set model. Offsets are
// relative to the initial rcv_nxt, which sits just below 2^32 so the held
// ranges wrap the sequence space. Segments overlap, repeat exactly, straddle
// rcv_nxt and can be empty; every step compares every observable.
class ByteSetModel {
 public:
  // Marks [off, off + len) received and returns the bytes newly in order.
  std::uint32_t offer(std::uint64_t off, std::uint32_t len) {
    if (off + len > got_.size()) got_.resize(off + len, false);
    for (std::uint64_t i = off; i < off + len; ++i) got_[i] = true;
    const std::uint64_t before = next_;
    while (next_ < got_.size() && got_[next_]) ++next_;
    return static_cast<std::uint32_t>(next_ - before);
  }
  bool received(std::uint64_t off) const {
    return off < next_ || (off < got_.size() && got_[off]);
  }
  // Every byte already received; an empty segment counts as duplicate when
  // it sits at or below next, or inside or at either edge of a held range.
  bool is_duplicate(std::uint64_t off, std::uint32_t len) const {
    if (len == 0) {
      return off <= next_ || received(off) || received(off - 1);
    }
    for (std::uint64_t i = off; i < off + len; ++i) {
      if (!received(i)) return false;
    }
    return true;
  }
  std::uint64_t next() const { return next_; }
  std::uint32_t ooo_bytes() const {
    std::uint32_t n = 0;
    for (std::uint64_t i = next_; i < got_.size(); ++i) n += got_[i] ? 1 : 0;
    return n;
  }
  std::size_t ooo_ranges() const {
    std::size_t n = 0;
    for (std::uint64_t i = next_; i < got_.size(); ++i) {
      if (got_[i] && !got_[i - 1]) ++n;
    }
    return n;
  }

 private:
  std::vector<bool> got_;
  std::uint64_t next_ = 0;
};

class ReassemblyDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyDifferential, MatchesByteSetModel) {
  sim::Rng rng(GetParam());
  constexpr net::Seq kBase = 0xFFFFFFFFu - 20000;  // wraps within ~10 steps
  constexpr std::uint64_t kWindow = 8000;
  constexpr std::uint64_t kBehind = 3000;
  Reassembly r(kBase);
  ByteSetModel model;
  std::uint64_t last_off = 0;
  std::uint32_t last_len = 0;
  for (int step = 0; step < 3000; ++step) {
    std::uint64_t off = 0;
    std::uint32_t len = 0;
    const std::uint64_t lo =
        model.next() > kBehind ? model.next() - kBehind : 0;
    const std::uint64_t pick = rng.next_below(8);
    if (pick == 0) {  // exact duplicate of the previous segment
      off = last_off;
      len = last_len;
    } else if (pick == 1) {  // empty segment
      off = lo + rng.next_below(model.next() - lo + kWindow);
    } else if (pick == 2) {  // in order, possibly straddling rcv_nxt
      off = model.next() - rng.next_below(model.next() - lo + 1);
      len = static_cast<std::uint32_t>(1 + rng.next_below(1500));
    } else {
      off = lo + rng.next_below(model.next() - lo + kWindow);
      len = static_cast<std::uint32_t>(1 + rng.next_below(1500));
    }
    last_off = off;
    last_len = len;
    const net::Seq seq = kBase + static_cast<net::Seq>(off);
    const bool dup = r.is_duplicate(seq, len);
    ASSERT_EQ(dup, model.is_duplicate(off, len))
        << "step " << step << " off " << off << " len " << len;
    ASSERT_EQ(r.offer(seq, len), model.offer(off, len)) << "step " << step;
    ASSERT_EQ(r.rcv_nxt(), kBase + static_cast<net::Seq>(model.next()));
    ASSERT_EQ(r.ooo_bytes(), model.ooo_bytes()) << "step " << step;
    ASSERT_EQ(r.ooo_ranges(), model.ooo_ranges()) << "step " << step;
    ASSERT_EQ(r.invariant_violation(), "") << "step " << step;
    for (int probe = 0; probe < 4; ++probe) {
      const std::uint64_t lo =
          model.next() > kBehind ? model.next() - kBehind : 0;
      const std::uint64_t poff = lo + rng.next_below(model.next() - lo + kWindow);
      const auto plen = static_cast<std::uint32_t>(rng.next_below(1500));
      ASSERT_EQ(r.is_duplicate(kBase + static_cast<net::Seq>(poff), plen),
                model.is_duplicate(poff, plen))
          << "step " << step << " probe off " << poff << " len " << plen;
    }
  }
  // The run really crossed 2^32 and held ranges along the way.
  EXPECT_GT(model.next(), 0xFFFFFFFFu - kBase);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyDifferential,
                         ::testing::Values(3u, 17u, 256u, 4099u));

// Stress: a mass-loss burst leaves ~7k alternating holes (the peak the
// oversized-buffer WAN counterfactual reaches), which are then filled in
// random order. Every fill merges two held ranges or drains a run in order.
TEST(Reassembly, SevenThousandHolesFilledInRandomOrder) {
  constexpr std::uint32_t kHoles = 7107;
  constexpr std::uint32_t kLen = 1448;
  constexpr std::uint32_t kSlot = 2 * kLen;  // hole then held segment
  // Start so the held ranges wrap the sequence space halfway through.
  const net::Seq base = 0u - (kHoles / 2) * kSlot;
  Reassembly r(base);
  for (std::uint32_t i = 0; i < kHoles; ++i) {
    ASSERT_EQ(r.offer(base + i * kSlot + kLen, kLen), 0u);
  }
  ASSERT_EQ(r.ooo_ranges(), kHoles);
  ASSERT_EQ(r.ooo_bytes(), kHoles * kLen);
  ASSERT_EQ(r.invariant_violation(), "");

  sim::Rng rng(2004);
  std::vector<std::uint32_t> order(kHoles);
  for (std::uint32_t i = 0; i < kHoles; ++i) order[i] = i;
  for (std::uint32_t i = kHoles - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  std::set<std::uint32_t> open(order.begin(), order.end());
  std::uint64_t delivered = 0;
  for (std::size_t step = 0; step < order.size(); ++step) {
    const std::uint32_t hole = order[step];
    const net::Seq seq = base + hole * kSlot;
    ASSERT_FALSE(r.is_duplicate(seq, kLen));
    ASSERT_TRUE(r.is_duplicate(seq + kLen, kLen));  // the held neighbour
    const bool at_front = hole == *open.begin();
    open.erase(hole);
    // Filling the front hole drains through the next open one; any other
    // fill bridges the two held ranges around it.
    const std::uint32_t stop = open.empty() ? kHoles : *open.begin();
    const std::uint32_t expect = at_front ? (stop - hole) * kSlot : 0;
    ASSERT_EQ(r.offer(seq, kLen), expect) << "hole " << hole;
    delivered += expect;
    ASSERT_TRUE(r.is_duplicate(seq, kLen));
    ASSERT_EQ(r.ooo_ranges(), open.size()) << "hole " << hole;
    if (step % 512 == 0) {
      ASSERT_EQ(r.invariant_violation(), "");
    }
  }
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kHoles) * kSlot);
  EXPECT_EQ(r.rcv_nxt(), base + kHoles * kSlot);
  EXPECT_EQ(r.ooo_bytes(), 0u);
  EXPECT_EQ(r.invariant_violation(), "");
}

// Property: window rounding loses less than one MSS, never goes negative,
// and is idempotent.
struct WindowCase {
  std::uint32_t space;
  std::uint32_t mss;
};

class WindowRounding : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowRounding, LosesLessThanOneMss) {
  const auto [space, mss] = GetParam();
  WindowAdvertiser w(true, 1 << 30);
  const std::uint32_t win = w.select(space, mss, 0);
  EXPECT_LE(win, space);
  EXPECT_EQ(win % mss, 0u);
  EXPECT_LT(space - win, mss);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WindowRounding,
    ::testing::Values(WindowCase{65535, 1448}, WindowCase{65535, 8948},
                      WindowCase{48000, 8948}, WindowCase{196608, 8948},
                      WindowCase{196608, 1448}, WindowCase{33000, 8948},
                      WindowCase{8947, 8948}, WindowCase{8948, 8948},
                      WindowCase{1000000, 15948}));

}  // namespace
}  // namespace xgbe::tcp
