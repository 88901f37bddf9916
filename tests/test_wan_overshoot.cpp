// Mass-loss recovery gate: the oversized-socket-buffer WAN counterfactual
// (paper §4, Table 1). With 256 MB buffers, slow start overshoots the OC-48
// circuit, its line card drops a burst of ~9k frames, and the receiver
// holds thousands of out-of-order ranges while recovery (fast retransmit,
// then RTO) fills them. This is the simulator's heaviest reassembly load.
//
// The configuration is the simulator-speed benchmark's `wan_overshoot`
// workload, built here from the library API; the expected values are the
// modeled outputs that benchmark stores as its reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/testbed.hpp"
#include "hw/presets.hpp"
#include "link/wan.hpp"
#include "tools/drop_report.hpp"
#include "tools/iperf.hpp"

namespace xgbe {
namespace {

TEST(WanOvershoot, MassLossRecoveryMatchesReference) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::wan(256u * 1024 * 1024);
  auto& a = tb.add_host("sunnyvale", hw::presets::wan_endpoint(), tuning);
  auto& b = tb.add_host("geneva", hw::presets::wan_endpoint(), tuning);
  // Circuit line cards get a 64 MB output queue so congestion drops land
  // on a counted queue.
  const std::vector<link::Link*> circuits = tb.build_wan_path(
      a, b,
      {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm, 64u << 20),
       link::wan::oc48_pos(link::wan::kChicagoGenevaKm, 64u << 20)},
      link::wan::router_spec());
  auto cfg = tools::iperf_config(a.endpoint_config());
  cfg.read_chunk = 1 << 20;
  auto conn = tb.open_connection(a, b, cfg, cfg);
  ASSERT_TRUE(tb.run_until_established(conn));

  tools::IperfOptions opt;
  opt.write_size = 256 * 1024;
  opt.warmup = sim::sec(8);
  opt.duration = sim::sec(4);
  const tools::IperfResult r = tools::run_iperf(tb, conn, a, b, opt);
  EXPECT_TRUE(r.completed);

  std::uint64_t circuit_drops = 0;
  for (const link::Link* c : circuits) circuit_drops += c->drops_queue();
  EXPECT_EQ(circuit_drops, 9237u);
  EXPECT_EQ(conn.client->stats().retransmits, 12u);
  EXPECT_EQ(r.bytes, 71584u);

  tools::DropReport ledger;
  ledger.add_testbed(tb);
  EXPECT_EQ(ledger.offered, 75589u);
  EXPECT_EQ(ledger.delivered, 66351u);
  EXPECT_EQ(ledger.total_drops(), 9237u);

  EXPECT_EQ(conn.client->invariant_violation(), "");
  EXPECT_EQ(conn.server->invariant_violation(), "");
}

}  // namespace
}  // namespace xgbe
