#include "core/fleet.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "tcp/endpoint.hpp"

namespace xgbe::core::fleet {

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kIncast:
      return "incast";
    case Scenario::kAllToAll:
      return "all-to-all";
    case Scenario::kRpcChurn:
      return "rpc-churn";
  }
  return "?";
}

churn::Options default_rpc() {
  churn::Options o;
  o.connections = 150;
  o.arrival_rate_hz = 2000.0;
  o.min_bytes = 1024;
  o.max_bytes = 32768;
  o.max_concurrent = 32;
  o.drain_timeout = sim::sec(2);
  return o;
}

namespace {

/// One flow with its receiver-side byte counter. Counters live in a deque-
/// stable vector sized before arming; each is written only by the receiving
/// host's shard.
struct Flow {
  Testbed::Connection conn;
  Host* sender = nullptr;
};

/// Drives a set of established flows through synchronized send rounds:
/// round k fires `bytes` on every sender at k * period (scheduled on each
/// sender's shard), then runs until every byte landed or the deadline.
Result drive_rounds(Fabric& fabric, const Options& opt, const char* name,
                    std::vector<Flow>& flows, std::size_t rounds,
                    std::uint32_t bytes, sim::SimTime period) {
  Testbed& tb = fabric.testbed();
  Result res;
  res.name = name;
  res.bytes_expected =
      static_cast<std::uint64_t>(flows.size()) * rounds * bytes;

  for (auto& f : flows) tb.run_until_established(f.conn);

  std::vector<std::uint64_t> consumed(flows.size(), 0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto* counter = &consumed[i];
    flows[i].conn.server->on_consumed = [counter](std::uint64_t b) {
      *counter += b;
    };
  }
  // Synchronized rounds: every sender fires at the same instant — that
  // simultaneity is the incast signature, so no jitter is added.
  for (std::size_t k = 0; k < rounds; ++k) {
    for (auto& f : flows) {
      tcp::Endpoint* ep = f.conn.client;
      tb.simulator_for(*f.sender)
          .schedule(static_cast<sim::SimTime>(k) * period,
                    [ep, bytes]() { ep->app_send(bytes, nullptr); });
    }
  }

  const std::uint64_t per_flow =
      static_cast<std::uint64_t>(rounds) * bytes;
  const sim::SimTime deadline = tb.now() + opt.deadline;
  const auto total = [&]() {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : consumed) sum += b;
    return sum;
  };
  while (total() < res.bytes_expected && tb.now() < deadline) {
    tb.run_for(sim::msec(1));
  }
  // Deterministic quiescence: flows the fault starved are aborted (their
  // retransmit clocks die with them), then the drain lands every in-flight
  // frame — the conservation ledger must balance even on degraded runs.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (consumed[i] < per_flow) flows[i].conn.client->abort();
  }
  tb.run_for(opt.drain);
  res.bytes_consumed = total();
  res.completed = res.bytes_consumed == res.bytes_expected;
  res.finished_at = tb.now();
  for (auto& f : flows) f.conn.server->on_consumed = nullptr;
  return res;
}

Result run_incast(Fabric& fabric, const Options& opt) {
  Testbed& tb = fabric.testbed();
  Host& agg = fabric.host(0, 0);
  std::vector<Flow> flows;
  for (std::size_t i = 1; i < fabric.host_count(); ++i) {
    Host& worker = fabric.host_flat(i);
    Flow f;
    f.sender = &worker;
    f.conn = tb.open_connection(worker, agg, worker.endpoint_config(),
                                agg.endpoint_config());
    flows.push_back(f);
  }
  return drive_rounds(fabric, opt, scenario_name(Scenario::kIncast), flows,
                      opt.incast_rounds, opt.incast_bytes, opt.round_period);
}

Result run_all_to_all(Fabric& fabric, const Options& opt) {
  Testbed& tb = fabric.testbed();
  const std::size_t n = fabric.host_count();
  if (n < 2) {
    throw std::invalid_argument("all-to-all needs at least two hosts");
  }
  // Round r: host i streams to host (i + (r mod (n-1)) + 1) % n — a rotating
  // derangement, so every round loads every host symmetrically and over the
  // rounds every trunk bundle sees traffic. The offset cycles through
  // 1..n-1 and never reaches n, so no host streams to itself however many
  // rounds run. One connection per (i, r).
  std::vector<Flow> flows;
  for (std::size_t r = 0; r < opt.a2a_rounds; ++r) {
    const std::size_t offset = r % (n - 1) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      Host& src = fabric.host_flat(i);
      Host& dst = fabric.host_flat((i + offset) % n);
      Flow f;
      f.sender = &src;
      f.conn = tb.open_connection(src, dst, src.endpoint_config(),
                                  dst.endpoint_config());
      flows.push_back(f);
    }
  }
  // Each flow carries exactly one round's payload (fired at r * period), so
  // this drives its own loop instead of drive_rounds' every-flow rounds.
  Result res;
  res.name = scenario_name(Scenario::kAllToAll);
  res.bytes_expected =
      static_cast<std::uint64_t>(flows.size()) * opt.a2a_bytes;

  for (auto& f : flows) tb.run_until_established(f.conn);

  std::vector<std::uint64_t> consumed(flows.size(), 0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto* counter = &consumed[i];
    flows[i].conn.server->on_consumed = [counter](std::uint64_t b) {
      *counter += b;
    };
  }
  const std::uint32_t bytes = opt.a2a_bytes;
  for (std::size_t r = 0; r < opt.a2a_rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      Flow& f = flows[r * n + i];
      tcp::Endpoint* ep = f.conn.client;
      tb.simulator_for(*f.sender)
          .schedule(static_cast<sim::SimTime>(r) * opt.round_period,
                    [ep, bytes]() { ep->app_send(bytes, nullptr); });
    }
  }

  const sim::SimTime deadline = tb.now() + opt.deadline;
  const auto total = [&]() {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : consumed) sum += b;
    return sum;
  };
  while (total() < res.bytes_expected && tb.now() < deadline) {
    tb.run_for(sim::msec(1));
  }
  // Same quiescence rule as drive_rounds: abort what the fault starved.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (consumed[i] < bytes) flows[i].conn.client->abort();
  }
  tb.run_for(opt.drain);
  res.bytes_consumed = total();
  res.completed = res.bytes_consumed == res.bytes_expected;
  res.finished_at = tb.now();
  for (auto& f : flows) f.conn.server->on_consumed = nullptr;
  return res;
}

Result run_rpc_churn(Fabric& fabric, const Options& opt) {
  Testbed& tb = fabric.testbed();
  // Cross-rack pair: the RPC stream traverses the trunks, so trunk faults
  // show up as refused/aborted connections, not just byte deficits.
  Host& client = fabric.host(0, 0);
  Host& server =
      fabric.host(fabric.racks() - 1, fabric.hosts_per_rack() - 1);
  Result res;
  res.name = scenario_name(Scenario::kRpcChurn);
  res.rpc = churn::run(tb, client, server, opt.rpc);
  tb.run_for(opt.drain);
  res.bytes_expected = 0;  // sizes are drawn, not fixed; the ledger is exact
  res.bytes_consumed = res.rpc.bytes_acked;
  res.completed = res.rpc.conserved() &&
                  res.rpc.completed == res.rpc.opened &&
                  res.rpc.opened == opt.rpc.connections;
  res.finished_at = tb.now();
  return res;
}

}  // namespace

Result run(Fabric& fabric, const Options& opt) {
  if (opt.scraper != nullptr) {
    fabric.testbed().set_metric_scraper(opt.scraper);
  }
  Result res;
  switch (opt.scenario) {
    case Scenario::kIncast:
      res = run_incast(fabric, opt);
      break;
    case Scenario::kAllToAll:
      res = run_all_to_all(fabric, opt);
      break;
    case Scenario::kRpcChurn:
      res = run_rpc_churn(fabric, opt);
      break;
  }
  if (opt.scraper != nullptr) {
    fabric.testbed().set_metric_scraper(nullptr);
  }
  return res;
}

}  // namespace xgbe::core::fleet
