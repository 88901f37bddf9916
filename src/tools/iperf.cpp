#include "tools/iperf.hpp"

#include <memory>

namespace xgbe::tools {

IperfResult run_iperf(core::Testbed& tb, core::Testbed::Connection& conn,
                      core::Host& sender, core::Host& receiver,
                      const IperfOptions& options) {
  IperfResult result;
  if (!conn.client->established() && !tb.run_until_established(conn)) {
    return result;
  }
  sim::Simulator& sim = tb.simulator();

  struct State {
    std::uint64_t consumed = 0;
    std::uint64_t window_base = 0;
    bool running = true;
  };
  auto st = std::make_shared<State>();

  conn.server->on_consumed = [st](std::uint64_t bytes) {
    st->consumed += bytes;
  };

  auto writer = std::make_shared<std::function<void()>>();
  *writer = [st, writer, &conn, &options]() {
    if (!st->running) return;
    // The last write is usually still waiting for socket-buffer space when
    // the run ends and the writer is emptied; its admission is then a no-op.
    conn.client->app_send(options.write_size, [writer]() {
      if (*writer) (*writer)();
    });
  };
  (*writer)();

  // Warmup, then a measurement window.
  sim.run_until(sim.now() + options.warmup);
  st->window_base = st->consumed;
  sender.mark_load_window();
  receiver.mark_load_window();
  const sim::SimTime t0 = sim.now();
  sim.run_until(t0 + options.duration);
  const sim::SimTime t1 = sim.now();
  st->running = false;
  conn.server->on_consumed = nullptr;
  *writer = nullptr;  // break the writer's self-reference cycle

  const std::uint64_t bytes = st->consumed - st->window_base;
  const double secs = sim::to_seconds(t1 - t0);
  result.completed = secs > 0;
  result.bytes = bytes;
  result.throughput_bps =
      secs > 0 ? static_cast<double>(bytes) * 8.0 / secs : 0.0;
  result.sender_load = sender.cpu_load();
  result.receiver_load = receiver.cpu_load();
  return result;
}

}  // namespace xgbe::tools
