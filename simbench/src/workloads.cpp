#include "workloads.hpp"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <optional>
#include <string_view>

#include "core/fabric.hpp"
#include "core/fleet.hpp"
#include "core/testbed.hpp"
#include "hw/presets.hpp"
#include "link/wan.hpp"
#include "obs/registry.hpp"
#include "tools/drop_report.hpp"
#include "tools/iperf.hpp"
#include "tools/nttcp.hpp"

namespace simbench {
namespace {

using namespace xgbe;

// Simulated time after an NTTCP transfer ends before the ledgers are read:
// the conservation identity only holds once every in-flight frame has
// landed. The WAN runs cannot be drained: tools::run_iperf leaves its writer
// continuation queued on the endpoint with an emptied target, so running
// the testbed past run_iperf throws std::bad_function_call. Their ledger
// terms are still compared exactly against the reference.
constexpr sim::SimTime kLanDrain = sim::msec(5);

// sim.slice width per workload: ~120 slices over the WAN runs' 12 s,
// and a few dozen per LAN point or fabric scenario.
constexpr sim::SimTime kWanSlice = sim::msec(100);
constexpr sim::SimTime kLanSlice = sim::msec(1);
constexpr sim::SimTime kFabricSlice = sim::msec(1);

std::string text(double v) { return obs::format_double(v); }
std::string text(std::uint64_t v) { return std::to_string(v); }
std::string text(std::int64_t v) { return std::to_string(v); }
std::string text(bool v) { return v ? "true" : "false"; }

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t executed_events(core::Testbed& tb) {
  return tb.sharded() ? tb.engine().executed_events()
                      : tb.simulator().executed_events();
}

/// Installs a SliceHook on the testbed for the scope's lifetime when the
/// operation is traced; untraced operations run with no hook at all.
class SliceScope {
 public:
  SliceScope(Context& ctx, core::Testbed& tb, sim::SimTime interval)
      : tb_(tb) {
    if (!ctx.tracer->enabled()) return;
    hook_.emplace(*ctx.tracer, tb.now(), interval,
                  [&tb] { return executed_events(tb); });
    install(&*hook_);
  }
  ~SliceScope() {
    if (hook_) install(nullptr);
  }
  SliceScope(const SliceScope&) = delete;
  SliceScope& operator=(const SliceScope&) = delete;

 private:
  void install(sim::TimeHook* hook) {
    if (tb_.sharded()) {
      tb_.engine().set_time_hook(hook);
    } else {
      tb_.simulator().set_time_hook(hook);
    }
  }
  core::Testbed& tb_;
  std::optional<SliceHook> hook_;
};

/// Sum of a per-endpoint TCP counter over every registered endpoint.
std::uint64_t tcp_sum(const obs::Snapshot& snap, std::string_view field) {
  std::uint64_t sum = 0;
  for (const obs::Sample& s : snap.samples) {
    const std::string_view p = s.path;
    if (p.size() > field.size() && p.ends_with(field) &&
        p[p.size() - field.size() - 1] == '/' &&
        p.find("/tcp/flow") != std::string_view::npos) {
      sum += s.count;
    }
  }
  return sum;
}

/// Reads the point's registry fingerprint and drop ledger (timed as the obs
/// and tools phases), records them as modeled outputs, flags a ledger that
/// does not conserve (when the testbed is `quiescent`), and adds the point's
/// per-layer counters to the operation.
void finish_point(core::Testbed& tb, Context& ctx, Op& op, Point& pt,
                  bool quiescent,
                  const core::churn::Result* rpc = nullptr) {
  obs::Snapshot snap;
  std::string json;
  std::size_t probes = 0;
  {
    Timed t(*ctx.tracer, op.phases, "obs.snapshot", "snapshot");
    obs::Registry reg;
    tb.register_metrics(reg);
    probes = reg.size();
    snap = reg.snapshot();
    json = snap.to_json();
  }
  tools::DropReport ledger;
  {
    Timed t(*ctx.tracer, op.phases, "tools.ledger", "ledger");
    ledger.add_testbed(tb);
    if (rpc != nullptr) {
      ledger.add_connections(rpc->opened, rpc->completed, rpc->refused,
                             rpc->aborted);
    }
  }
  pt.outputs.emplace_back("fingerprint", hex(fnv1a(json)));
  pt.outputs.emplace_back("frames_offered", text(ledger.offered));
  pt.outputs.emplace_back("frames_delivered", text(ledger.delivered));
  pt.outputs.emplace_back("frames_dropped", text(ledger.total_drops()));
  if (quiescent && !ledger.conserved() && pt.problem.empty()) {
    pt.problem = "frame ledger does not conserve (unaccounted " +
                 text(static_cast<std::int64_t>(ledger.unaccounted())) + ")";
  }
  if (!ledger.connections_conserved() && pt.problem.empty()) {
    pt.problem = "connection ledger does not conserve";
  }

  auto& c = op.counts;
  c["sim.events"] += static_cast<double>(executed_events(tb));
  if (tb.sharded()) {
    c["sim.windows"] += static_cast<double>(tb.engine().windows());
    c["sim.exchanged"] += static_cast<double>(tb.engine().exchanged());
  }
  c["tcp.segments_sent"] += static_cast<double>(tcp_sum(snap, "segments_sent"));
  c["tcp.acks_sent"] += static_cast<double>(tcp_sum(snap, "acks_sent"));
  c["tcp.retransmits"] += static_cast<double>(tcp_sum(snap, "retransmits"));
  c["tcp.timeouts"] += static_cast<double>(tcp_sum(snap, "timeouts"));
  for (std::size_t i = 0; i < tb.host_count(); ++i) {
    const core::Host& h = tb.host_at(i);
    c["tcp.conns_opened"] += static_cast<double>(h.conn_opens());
    c["tcp.conns_closed"] += static_cast<double>(h.conn_closes());
    for (std::size_t a = 0; a < h.adapter_count(); ++a) {
      c["nic.tx_frames"] += static_cast<double>(h.adapter(a).tx_frames());
      c["nic.interrupts"] +=
          static_cast<double>(h.adapter(a).interrupts_raised());
    }
  }
  for (std::size_t i = 0; i < tb.link_count(); ++i) {
    c["link.frames_delivered"] +=
        static_cast<double>(tb.link_at(i).frames_delivered());
    c["link.drops_queue"] += static_cast<double>(tb.link_at(i).drops_queue());
  }
  for (std::size_t i = 0; i < tb.switch_count(); ++i) {
    const link::EthernetSwitch& sw = tb.switch_at(i);
    c["link.switch_forwarded"] += static_cast<double>(sw.forwarded());
    c["link.switch_drops"] += static_cast<double>(
        sw.dropped_queue_full() + sw.dropped_no_route() + sw.dropped_red());
  }
  c["obs.metrics"] += static_cast<double>(probes);
}

template <typename T>
void teardown(Context& ctx, Op& op, std::optional<T>& topology) {
  Timed t(*ctx.tracer, op.phases, "core.teardown", "teardown");
  topology.reset();
}

// --- wan_record / wan_overshoot -------------------------------------------
// The Fig 9 path: Sunnyvale -> OC-192 -> Chicago -> OC-48 -> Geneva, one
// iperf stream, 8 s warmup and a 4 s measurement window. Circuit line cards
// get a 64 MB output queue so congestion drops land on a counted queue.
Op wan_op(Context& ctx, std::uint32_t buffer_bytes, const char* key) {
  const double w0 = host_now();
  Op op;
  Point pt;
  pt.key = key;
  std::optional<core::Testbed> tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;
  std::vector<link::Link*> circuits;
  core::Testbed::Connection conn;
  {
    Timed t(*ctx.tracer, op.phases, "core.build", "build");
    tb.emplace();
    const auto tuning = core::TuningProfile::wan(buffer_bytes);
    a = &tb->add_host("sunnyvale", hw::presets::wan_endpoint(), tuning);
    b = &tb->add_host("geneva", hw::presets::wan_endpoint(), tuning);
    circuits = tb->build_wan_path(
        *a, *b,
        {link::wan::oc192_pos(link::wan::kSunnyvaleChicagoKm, 64u << 20),
         link::wan::oc48_pos(link::wan::kChicagoGenevaKm, 64u << 20)},
        link::wan::router_spec());
  }
  bool established = false;
  auto cfg = tools::iperf_config(a->endpoint_config());
  cfg.read_chunk = 1 << 20;
  {
    Timed t(*ctx.tracer, op.phases, "core.establish", "establish");
    conn = tb->open_connection(*a, *b, cfg, cfg);
    established = tb->run_until_established(conn);
  }
  if (!ctx.setup_only) {
    tools::IperfResult r;
    {
      Timed t(*ctx.tracer, op.phases, "tools.run_iperf", "run");
      SliceScope slices(ctx, *tb, kWanSlice);
      tools::IperfOptions opt;
      opt.write_size = 256 * 1024;
      opt.warmup = sim::sec(8);
      opt.duration = sim::sec(4);
      r = tools::run_iperf(*tb, conn, *a, *b, opt);
    }
    std::uint64_t circuit_drops = 0;
    for (const link::Link* c : circuits) circuit_drops += c->drops_queue();
    pt.outputs.emplace_back("gbps", text(r.throughput_gbps()));
    pt.outputs.emplace_back("bytes", text(r.bytes));
    pt.outputs.emplace_back("retransmits",
                            text(conn.client->stats().retransmits));
    pt.outputs.emplace_back("circuit_drops", text(circuit_drops));
    if (!established || !r.completed) pt.problem = "iperf did not complete";
    finish_point(*tb, ctx, op, pt, /*quiescent=*/false);
    op.points.push_back(std::move(pt));
  }
  teardown(ctx, op, tb);
  op.wall_s = host_now() - w0;
  return op;
}

Op wan_record(Context& ctx) {
  return wan_op(ctx, 80u * 1024 * 1024, "wan_record");
}

Op wan_overshoot(Context& ctx) {
  return wan_op(ctx, 256u * 1024 * 1024, "wan_overshoot");
}

// --- lan_ladder ------------------------------------------------------------
// The Fig 4 tuning ladder: back-to-back PE2650s, NTTCP with 2000 writes per
// point, every rung x MTU x payload run serially in one thread.
core::TuningProfile rung_profile(int rung, std::uint32_t mtu) {
  switch (rung) {
    case 0:
      return core::TuningProfile::stock(mtu);
    case 1:
      return core::TuningProfile::with_pci_burst(mtu);
    case 2:
      return core::TuningProfile::with_uniprocessor(mtu);
    default:
      return core::TuningProfile::with_big_windows(mtu);
  }
}

constexpr std::uint32_t kPayloads[] = {128,  512,  1024,  2048,  4096,
                                       6144, 7436, 8000,  8948,  10240,
                                       12288, 14336, 16344};

void lan_point(Context& ctx, Op& op, int rung, std::uint32_t mtu,
               std::uint32_t payload) {
  Point pt;
  pt.key = "rung" + std::to_string(rung) + "/mtu" + std::to_string(mtu) +
           "/payload" + std::to_string(payload);
  std::optional<core::Testbed> tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;
  core::Testbed::Connection conn;
  {
    Timed t(*ctx.tracer, op.phases, "core.build", "build");
    tb.emplace();
    const auto tuning = rung_profile(rung, mtu);
    a = &tb->add_host("tx", hw::presets::pe2650(), tuning);
    b = &tb->add_host("rx", hw::presets::pe2650(), tuning);
    tb->connect(*a, *b);
  }
  bool established = false;
  {
    Timed t(*ctx.tracer, op.phases, "core.establish", "establish");
    conn = tb->open_connection(*a, *b, a->endpoint_config(),
                               b->endpoint_config());
    established = tb->run_until_established(conn);
  }
  if (!ctx.setup_only) {
    tools::NttcpResult r;
    {
      Timed t(*ctx.tracer, op.phases, "tools.run_nttcp", "run");
      SliceScope slices(ctx, *tb, kLanSlice);
      tools::NttcpOptions opt;
      opt.payload = payload;
      opt.count = 2000;
      r = tools::run_nttcp(*tb, conn, *a, *b, opt);
      tb->run_for(kLanDrain);
    }
    pt.outputs.emplace_back("gbps", text(r.throughput_gbps()));
    pt.outputs.emplace_back("cpu_tx", text(r.sender_load));
    pt.outputs.emplace_back("cpu_rx", text(r.receiver_load));
    pt.outputs.emplace_back("retransmits", text(r.retransmits));
    pt.outputs.emplace_back("segments", text(r.segments_sent));
    if (!established || !r.completed) pt.problem = "nttcp did not complete";
    finish_point(*tb, ctx, op, pt, /*quiescent=*/true);
    op.points.push_back(std::move(pt));
  }
  teardown(ctx, op, tb);
}

Op lan_ladder(Context& ctx) {
  const double w0 = host_now();
  Op op;
  for (int rung = 0; rung < 4; ++rung) {
    for (std::uint32_t mtu : {1500u, 9000u}) {
      for (std::uint32_t payload : kPayloads) {
        lan_point(ctx, op, rung, mtu, payload);
      }
    }
  }
  op.wall_s = host_now() - w0;
  return op;
}

// --- fabric_mix -------------------------------------------------------------
// The fleet catalogue on a 2-rack x 4-host fabric with two spines: incast
// rounds, all-to-all rounds (fewer rounds than hosts, the scenario's
// derangement shape), and RPC churn whose arrivals and sizes come from the
// benchmark seed. Every scenario runs at 1 shard and at 2 shards; the two
// must agree exactly. The 2-shard pass runs inline on one thread unless
// Context::threaded asks for two worker threads: the 2-thread lockstep's
// host time swings several-fold with hypervisor steal, too much for an
// end-to-end bound, so only the threaded operations of a traced run, which
// feed sim.shard_speedup alone, use it.
constexpr std::size_t kShardCounts[] = {1, 2};
constexpr core::fleet::Scenario kScenarios[] = {
    core::fleet::Scenario::kIncast, core::fleet::Scenario::kAllToAll,
    core::fleet::Scenario::kRpcChurn};

core::FabricOptions fabric_options(std::size_t shards, unsigned threads) {
  core::FabricOptions fo;
  fo.racks = 2;
  fo.hosts_per_rack = 4;
  fo.spines = 2;
  fo.trunks_per_spine = 2;
  fo.shards = shards;
  fo.threads = threads;
  return fo;
}

core::fleet::Options fleet_options(core::fleet::Scenario scenario,
                                   std::uint64_t seed) {
  core::fleet::Options o;
  o.scenario = scenario;
  o.incast_rounds = 4;
  o.a2a_rounds = 3;
  o.rpc.seed = splitmix64(seed);
  o.rpc.connections = 2000;
  o.rpc.arrival_rate_hz = 20000.0;
  return o;
}

void fabric_point(Context& ctx, Op& op, core::fleet::Scenario scenario,
                  std::size_t shards) {
  Point pt;
  pt.key = std::string(core::fleet::scenario_name(scenario)) + "@" +
           std::to_string(shards);
  std::optional<core::Fabric> fabric;
  {
    Timed t(*ctx.tracer, op.phases, "core.build", "build");
    const unsigned threads = ctx.threaded && shards > 1 ? 2 : 1;
    fabric.emplace(fabric_options(shards, threads));
  }
  if (!ctx.setup_only) {
    core::fleet::Result res;
    const double r0 = host_now();
    {
      Timed t(*ctx.tracer, op.phases, "core.fleet.run", "run");
      SliceScope slices(ctx, fabric->testbed(), kFabricSlice);
      res = core::fleet::run(*fabric, fleet_options(scenario, ctx.seed));
    }
    (shards == 1 ? op.run_1shard_s : op.run_2shard_s) += host_now() - r0;
    pt.outputs.emplace_back("completed", text(res.completed));
    pt.outputs.emplace_back("bytes_expected", text(res.bytes_expected));
    pt.outputs.emplace_back("bytes_consumed", text(res.bytes_consumed));
    pt.outputs.emplace_back("finished_at_ps", text(res.finished_at));
    if (scenario == core::fleet::Scenario::kRpcChurn) {
      pt.outputs.emplace_back("rpc_opened", text(res.rpc.opened));
      pt.outputs.emplace_back("rpc_completed", text(res.rpc.completed));
      pt.outputs.emplace_back("rpc_refused", text(res.rpc.refused));
      pt.outputs.emplace_back("rpc_aborted", text(res.rpc.aborted));
      pt.outputs.emplace_back("rpc_fct_sum_ps", text(res.rpc.fct_sum));
      pt.outputs.emplace_back("rpc_fct_max_ps", text(res.rpc.fct_max));
    }
    if (!res.completed) pt.problem = "scenario did not complete";
    finish_point(fabric->testbed(), ctx, op, pt, /*quiescent=*/true,
                 scenario == core::fleet::Scenario::kRpcChurn ? &res.rpc
                                                              : nullptr);
  }
  // fleet::run opens its connections inside the run call, so fabric set-up
  // times establishment on one extra cross-rack connection instead, opened
  // after the scenario's outputs were read so it cannot perturb them.
  {
    Timed t(*ctx.tracer, op.phases, "core.establish", "establish");
    core::Testbed& tb = fabric->testbed();
    core::Host& from = fabric->host(0, 0);
    core::Host& to =
        fabric->host(fabric->racks() - 1, fabric->hosts_per_rack() - 1);
    const auto conn = tb.open_connection(from, to, from.endpoint_config(),
                                         to.endpoint_config());
    if (!tb.run_until_established(conn) && pt.problem.empty()) {
      pt.problem = "cross-rack connection did not establish";
    }
  }
  if (!ctx.setup_only) op.points.push_back(std::move(pt));
  teardown(ctx, op, fabric);
}

Op fabric_mix(Context& ctx) {
  const double w0 = host_now();
  Op op;
  for (const std::size_t shards : kShardCounts) {
    for (const auto scenario : kScenarios) {
      fabric_point(ctx, op, scenario, shards);
    }
  }
  // Shard invariance: every scenario's outputs at 2 shards must equal its
  // outputs at 1 shard, fingerprint included.
  const std::size_t n = std::size(kScenarios);
  for (std::size_t i = 0; i + n < op.points.size(); ++i) {
    Point& two = op.points[i + n];
    if (two.outputs != op.points[i].outputs && two.problem.empty()) {
      two.problem = "outputs differ between 1 and 2 shards";
    }
  }
  op.wall_s = host_now() - w0;
  return op;
}

}  // namespace

Workload find_workload(const std::string& name) {
  if (name == "wan_record") return {wan_record, false};
  if (name == "wan_overshoot") return {wan_overshoot, false};
  if (name == "lan_ladder") return {lan_ladder, false};
  if (name == "fabric_mix") return {fabric_mix, true};
  return {};
}

}  // namespace simbench
