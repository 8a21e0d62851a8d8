// Micro-benchmarks for the discrete-event core: event queue throughput,
// link enqueue/dequeue cycles, and whole-simulation packets/second
// (google-benchmark).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "topo/xpander.hpp"
#include "workload/flow_size.hpp"

namespace {

using namespace flexnets;

// The hold model: a fixed population of pending events, where each op
// pops the head and pushes one event a seeded offset after it, as a packet
// run does. Seven offsets in eight are link-scale (up to 2 us of
// serialization plus propagation) and are filed into the timing wheel;
// the rest are RTO-scale (200 us to 1 ms, a retransmission timer) and wait
// in the far heap.
TimeNs hold_offset(Rng& rng) {
  return rng.next_u64(8) == 0
             ? static_cast<TimeNs>(200'000 + rng.next_u64(800'001))
             : static_cast<TimeNs>(1 + rng.next_u64(2'000));
}

// n events at ascending seeded link-scale gaps. Past the first few, which
// the small-queue rule keeps in bucket 0, most lie beyond the wheel's
// 4,096 ns window and start in the far heap; the hold loop then mixes
// them with its own wheel and far-heap pushes, like a running
// simulation's.
void hold_prefill(sim::EventQueue& q, std::size_t n, Rng& rng) {
  q.reserve(n);
  sim::Event e;
  for (std::size_t i = 0; i < n; ++i) {
    e.time += static_cast<TimeNs>(1 + rng.next_u64(2'000));
    q.push(e);
  }
}

void hold_op(sim::EventQueue& q, sim::Event& e, Rng& rng) {
  q.pop_into(e);
  e.time += hold_offset(rng);
  q.push(e);
}

void BM_EventQueueHold(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(1);
  hold_prefill(q, static_cast<std::size_t>(state.range(0)), rng);
  sim::Event e;
  for (auto _ : state) hold_op(q, e, rng);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("items = pop + push pairs");
}
// 12288 is the packet run's peak live population (the 216-switch
// Xpander; see the reserve comment in sim/network.cpp).
BENCHMARK(BM_EventQueueHold)->Arg(1024)->Arg(12288)->Arg(65536);

void BM_LinkTransmitCycle(benchmark::State& state) {
  sim::Simulator sim;
  sim::LinkConfig cfg;
  sim::Link link(0, 0, 1, cfg);
  sim.set_handler([&](const sim::Event& e) {
    if (e.type == sim::EventType::kLinkDequeue) link.on_dequeue(sim);
  });
  sim::Packet p;
  p.wire_size = 1500;
  std::int64_t packets = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) link.enqueue(sim, p);
    sim.run();
    packets += 64;
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_LinkTransmitCycle);

core::PacketResult run_e2e_packet_sim(int threads) {
  // A small Xpander under moderate uniform load. threads = 1 runs the
  // serial engine; > 1 the conservative PDES engine (sim/pdes/) -- same
  // results either way, so the cases differ only in wall clock.
  const auto x = topo::xpander(4, 6, 3, 1);  // 30 switches, 90 servers
  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pfabric_web_search();
  core::PacketSimOptions opts;
  opts.arrival_rate = 100.0 * x.topo.num_servers();
  opts.window_begin = 1 * kMillisecond;
  opts.window_end = 6 * kMillisecond;
  opts.arrival_tail = 2 * kMillisecond;
  opts.net.routing.mode = routing::RoutingMode::kHyb;
  opts.threads = threads;
  return core::run_packet_experiment(x.topo, *pairs, *sizes, opts);
}

void BM_EndToEndPacketSim(benchmark::State& state) {
  // Reports simulator events per second; the arg is the engine's thread
  // count (1 = serial).
  const int threads = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    const auto r = run_e2e_packet_sim(threads);
    events += static_cast<std::int64_t>(r.events);
  }
  state.SetItemsProcessed(events);
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndPacketSim)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

}  // namespace
