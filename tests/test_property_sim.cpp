// Randomized end-to-end property tests: random expander topologies and
// random workloads through the full packet stack, asserting the invariants
// that must hold regardless of configuration:
//   - every flow completes and the receiver holds exactly `size` bytes;
//   - no out-of-order buffer leaks;
//   - delivered payload accounts for every byte (retransmissions only add);
//   - FCT is positive and at least the serialization+propagation floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/pdes/runner.hpp"
#include "topo/jellyfish.hpp"
#include "workload/flow_size.hpp"

namespace flexnets {
namespace {

struct PropertyCase {
  std::uint64_t seed;
  routing::RoutingMode mode;
  // Explicit, zeroed padding: gtest prints a case as its raw bytes and
  // CTest's test discovery appends that printout to each test's name, so
  // uninitialized padding made a name change from build to build. (A
  // PrintTo would also fix that, but rename all twelve cases.)
  std::int32_t padding = 0;
};

class PacketStackProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(PacketStackProperties, InvariantsHoldOnRandomInstances) {
  const auto& p = GetParam();
  Rng rng(p.seed);

  // Random topology: 12-32 switches, degree 3-6, 2-4 servers each.
  const int n = 12 + static_cast<int>(rng.next_u64(21));
  const int deg = 3 + static_cast<int>(rng.next_u64(4));
  const int srv = 2 + static_cast<int>(rng.next_u64(3));
  const auto t = topo::jellyfish(
      n % 2 == 0 || deg % 2 == 0 ? n : n + 1, deg, srv, p.seed);

  sim::NetworkConfig cfg;
  cfg.routing.mode = p.mode;
  cfg.routing.ksp_k = 3;
  cfg.seed = p.seed;
  sim::PacketNetwork net(t, cfg);

  // Random workload: 30-80 flows of 1 KB .. 1 MB.
  const int servers = t.num_servers();
  std::vector<workload::FlowSpec> flows;
  const int count = 30 + static_cast<int>(rng.next_u64(51));
  for (int i = 0; i < count; ++i) {
    int src;
    int dst;
    do {
      src = static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(servers)));
      dst = static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(servers)));
    } while (src == dst);
    flows.push_back({static_cast<TimeNs>(rng.next_u64(5 * kMillisecond)),
                     src, dst,
                     1000 + static_cast<Bytes>(rng.next_u64(1'000'000))});
  }

  net.run(flows);

  for (std::size_t i = 0; i < net.engine().num_flows(); ++i) {
    const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
    ASSERT_TRUE(f.completed) << "flow " << i << " incomplete (seed "
                             << p.seed << ")";
    EXPECT_TRUE(f.sender_done);
    EXPECT_EQ(f.rcv_nxt, f.size);
    EXPECT_TRUE(f.ooo.empty());
    EXPECT_GT(f.completion_time, f.start_time);
    // Data packets sent cover the flow at least once (retransmits only add).
    const auto min_packets =
        static_cast<std::uint64_t>((f.size + 1439) / 1440);
    EXPECT_GE(f.data_packets_sent, min_packets);
    // FCT floor: size must at least serialize once onto a 10G access link.
    EXPECT_GE(f.completion_time - f.start_time,
              serialization_time(f.size, 10 * kGbps));
  }
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  const routing::RoutingMode modes[] = {
      routing::RoutingMode::kEcmp, routing::RoutingMode::kVlb,
      routing::RoutingMode::kHyb, routing::RoutingMode::kHybEcn,
      routing::RoutingMode::kKsp, routing::RoutingMode::kSpray};
  std::uint64_t seed = 1000;
  for (const auto m : modes) {
    cases.push_back({seed++, m});
    cases.push_back({seed++, m});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  static const char* const names[] = {"ecmp",   "vlb", "hyb",
                                      "hybecn", "ksp", "spray"};
  return std::string(names[static_cast<int>(info.param.mode)]) + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PacketStackProperties,
                         ::testing::ValuesIn(make_cases()), case_name);

// ---------------------------------------------------------------------------
// Stable-key tie-break properties. The parallel engine's determinism proof
// rests on the dispatch order over simultaneous events being *total* (every
// pair of keyed events compares the same way everywhere) and *stable*
// (independent of the order schedule() calls raced into the queue). We
// check both directly on EventQueue with randomized keyed event sets.

TEST(EventKeyTieBreak, OrderIsTotalAndInsertionIndependent) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    Rng rng(seed);
    // Random events with colliding times/depths/owners but unique oseq, so
    // the stable key -- never the insertion seq -- decides every tie.
    std::vector<sim::Event> events;
    const int n = 200 + static_cast<int>(rng.next_u64(200));
    for (int i = 0; i < n; ++i) {
      sim::Event e;
      e.time = static_cast<TimeNs>(rng.next_u64(8));  // dense ties
      e.depth = static_cast<std::int32_t>(rng.next_u64(3));
      e.key.owner = rng.next_u64(4) == 0 ? sim::owner::kFlowStartRoot
                                         : sim::owner::link(static_cast<int>(
                                               rng.next_u64(5)));
      e.key.oseq = static_cast<std::uint64_t>(i);
      e.type = sim::EventType::kFlowStart;
      e.a = i;
      events.push_back(e);
    }

    auto drain = [](sim::EventQueue& q) {
      std::vector<sim::Event> out;
      while (!q.empty()) out.push_back(q.pop());
      return out;
    };
    sim::EventQueue q1;
    for (const auto& e : events) q1.push(e);
    auto shuffled = events;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_u64(i)]);
    }
    sim::EventQueue q2;
    for (const auto& e : shuffled) q2.push(e);

    const auto s1 = drain(q1);
    const auto s2 = drain(q2);
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
      // Same event at every position regardless of insertion order...
      EXPECT_EQ(s1[i].a, s2[i].a) << "position " << i << " seed " << seed;
      if (i > 0) {
        // ...and the stream is strictly increasing under the stable key
        // alone (totality: exactly one of before(x,y) / before(y,x)).
        EXPECT_TRUE(sim::EventQueue::before(s1[i - 1], s1[i]));
        EXPECT_FALSE(sim::EventQueue::before(s1[i], s1[i - 1]));
      }
    }
  }
}

// Interleaved differential checks of the queue itself: seeded streams mix
// push, pop, pop_into and top() against a reference vector whose minimum
// under EventQueue::before is removed on each pop. Streams carry keyed
// and keyless events, every EventType, and a distinct payload on each
// arrival; drain-and-refill cycles make later arrivals reuse freed
// packet-slab slots. Pushes never precede the last pop (as in a
// simulation), so the audited pop-order check stays armed.

void expect_same_packet(const sim::Packet& got, const sim::Packet& want,
                        const std::string& where) {
  EXPECT_EQ(got.flow_id, want.flow_id) << where;
  EXPECT_EQ(got.dst_tor, want.dst_tor) << where;
  EXPECT_EQ(got.via_tor, want.via_tor) << where;
  EXPECT_EQ(got.dst_host, want.dst_host) << where;
  EXPECT_EQ(got.flowlet, want.flowlet) << where;
  EXPECT_EQ(got.wire_size, want.wire_size) << where;
  EXPECT_EQ(got.seq, want.seq) << where;
  EXPECT_EQ(got.payload, want.payload) << where;
  EXPECT_EQ(got.ack_no, want.ack_no) << where;
  EXPECT_EQ(got.is_ack, want.is_ack) << where;
  EXPECT_EQ(got.ecn_ce, want.ecn_ce) << where;
  EXPECT_EQ(got.ecn_echo, want.ecn_echo) << where;
  EXPECT_EQ(got.sent_at, want.sent_at) << where;
  EXPECT_EQ(got.src_route, want.src_route) << where;
  EXPECT_EQ(got.src_route_len, want.src_route_len) << where;
  EXPECT_EQ(got.src_route_pos, want.src_route_pos) << where;
}

void expect_same_event(const sim::Event& got, const sim::Event& want,
                       bool check_packet, const std::string& where) {
  EXPECT_EQ(got.time, want.time) << where;
  EXPECT_EQ(got.depth, want.depth) << where;
  EXPECT_EQ(got.key.owner, want.key.owner) << where;
  EXPECT_EQ(got.key.oseq, want.key.oseq) << where;
  EXPECT_EQ(got.seq, want.seq) << where;
  EXPECT_EQ(got.type, want.type) << where;
  EXPECT_EQ(got.a, want.a) << where;
  EXPECT_EQ(got.b, want.b) << where;
  if (check_packet) expect_same_packet(got.pkt, want.pkt, where);
}

// An EventQueue driven in lockstep with its reference vector.
struct QueueMirror {
  sim::EventQueue q;
  std::vector<sim::Event> ref;
  std::uint64_t pushes = 0;  // mirrors the queue's insertion sequence
  TimeNs now = 0;            // time and depth of the last pop
  std::int32_t now_depth = 0;
  std::size_t arrivals = 0;
  sim::Event reused;  // pop_into target; its packet goes stale

  // Pushes a random event at `time`. An event at the last pop's time
  // gets the next depth, as a handler's zero-delay schedule would.
  void push(Rng& rng, TimeNs time) {
    static constexpr std::uint64_t kOwners[] = {
        sim::owner::kFlowStartRoot, sim::owner::kFaultRoot,
        sim::owner::link(0),        sim::owner::link(3),
        sim::owner::flow_timer(1),  sim::owner::detect(2)};
    sim::Event e;
    e.time = time;
    e.depth = time == now ? now_depth + 1
                          : static_cast<std::int32_t>(rng.next_u64(3));
    if (rng.next_u64(4) != 0) {  // keyed; keyless events tie-break FIFO
      e.key = {kOwners[rng.next_u64(std::size(kOwners))], pushes};
    }
    e.type = static_cast<sim::EventType>(rng.next_u64(7));
    e.a = static_cast<std::int32_t>(rng.next_u64(50));
    e.b = rng.next_u64(1000);
    if (e.type == sim::EventType::kPacketArrive) {
      const auto n = static_cast<std::int32_t>(++arrivals);
      e.pkt.flow_id = n;
      e.pkt.dst_tor = n + 1;
      e.pkt.via_tor = n + 2;
      e.pkt.dst_host = n + 3;
      e.pkt.flowlet = static_cast<std::uint32_t>(n) * 7;
      e.pkt.wire_size = 64 + n;
      e.pkt.seq = Bytes{1000} * n;
      e.pkt.payload = n % 1460;
      e.pkt.ack_no = Bytes{3} * n;
      e.pkt.is_ack = n % 2 == 0;
      e.pkt.ecn_ce = n % 3 == 0;
      e.pkt.ecn_echo = n % 5 == 0;
      e.pkt.sent_at = TimeNs{11} * n;
      for (int h = 0; h < sim::kMaxSourceRouteHops; ++h) {
        e.pkt.src_route[static_cast<std::size_t>(h)] = n * 10 + h;
      }
      e.pkt.src_route_len = static_cast<std::int8_t>(n % 9);
      e.pkt.src_route_pos = static_cast<std::int8_t>(n % 4);
    }
    q.push(e);
    e.seq = pushes++;
    ref.push_back(e);
  }

  [[nodiscard]] std::vector<sim::Event>::iterator want() {
    return std::min_element(ref.begin(), ref.end(),
                            [](const sim::Event& x, const sim::Event& y) {
                              return sim::EventQueue::before(x, y);
                            });
  }

  // Pops through pop(), or pop_into() when `into`, and checks the event.
  void pop(bool into, const std::string& where) {
    const auto w = want();
    if (into) {
      q.pop_into(reused);
      expect_same_event(reused, *w, w->type == sim::EventType::kPacketArrive,
                        where + " pop_into");
    } else {
      expect_same_event(q.pop(), *w, true, where + " pop");
    }
    now = w->time;
    now_depth = w->depth;
    ref.erase(w);
  }

  // Drains, so the next cycle's arrivals refill recycled slots.
  void drain(const std::string& where) {
    while (!ref.empty()) pop(false, where + " drain");
    EXPECT_TRUE(q.empty()) << where;
  }
};

// Dense time and depth ties, all within a few ns of the last pop.
TEST(EventQueueDifferential, InterleavedOpsMatchReference) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {71u, 72u, 73u, 74u}) {
    Rng rng(seed);
    QueueMirror m;
    int op_index = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const int ops = 300 + static_cast<int>(rng.next_u64(300));
      for (int op = 0; op < ops; ++op, ++op_index) {
        const std::string where = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op_index);
        const auto r = rng.next_u64(10);
        if (r < 5 || m.ref.empty()) {
          m.push(rng, m.now + static_cast<TimeNs>(rng.next_u64(4)));
          continue;
        }
        ASSERT_EQ(m.q.size(), m.ref.size()) << where;
        if (r == 9) {
          expect_same_event(m.q.top(), *m.want(), true, where + " top");
          continue;
        }
        m.pop(r >= 8, where);
      }
      m.drain("seed " + std::to_string(seed));
    }
    EXPECT_GT(m.arrivals, 50u) << "seed " << seed;
  }
}

// Times spread over the queue's radix layout: dense ties, near offsets
// (below 2^16 ns), far ones (up to 2^40 ns), and clusters inside one far
// 2^16 ns block. Entries cross block boundaries, wait in the far heap and
// come back out of it while later pushes land in the block just pulled.
TEST(EventQueueDifferential, NearAndFarTimesMatchReference) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {81u, 82u, 83u, 84u}) {
    Rng rng(seed);
    QueueMirror m;
    TimeNs cluster = 0;
    int far_jumps = 0;  // pops at least 2^16 ns after the previous pop
    int op_index = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const int ops = 400 + static_cast<int>(rng.next_u64(400));
      for (int op = 0; op < ops; ++op, ++op_index) {
        const std::string where = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op_index);
        const auto r = rng.next_u64(20);
        if (r < 9 || m.ref.empty()) {
          TimeNs offset = 0;
          switch (rng.next_u64(4)) {
            case 0:
              offset = static_cast<TimeNs>(rng.next_u64(4));
              break;
            case 1:
              offset = static_cast<TimeNs>(rng.next_u64(1u << 16));
              break;
            case 2:
              offset = static_cast<TimeNs>(
                  rng.next_u64(std::uint64_t{1} << (17 + rng.next_u64(24))));
              break;
            default:
              if (cluster <= m.now) {
                cluster = m.now + (TimeNs{1} << (17 + rng.next_u64(8)));
              }
              offset = cluster - m.now +
                       static_cast<TimeNs>(rng.next_u64(256));
          }
          m.push(rng, m.now + offset);
          continue;
        }
        ASSERT_EQ(m.q.size(), m.ref.size()) << where;
        if (r == 19) {
          expect_same_event(m.q.top(), *m.want(), true, where + " top");
          continue;
        }
        const TimeNs before = m.now;
        m.pop(r >= 17, where);
        far_jumps += m.now - before >= (TimeNs{1} << 16);
      }
      m.drain("seed " + std::to_string(seed));
    }
    EXPECT_GT(far_jumps, 100) << "seed " << seed;
  }
}

// The parallel engine's barrier exchange: a queue is peeked (which
// settles it), then receives events below the peeked head but not below
// its last pop.
TEST(EventQueueDifferential, PushesBelowAPeekedHeadMatchReference) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {91u, 92u, 93u, 94u}) {
    Rng rng(seed);
    QueueMirror m;
    int below = 0;  // pushes strictly below the peeked head
    int op_index = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const int ops = 300 + static_cast<int>(rng.next_u64(300));
      for (int op = 0; op < ops; ++op, ++op_index) {
        const std::string where = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op_index);
        const auto r = rng.next_u64(10);
        if (r < 3 || m.ref.empty()) {
          const std::uint64_t span = rng.next_u64(4) == 0 ? 4 : 1u << 17;
          m.push(rng, m.now + static_cast<TimeNs>(rng.next_u64(span)));
          continue;
        }
        ASSERT_EQ(m.q.size(), m.ref.size()) << where;
        if (r < 6) {
          TimeNs head = 0;
          if (r < 5) {
            head = m.q.top_time();
            EXPECT_EQ(head, m.want()->time) << where << " top_time";
          } else {
            const sim::Event e = m.q.top();
            expect_same_event(e, *m.want(), true, where + " top");
            head = e.time;
          }
          const int n = 1 + static_cast<int>(rng.next_u64(3));
          for (int i = 0; i < n; ++i) {
            const TimeNs t = m.now + static_cast<TimeNs>(rng.next_u64(
                                         static_cast<std::uint64_t>(
                                             head - m.now + 1)));
            below += t < head;
            m.push(rng, t);
          }
          continue;
        }
        m.pop(r >= 8, where);
      }
      m.drain("seed " + std::to_string(seed));
    }
    EXPECT_GT(below, 20) << "seed " << seed;
  }
}

// The timing wheel's window (sim/event_queue.hpp): an event less than this
// far past the last settle is filed into the wheel, one at least this far
// into the far heap.
constexpr TimeNs kWheelWindow = 4096;

// Offsets of 4,095, 4,096 and 4,097 ns straddle the wheel's edge. They are
// taken from the last pop, or from a peeked head (a peek settles the queue
// to its head), and mixed with dense ties.
TEST(EventQueueDifferential, WindowEdgeOffsetsMatchReference) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {101u, 102u, 103u, 104u}) {
    Rng rng(seed);
    QueueMirror m;
    int from_head = 0;  // edge pushes measured from a peeked head
    int op_index = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const int ops = 300 + static_cast<int>(rng.next_u64(300));
      for (int op = 0; op < ops; ++op, ++op_index) {
        const std::string where = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op_index);
        const auto r = rng.next_u64(10);
        if (r < 5 || m.ref.empty()) {
          TimeNs base = m.now;
          if (!m.ref.empty() && rng.next_u64(2) == 0) {
            base = m.q.top_time();
            EXPECT_EQ(base, m.want()->time) << where << " top_time";
            ++from_head;
          }
          const TimeNs offset =
              rng.next_u64(3) == 0
                  ? static_cast<TimeNs>(rng.next_u64(4))
                  : kWheelWindow - 1 + static_cast<TimeNs>(rng.next_u64(3));
          m.push(rng, base + offset);
          continue;
        }
        ASSERT_EQ(m.q.size(), m.ref.size()) << where;
        if (r == 9) {
          expect_same_event(m.q.top(), *m.want(), true, where + " top");
          continue;
        }
        m.pop(r >= 8, where);
      }
      m.drain("seed " + std::to_string(seed));
    }
    EXPECT_GT(from_head, 100) << "seed " << seed;
  }
}

// Times just below and just above a multiple of 4,096 ns, whose slot
// indices wrap from 4,095 to 0, mixed with offsets across the whole
// window: the next occupied slot is then often below the last settle's.
TEST(EventQueueDifferential, SlotIndexWrapsMatchReference) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {111u, 112u, 113u, 114u}) {
    Rng rng(seed);
    QueueMirror m;
    int wraps = 0;  // pops whose slot index is below the previous pop's
    int op_index = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const int ops = 400 + static_cast<int>(rng.next_u64(400));
      for (int op = 0; op < ops; ++op, ++op_index) {
        const std::string where = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op_index);
        const auto r = rng.next_u64(10);
        if (r < 5 || m.ref.empty()) {
          const TimeNs edge =
              (m.now / kWheelWindow + 1 +
               static_cast<TimeNs>(rng.next_u64(2))) * kWheelWindow;
          TimeNs t = 0;
          switch (rng.next_u64(3)) {
            case 0:
              t = edge - 1 - static_cast<TimeNs>(rng.next_u64(4));
              break;
            case 1:
              t = edge + static_cast<TimeNs>(rng.next_u64(4));
              break;
            default:
              t = m.now + 1 +
                  static_cast<TimeNs>(rng.next_u64(kWheelWindow - 1));
          }
          m.push(rng, std::max(t, m.now));
          continue;
        }
        ASSERT_EQ(m.q.size(), m.ref.size()) << where;
        if (r == 9) {
          expect_same_event(m.q.top(), *m.want(), true, where + " top");
          continue;
        }
        const TimeNs before = m.now;
        m.pop(r >= 8, where);
        wraps += m.now % kWheelWindow < before % kWheelWindow;
      }
      m.drain("seed " + std::to_string(seed));
    }
    EXPECT_GT(wraps, 30) << "seed " << seed;
  }
}

// A target time first pushed more than a window ahead waits in the far
// heap; once pops bring it within the window, later pushes at the same
// time join the wheel. Depth, owner or oseq -- or, between keyless
// events, the insertion seq -- must then order the far heap's entries
// against the wheel's.
TEST(EventQueueDifferential, FarAndWheelTiesMatchReference) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {121u, 122u, 123u, 124u}) {
    Rng rng(seed);
    QueueMirror m;
    TimeNs target = 0;
    bool early = false;  // the target got a push a window or more ahead
    bool late = false;   // ... and one less than a window ahead
    int mixed = 0;       // targets that got both
    int op_index = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
      const int ops = 400 + static_cast<int>(rng.next_u64(400));
      for (int op = 0; op < ops; ++op, ++op_index) {
        const std::string where = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op_index);
        const auto r = rng.next_u64(10);
        if (r < 5 || m.ref.empty()) {
          if (target <= m.now) {
            mixed += early && late;
            target = m.now + kWheelWindow +
                     static_cast<TimeNs>(rng.next_u64(2 * kWheelWindow));
            early = late = false;
          }
          // At the target, or a stepping stone before it.
          if (rng.next_u64(2) == 0) {
            (target - m.now >= kWheelWindow ? early : late) = true;
            m.push(rng, target);
          } else {
            m.push(rng, m.now + static_cast<TimeNs>(rng.next_u64(
                                    static_cast<std::uint64_t>(
                                        target - m.now))));
          }
          continue;
        }
        ASSERT_EQ(m.q.size(), m.ref.size()) << where;
        if (r == 9) {
          expect_same_event(m.q.top(), *m.want(), true, where + " top");
          continue;
        }
        m.pop(r >= 8, where);
      }
      m.drain("seed " + std::to_string(seed));
    }
    EXPECT_GT(mixed, 10) << "seed " << seed;
  }
}

// Each cycle drains the queue, then resumes more than a window after the
// last pop -- sometimes a whole number of windows, so the first slot
// index repeats the stale settle time's -- with a burst that spans two
// windows, followed by interleaved pushes and pops.
TEST(EventQueueDifferential, DrainThenJumpPastTheWindowMatchesReference) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {131u, 132u, 133u, 134u}) {
    Rng rng(seed);
    QueueMirror m;
    int op_index = 0;
    for (int cycle = 0; cycle < 16; ++cycle) {
      const auto windows = static_cast<TimeNs>(1 + rng.next_u64(8));
      const TimeNs resume =
          m.now + windows * kWheelWindow +
          (rng.next_u64(2) == 0 ? 0
                                : 1 + static_cast<TimeNs>(
                                          rng.next_u64(kWheelWindow - 1)));
      const int burst = 1 + static_cast<int>(rng.next_u64(24));
      for (int i = 0; i < burst; ++i) {
        m.push(rng, resume + static_cast<TimeNs>(
                                 rng.next_u64(2 * kWheelWindow)));
      }
      const int ops = 100 + static_cast<int>(rng.next_u64(100));
      for (int op = 0; op < ops; ++op, ++op_index) {
        const std::string where = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op_index);
        const auto r = rng.next_u64(10);
        if (r < 4 || m.ref.empty()) {
          const std::uint64_t span =
              rng.next_u64(2) == 0 ? 4 : 2 * kWheelWindow;
          m.push(rng, m.now + static_cast<TimeNs>(rng.next_u64(span)));
          continue;
        }
        ASSERT_EQ(m.q.size(), m.ref.size()) << where;
        if (r == 9) {
          expect_same_event(m.q.top(), *m.want(), true, where + " top");
          continue;
        }
        m.pop(r >= 8, where);
      }
      m.drain("seed " + std::to_string(seed) + " cycle " +
              std::to_string(cycle));
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch-correctness property: on random topologies, workloads, thread
// counts, and partitions, the PDES engine must (a) never dispatch an event
// before its epoch's horizon -- enforced by FLEXNETS_CHECKs inside
// sim/pdes/runner.cpp that this test arms via AuditScope and would surface
// as CheckFailure -- and (b) reproduce the serial digest exactly.

TEST(PdesEpochProperties, RandomInstancesMatchSerialUnderAudit) {
  const CheckPolicyScope policy(CheckPolicy::kThrow);
  const AuditScope audit(true);
  for (const std::uint64_t seed : {501u, 502u, 503u, 504u, 505u}) {
    Rng rng(seed);
    const int n = 10 + static_cast<int>(rng.next_u64(15));
    const int deg = 3 + static_cast<int>(rng.next_u64(3));
    const auto t = topo::jellyfish(
        n % 2 == 0 || deg % 2 == 0 ? n : n + 1, deg, 2, seed);

    sim::NetworkConfig cfg;
    cfg.routing.mode = routing::RoutingMode::kHyb;
    cfg.seed = seed;

    const int servers = t.num_servers();
    std::vector<workload::FlowSpec> flows;
    const int count = 20 + static_cast<int>(rng.next_u64(30));
    for (int i = 0; i < count; ++i) {
      const int src =
          static_cast<int>(rng.next_u64(static_cast<std::uint64_t>(servers)));
      const int dst = (src + 1 +
                       static_cast<int>(rng.next_u64(
                           static_cast<std::uint64_t>(servers - 1)))) %
                      servers;
      flows.push_back({static_cast<TimeNs>(rng.next_u64(2 * kMillisecond)),
                       src, dst,
                       1000 + static_cast<Bytes>(rng.next_u64(300'000))});
    }

    sim::PacketNetwork serial_net(t, cfg);
    serial_net.run(flows);
    const auto want = serial_net.simulator().event_digest();
    ASSERT_NE(want, Digest{}.value());

    sim::PacketNetwork net(t, cfg);
    sim::pdes::RunnerConfig pcfg;
    pcfg.threads = 2 + static_cast<int>(rng.next_u64(3));
    pcfg.num_lps = 2 + static_cast<int>(rng.next_u64(4));
    pcfg.partition_seed = rng.next_u64(std::uint64_t{1} << 32);
    const auto stats = sim::pdes::run_parallel(net, flows, pcfg);
    EXPECT_EQ(stats.event_digest, want) << "seed " << seed;
    EXPECT_EQ(stats.events, serial_net.simulator().events_processed());
  }
}

}  // namespace
}  // namespace flexnets
