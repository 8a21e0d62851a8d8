// Event queue, simulator clock, and link/queue semantics.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace flexnets::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  Event a;
  a.time = 10;
  a.a = 1;
  Event b;
  b.time = 5;
  b.a = 2;
  Event c;
  c.time = 10;
  c.a = 3;
  q.push(a);
  q.push(b);
  q.push(c);
  EXPECT_EQ(q.pop().a, 2);
  EXPECT_EQ(q.pop().a, 1);  // inserted before c at the same time
  EXPECT_EQ(q.pop().a, 3);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, ClockAdvancesMonotonically) {
  Simulator sim;
  std::vector<TimeNs> seen;
  sim.set_handler([&](const Event& e) { seen.push_back(e.time); });
  sim.schedule(30, EventType::kFlowStart, 0);
  sim.schedule(10, EventType::kFlowStart, 1);
  sim.schedule(20, EventType::kFlowStart, 2);
  sim.run();
  EXPECT_EQ(seen, (std::vector<TimeNs>{10, 20, 30}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int count = 0;
  sim.set_handler([&](const Event&) { ++count; });
  sim.schedule(10, EventType::kFlowStart, 0);
  sim.schedule(20, EventType::kFlowStart, 1);
  sim.run(15);
  EXPECT_EQ(count, 1);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, HandlerCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.set_handler([&](const Event& e) {
    ++fired;
    if (e.a < 3) sim.schedule(sim.now() + 5, EventType::kFlowStart, e.a + 1);
  });
  sim.schedule(0, EventType::kFlowStart, 0);
  sim.run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.now(), 15);
}

class LinkTest : public ::testing::Test {
 protected:
  LinkTest() {
    cfg_.rate = 10 * kGbps;
    cfg_.propagation = 100;
    cfg_.queue_capacity = 6000;   // 4 x 1500B packets
    cfg_.ecn_threshold = 3000;    // 2 packets
    link_ = std::make_unique<Link>(0, 0, 1, cfg_);
    sim_.set_handler([this](const Event& e) {
      if (e.type == EventType::kLinkDequeue) {
        link_->on_dequeue(sim_);
      } else if (e.type == EventType::kPacketArrive) {
        arrivals_.push_back({sim_.now(), e.pkt});
      }
    });
  }

  Packet make_packet(Bytes size, int flow = 0) {
    Packet p;
    p.flow_id = flow;
    p.wire_size = size;
    return p;
  }

  LinkConfig cfg_;
  Simulator sim_;
  std::unique_ptr<Link> link_;
  std::vector<std::pair<TimeNs, Packet>> arrivals_;
};

TEST_F(LinkTest, SerializationPlusPropagation) {
  link_->enqueue(sim_, make_packet(1500));
  sim_.run();
  ASSERT_EQ(arrivals_.size(), 1u);
  // 1500B at 10 Gbps = 1200ns + 100ns propagation.
  EXPECT_EQ(arrivals_[0].first, 1300);
}

TEST_F(LinkTest, BackToBackPacketsSpacedBySerialization) {
  link_->enqueue(sim_, make_packet(1500, 1));
  link_->enqueue(sim_, make_packet(1500, 2));
  sim_.run();
  ASSERT_EQ(arrivals_.size(), 2u);
  EXPECT_EQ(arrivals_[1].first - arrivals_[0].first, 1200);
}

TEST_F(LinkTest, EcnMarkAtThreshold) {
  // First packet transmits immediately (not queued). Next two fill the
  // queue to 3000 bytes; the fourth sees occupancy >= threshold -> marked.
  for (int i = 0; i < 4; ++i) link_->enqueue(sim_, make_packet(1500, i));
  sim_.run();
  ASSERT_EQ(arrivals_.size(), 4u);
  EXPECT_FALSE(arrivals_[0].second.ecn_ce);
  EXPECT_FALSE(arrivals_[1].second.ecn_ce);
  EXPECT_FALSE(arrivals_[2].second.ecn_ce);
  EXPECT_TRUE(arrivals_[3].second.ecn_ce);
  EXPECT_EQ(link_->ecn_marks(), 1u);
}

TEST_F(LinkTest, DropTailWhenFull) {
  // 1 transmitting + 4 queued (6000B) fits; the 6th packet drops.
  for (int i = 0; i < 6; ++i) link_->enqueue(sim_, make_packet(1500, i));
  sim_.run();
  EXPECT_EQ(arrivals_.size(), 5u);
  EXPECT_EQ(link_->drops(), 1u);
}

TEST_F(LinkTest, CountersTrackTraffic) {
  for (int i = 0; i < 3; ++i) link_->enqueue(sim_, make_packet(1000, i));
  sim_.run();
  EXPECT_EQ(link_->packets_sent(), 3u);
  EXPECT_EQ(link_->bytes_sent(), 3000);
  EXPECT_EQ(link_->queued_bytes(), 0);
}

TEST_F(LinkTest, FifoOrderPreserved) {
  for (int i = 0; i < 5; ++i) link_->enqueue(sim_, make_packet(500, i));
  sim_.run();
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    EXPECT_EQ(arrivals_[i].second.flow_id, static_cast<int>(i));
  }
}

// The waiting packets live in a ring that starts at four slots and
// doubles. Drive it through a wrap (dequeues move the head forward, then
// enqueues fill past the end), a growth while wrapped, a second growth up
// to drop-tail, and a take_down, checking order, queued bytes and ECN
// marks against hand-computed values (500 B packets take 400 ns each).
TEST_F(LinkTest, RingKeepsFifoAcrossWrapAndGrowth) {
  for (int i = 0; i < 5; ++i) link_->enqueue(sim_, make_packet(500, i));
  EXPECT_EQ(link_->queued_bytes(), 2000);  // 0 transmits, 1-4 fill 4 slots
  sim_.run(800);                           // 1 and 2 start transmitting
  EXPECT_EQ(link_->queued_bytes(), 1000);
  link_->enqueue(sim_, make_packet(500, 5));  // wraps to slot 0
  link_->enqueue(sim_, make_packet(500, 6));
  link_->enqueue(sim_, make_packet(500, 7));  // full while wrapped: grows
  EXPECT_EQ(link_->queued_bytes(), 2500);
  link_->enqueue(sim_, make_packet(500, 8));  // 2500 B ahead: unmarked
  link_->enqueue(sim_, make_packet(500, 9));  // 3000 B ahead: marked
  EXPECT_EQ(link_->queued_bytes(), 3500);
  sim_.run();
  EXPECT_EQ(link_->queued_bytes(), 0);
  ASSERT_EQ(arrivals_.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arrivals_[i].second.flow_id, i);
    EXPECT_EQ(arrivals_[i].second.ecn_ce, i == 9) << "packet " << i;
  }

  // Idle again: 10 transmits, 11-22 wait (6000 B, growing 8 -> 16
  // slots), 23 finds the queue full. 17-22 see >= 3000 B ahead.
  arrivals_.clear();
  for (int i = 10; i < 24; ++i) link_->enqueue(sim_, make_packet(500, i));
  EXPECT_EQ(link_->queued_bytes(), 6000);
  EXPECT_EQ(link_->drops(), 1u);
  sim_.run();
  ASSERT_EQ(arrivals_.size(), 13u);
  for (int i = 0; i < 13; ++i) {
    EXPECT_EQ(arrivals_[i].second.flow_id, 10 + i);
    EXPECT_EQ(arrivals_[i].second.ecn_ce, 10 + i >= 17) << "packet " << i;
  }
  EXPECT_EQ(link_->ecn_marks(), 7u);

  // take_down expels exactly the waiting packets; the ring is reused.
  for (int i = 0; i < 4; ++i) link_->enqueue(sim_, make_packet(500, i));
  link_->take_down();
  EXPECT_EQ(link_->expelled(), 3u);
  EXPECT_EQ(link_->queued_bytes(), 0);
  link_->bring_up();
  sim_.run();
  arrivals_.clear();
  for (int i = 0; i < 3; ++i) link_->enqueue(sim_, make_packet(500, 30 + i));
  sim_.run();
  ASSERT_EQ(arrivals_.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(arrivals_[i].second.flow_id, 30 + i);
  EXPECT_EQ(link_->queued_bytes(), 0);
}

TEST_F(LinkTest, SmallPacketFastSerialization) {
  link_->enqueue(sim_, make_packet(64));
  sim_.run();
  // 64B at 10Gbps = 51.2 -> 52ns (rounded up) + 100 propagation.
  EXPECT_EQ(arrivals_[0].first, 152);
}

}  // namespace
}  // namespace flexnets::sim
