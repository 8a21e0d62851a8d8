// DCTCP engine unit tests against a mock environment: a perfect (or
// configurable lossy/marking) pipe with fixed one-way delay, driven by the
// real simulator clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "routing/strategy.hpp"
#include "sim/simulator.hpp"
#include "transport/dctcp.hpp"

namespace flexnets::transport {
namespace {

class PipeEnv final : public TransportEnv {
 public:
  explicit PipeEnv(TimeNs one_way_delay) : delay_(one_way_delay) {
    sim_.set_handler([this](const sim::Event& e) { handle(e); });
  }

  void attach(DctcpEngine* engine) { engine_ = engine; }

  [[nodiscard]] TimeNs now() const override { return sim_.now(); }

  void inject(std::int32_t, const sim::Packet& sent) override {
    ++injected_;
    sim::Packet pkt = sent;
    if (!pkt.is_ack) {
      ++data_packets_;
      if (mark_data_) pkt.ecn_ce = true;
      if (drop_filter_ && drop_filter_(pkt)) {
        ++dropped_;
        return;
      }
    }
    sim_.schedule_packet(sim_.now() + delay_, 0, pkt);
  }

  void set_timer(std::int32_t flow, TimeNs at, std::uint64_t gen) override {
    sim_.schedule(at, sim::EventType::kTransportTimer, flow, gen);
  }

  void flow_completed(std::int32_t flow, TimeNs when) override {
    completed_flow_ = flow;
    completed_at_ = when;
  }

  void run() { sim_.run(); }
  void run_until(TimeNs until) { sim_.run(until); }

  void mark_all_data(bool b) { mark_data_ = b; }
  void set_drop_filter(std::function<bool(const sim::Packet&)> f) {
    drop_filter_ = std::move(f);
  }

  std::int32_t completed_flow_ = -1;
  TimeNs completed_at_ = -1;
  int injected_ = 0;
  int data_packets_ = 0;
  int dropped_ = 0;

 private:
  void handle(const sim::Event& e) {
    if (e.type == sim::EventType::kPacketArrive) {
      engine_->on_packet(e.pkt);
    } else if (e.type == sim::EventType::kTransportTimer) {
      engine_->on_timer(e.a, e.b);
    }
  }

  sim::Simulator sim_;
  DctcpEngine* engine_ = nullptr;
  TimeNs delay_;
  bool mark_data_ = false;
  std::function<bool(const sim::Packet&)> drop_filter_;
};

class DctcpTest : public ::testing::Test {
 protected:
  DctcpTest()
      : env_(50 * kMicrosecond),
        router_({routing::RoutingMode::kEcmp}, {0, 1, 2}, 1),
        engine_(DctcpConfig{}, env_, router_) {
    env_.attach(&engine_);
  }

  std::int32_t open(Bytes size) {
    return engine_.open_flow(/*src_host=*/10, /*dst_host=*/11, 0, 1, size);
  }

  PipeEnv env_;
  routing::SourceRouter router_;
  DctcpEngine engine_;
};

TEST_F(DctcpTest, SingleSegmentFlowCompletes) {
  const auto id = open(1000);
  engine_.start(id);
  env_.run();
  EXPECT_EQ(env_.completed_flow_, id);
  const auto& f = engine_.flow(id);
  EXPECT_TRUE(f.completed);
  EXPECT_TRUE(f.sender_done);
  EXPECT_EQ(f.rcv_nxt, 1000);
  // One RTT: 50us data + 50us ack; completion at data arrival = 50us.
  EXPECT_EQ(env_.completed_at_, 50 * kMicrosecond);
  EXPECT_EQ(f.data_packets_sent, 1u);
}

TEST_F(DctcpTest, LargeFlowCompletesWithSlowStartGrowth) {
  const auto id = open(1 * kMB);
  engine_.start(id);
  env_.run();
  const auto& f = engine_.flow(id);
  EXPECT_TRUE(f.completed);
  EXPECT_EQ(f.snd_una, 1 * kMB);
  // cwnd should have grown beyond the initial 10 segments.
  EXPECT_GT(f.cwnd, 10.0 * 1440 * 2);
  EXPECT_EQ(f.retransmits, 0u);
  EXPECT_EQ(f.timeouts, 0u);
  // ~695 full segments for 1 MB.
  EXPECT_EQ(f.data_packets_sent, static_cast<std::uint64_t>((1 * kMB + 1439) / 1440));
}

TEST_F(DctcpTest, InitialWindowIsTenSegments) {
  const auto id = open(100 * kKB);
  engine_.start(id);
  // Before any event runs, exactly init_cwnd worth of data is in flight.
  EXPECT_EQ(engine_.flow(id).snd_nxt, 10 * 1440);
}

TEST_F(DctcpTest, EcnMarksDriveAlphaUpAndCwndDown) {
  env_.mark_all_data(true);
  const auto id = open(500 * kKB);
  engine_.start(id);
  env_.run();
  const auto& f = engine_.flow(id);
  EXPECT_TRUE(f.completed);
  // Every packet marked -> alpha converges toward 1.
  EXPECT_GT(f.alpha, 0.5);
  EXPECT_GT(f.ecn_echoes, 0u);
  // cwnd stays small under persistent marking.
  EXPECT_LT(f.cwnd, 40.0 * 1440);
}

TEST_F(DctcpTest, NoMarksKeepAlphaZero) {
  const auto id = open(500 * kKB);
  engine_.start(id);
  env_.run();
  EXPECT_DOUBLE_EQ(engine_.flow(id).alpha, 0.0);
}

TEST_F(DctcpTest, FastRetransmitOnThreeDupacks) {
  // Drop exactly the 3rd data packet's first transmission.
  int data_seen = 0;
  env_.set_drop_filter([&](const sim::Packet& p) {
    ++data_seen;
    return data_seen == 3 && p.seq == 2 * 1440;
  });
  const auto id = open(100 * kKB);
  engine_.start(id);
  env_.run();
  const auto& f = engine_.flow(id);
  EXPECT_TRUE(f.completed);
  EXPECT_GE(f.retransmits, 1u);
  EXPECT_EQ(f.timeouts, 0u);  // recovered without an RTO
}

TEST_F(DctcpTest, TimeoutRecoversFromTailLoss) {
  // Drop the very last data packet once; no dupacks possible -> RTO.
  const Bytes size = 10 * 1440;
  bool dropped_once = false;
  env_.set_drop_filter([&](const sim::Packet& p) {
    if (!dropped_once && p.seq == size - 1440) {
      dropped_once = true;
      return true;
    }
    return false;
  });
  const auto id = open(size);
  engine_.start(id);
  env_.run();
  const auto& f = engine_.flow(id);
  EXPECT_TRUE(f.completed);
  EXPECT_GE(f.timeouts, 1u);
}

TEST_F(DctcpTest, ReceiverReordersOutOfOrderSegments) {
  // Delay (drop + retransmit) an early packet; receiver must buffer later
  // segments and still deliver exactly `size` bytes.
  int count = 0;
  env_.set_drop_filter([&](const sim::Packet& p) {
    ++count;
    return p.seq == 1440 && count < 5;
  });
  const auto id = open(20 * 1440);
  engine_.start(id);
  env_.run();
  const auto& f = engine_.flow(id);
  EXPECT_TRUE(f.completed);
  EXPECT_EQ(f.rcv_nxt, 20 * 1440);
  EXPECT_TRUE(f.ooo.empty());
}

TEST_F(DctcpTest, RttEstimatorTracksPipeDelay) {
  const auto id = open(200 * kKB);
  engine_.start(id);
  env_.run();
  const auto& f = engine_.flow(id);
  // RTT = 100us for the perfect pipe.
  EXPECT_NEAR(f.srtt, 100e3, 5e3);
  EXPECT_EQ(f.rto, DctcpConfig{}.min_rto);  // tiny rttvar -> clamped
}

TEST_F(DctcpTest, ThroughputBoundedByWindowOverRtt) {
  // With a 100us RTT and no marking, a 2 MB flow's rate is limited by
  // max_cwnd/RTT; mostly a sanity check that the clock accounting is right.
  const auto id = open(2 * kMB);
  engine_.start(id);
  env_.run();
  const auto& f = engine_.flow(id);
  const double fct_s = to_seconds(f.completion_time - f.start_time);
  const double gbps = 2.0 * kMB * 8.0 / fct_s / 1e9;
  EXPECT_GT(gbps, 1.0);
  EXPECT_LT(gbps, 1000.0);
}

TEST_F(DctcpTest, AlphaDecaysAfterCongestionClears) {
  // Mark everything for the first half of the flow, then stop: alpha must
  // decay geometrically (factor 1-g per window) once marks cease.
  env_.mark_all_data(true);
  const auto id = open(500 * kKB);
  engine_.start(id);
  // Run in slices; the PipeEnv applies marking at injection time, so
  // toggle it off once the first 100 KB are through. With every packet
  // marked, progress is ~1 MSS per RTT (100us), so allow generous time.
  double alpha_peak = 0.0;
  for (int slice = 0; slice < 5000 && !engine_.flow(id).completed; ++slice) {
    if (engine_.flow(id).snd_una > 100 * kKB) env_.mark_all_data(false);
    alpha_peak = std::max(alpha_peak, engine_.flow(id).alpha);
    env_.run_until(env_.now() + 200 * kMicrosecond);
  }
  env_.run();
  const auto& f = engine_.flow(id);
  ASSERT_TRUE(f.completed);
  // Alpha rose during the marked phase, then decayed over unmarked windows.
  EXPECT_GT(alpha_peak, 0.5);
  EXPECT_LT(f.alpha, alpha_peak / 2.0);
}

TEST_F(DctcpTest, MultipleConcurrentFlowsAllComplete) {
  std::vector<std::int32_t> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(open(50 * kKB + i * 1000));
  for (const auto id : ids) engine_.start(id);
  env_.run();
  for (const auto id : ids) {
    EXPECT_TRUE(engine_.flow(id).completed) << "flow " << id;
  }
}

TEST_F(DctcpTest, SenderStopsAfterCompletion) {
  const auto id = open(5 * 1440);
  engine_.start(id);
  env_.run();
  const auto sent = engine_.flow(id).data_packets_sent;
  EXPECT_EQ(sent, 5u);  // no spurious retransmissions after completion
}

}  // namespace
}  // namespace flexnets::transport
