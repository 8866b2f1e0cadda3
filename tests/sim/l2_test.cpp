#include "sim/l2_switch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"
#include "sim/link.hpp"

namespace rp::sim {
namespace {

/// A test device that records every frame it receives.
class Sink : public Device {
 public:
  explicit Sink(std::string name) : Device(std::move(name)) {}

  void receive(std::size_t, const EthernetFrame& frame) override {
    received.push_back(frame);
  }
  std::size_t allocate_interface() override { return interfaces_++; }

  void send(const EthernetFrame& frame) { transmit(0, frame); }

  std::vector<EthernetFrame> received;

 private:
  std::size_t interfaces_ = 0;
};

EthernetFrame frame_between(net::MacAddr src, net::MacAddr dst) {
  EthernetFrame f;
  f.src = src;
  f.dst = dst;
  Ipv4Packet packet;
  packet.src = net::Ipv4Addr(10, 0, 0, 1);
  packet.dst = net::Ipv4Addr(10, 0, 0, 2);
  f.payload = packet;
  return f;
}

struct Fabric {
  Simulator sim;
  Network network{sim};
  L2Switch* sw;
  Sink* a;
  Sink* b;
  Sink* c;
  net::MacAddr mac_a = net::MacAddr::from_id(1);
  net::MacAddr mac_b = net::MacAddr::from_id(2);
  net::MacAddr mac_c = net::MacAddr::from_id(3);

  Fabric() {
    sw = &network.emplace_device<L2Switch>("sw");
    a = &network.emplace_device<Sink>("a");
    b = &network.emplace_device<Sink>("b");
    c = &network.emplace_device<Sink>("c");
    const auto delay = util::SimDuration::micros(10);
    network.connect(*sw, *a, delay);
    network.connect(*sw, *b, delay);
    network.connect(*sw, *c, delay);
  }
};

TEST(L2Switch, FloodsUnknownUnicast) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, f.mac_b));
  f.sim.run();
  // mac_b unknown: the frame floods to both b and c, but not back to a.
  EXPECT_EQ(f.a->received.size(), 0u);
  EXPECT_EQ(f.b->received.size(), 1u);
  EXPECT_EQ(f.c->received.size(), 1u);
}

TEST(L2Switch, LearnsAndForwardsUnicast) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, f.mac_b));  // Switch learns a's port.
  f.sim.run();
  f.b->send(frame_between(f.mac_b, f.mac_a));  // Learned: direct to a only.
  f.sim.run();
  EXPECT_EQ(f.a->received.size(), 1u);
  EXPECT_EQ(f.c->received.size(), 1u);  // Only the first flood.
  EXPECT_EQ(f.sw->mac_table_size(), 2u);
}

TEST(L2Switch, BroadcastGoesToAllOtherPorts) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, net::MacAddr::broadcast()));
  f.sim.run();
  EXPECT_EQ(f.a->received.size(), 0u);
  EXPECT_EQ(f.b->received.size(), 1u);
  EXPECT_EQ(f.c->received.size(), 1u);
}

TEST(L2Switch, FiltersFrameToIngressPort) {
  Fabric f;
  // Teach the switch that mac_b lives on b's port.
  f.b->send(frame_between(f.mac_b, f.mac_a));
  f.sim.run();
  f.b->received.clear();
  f.a->received.clear();
  f.c->received.clear();
  // b sends a frame addressed to itself (bounced): filtered, delivered
  // nowhere.
  f.b->send(frame_between(f.mac_b, f.mac_b));
  f.sim.run();
  EXPECT_EQ(f.a->received.size(), 0u);
  EXPECT_EQ(f.b->received.size(), 0u);
  EXPECT_EQ(f.c->received.size(), 0u);
}

TEST(L2Switch, CountsForwardAndFlood) {
  Fabric f;
  f.a->send(frame_between(f.mac_a, f.mac_b));
  f.sim.run();
  EXPECT_EQ(f.sw->frames_flooded(), 1u);
  f.b->send(frame_between(f.mac_b, f.mac_a));
  f.sim.run();
  EXPECT_EQ(f.sw->frames_forwarded(), 1u);
}

std::uint64_t counter_total(const char* name) {
  for (const auto& metric : obs::MetricsRegistry::global().snapshot())
    if (metric.name == name) return metric.count;
  return 0;
}

TEST(FrameTotals, ThreePortBroadcastFloodsOnceAndDeliversTwice) {
  obs::MetricsRegistry::global().reset();
  obs::set_metrics_enabled(true);
  Fabric f;
  EthernetFrame broadcast = frame_between(f.mac_a, net::MacAddr::broadcast());
  f.sw->receive(0, broadcast);  // Arrives on a's port.
  f.sim.run();
  const L2Switch* switches[] = {f.sw};
  const FrameTotals totals = FrameTotals::of(f.network, switches);
  EXPECT_EQ(totals.flooded, 1u);
  EXPECT_EQ(totals.forwarded, 0u);
  EXPECT_EQ(totals.delivered, 2u);
  EXPECT_EQ(totals.dropped, 0u);
  totals.record();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(counter_total("rp.sim.frames.flooded"), 1u);
  EXPECT_EQ(counter_total("rp.sim.frames.forwarded"), 0u);
  EXPECT_EQ(counter_total("rp.sim.frames.delivered"), 2u);
  EXPECT_EQ(counter_total("rp.sim.frames.dropped"), 0u);
}

TEST(Link, DeliversAfterConfiguredDelay) {
  Simulator sim;
  Network network{sim};
  auto& a = network.emplace_device<Sink>("a");
  auto& b = network.emplace_device<Sink>("b");
  network.connect(a, b, util::SimDuration::millis(7));
  a.send(frame_between(net::MacAddr::from_id(1), net::MacAddr::from_id(2)));
  util::SimTime delivered;
  sim.run();
  EXPECT_EQ(sim.now().since_origin(), util::SimDuration::millis(7));
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Link, LossDropsFrames) {
  Simulator sim;
  Network network{sim};
  auto& a = network.emplace_device<Sink>("a");
  auto& b = network.emplace_device<Sink>("b");
  Link& link = network.connect(a, b, util::SimDuration::micros(1), {},
                               /*loss_probability=*/1.0);
  for (int i = 0; i < 10; ++i)
    a.send(frame_between(net::MacAddr::from_id(1), net::MacAddr::from_id(2)));
  sim.run();
  EXPECT_EQ(b.received.size(), 0u);
  EXPECT_EQ(link.frames_dropped(), 10u);
  EXPECT_EQ(link.frames_delivered(), 0u);
}

TEST(Link, NoiseDrawsJitterThenCongestionOnTheLinkStream) {
  // Each frame's extra delay is the jitter draw, then the congestion draw,
  // both from the link's own stream (a fork of the network's noise seed),
  // each rounded to a SimDuration before the sum. Campaign bytes depend on
  // exactly this order.
  const QueueJitter jitter(util::SimDuration::micros(30), 0.6);
  const auto base = util::SimDuration::micros(100);
  const std::vector<LinkNoise> cases = {
      {jitter, PersistentCongestion(util::SimDuration::millis(10),
                                    util::SimDuration::millis(400))},
      {jitter, CongestionEpisodes({{util::SimTime::origin(),
                                    util::SimTime::at(util::SimDuration::hours(1)),
                                    util::SimDuration::millis(3)}})}};
  for (const LinkNoise& noise : cases) {
    Simulator sim;
    Network network{sim};
    network.seed_noise(util::Rng(42));
    auto& a = network.emplace_device<Sink>("a");
    auto& b = network.emplace_device<Sink>("b");
    network.connect(a, b, base, noise);

    util::Rng stream = util::Rng(42).fork(1);  // The first link's stream.
    for (int i = 0; i < 200; ++i) {
      const util::SimTime sent = sim.now();
      a.send(frame_between(net::MacAddr::from_id(1), net::MacAddr::from_id(2)));
      sim.run();
      const util::SimDuration first = jitter.sample(sent, stream);
      util::SimDuration second;
      if (const auto* p = std::get_if<PersistentCongestion>(&noise.congestion))
        second = p->sample(sent, stream);
      else
        second = std::get<CongestionEpisodes>(noise.congestion)
                     .sample(sent, stream);
      ASSERT_EQ((sim.now() - sent).count_nanos(),
                (base + first + second).count_nanos())
          << "frame " << i;
    }
    EXPECT_EQ(b.received.size(), 200u);
  }
}

TEST(Frame, ToStringIsInformative) {
  auto f = frame_between(net::MacAddr::from_id(1), net::MacAddr::from_id(2));
  const std::string s = f.to_string();
  EXPECT_NE(s.find("IPv4"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(s.find("echo-request"), std::string::npos);

  EthernetFrame arp;
  arp.src = net::MacAddr::from_id(1);
  arp.dst = net::MacAddr::broadcast();
  arp.payload = ArpMessage{ArpMessage::Op::kRequest, net::MacAddr::from_id(1),
                           net::Ipv4Addr(10, 0, 0, 1), net::MacAddr{},
                           net::Ipv4Addr(10, 0, 0, 2)};
  EXPECT_NE(arp.to_string().find("who-has 10.0.0.2"), std::string::npos);
}

}  // namespace
}  // namespace rp::sim
