// Focused coverage for the network's per-channel ordering contract
// (Appendix A.2 property 7) and its interaction with failures: FIFO must
// survive maximum jitter, down/recover cycles (held deliveries), and
// drop_when_down in both settings. Also pins down the per-channel jitter
// streams: traffic on one channel must not perturb another channel's
// latencies.

#include "src/sim/network.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/failure_injector.h"

namespace hcm::sim {
namespace {

struct Delivery {
  std::string src;
  std::string kind;
  TimePoint at;
};

class NetworkFifoTest : public ::testing::Test {
 protected:
  static NetworkConfig Config(Duration jitter, bool drop_when_down = false) {
    NetworkConfig c;
    c.base_latency = Duration::Millis(20);
    c.jitter = jitter;
    c.local_latency = Duration::Millis(1);
    c.seed = 4242;
    c.drop_when_down = drop_when_down;
    return c;
  }

  // Builds a network over sites A/B/C recording every delivery per site.
  void Build(NetworkConfig config, bool with_injector) {
    net_ = std::make_unique<Network>(&ex_, config);
    if (with_injector) net_->set_failure_injector(&injector_);
    for (const char* site : {"A", "B", "C"}) {
      std::string s = site;
      ASSERT_TRUE(net_->RegisterEndpoint(s, [this, s](const Message& m) {
                        deliveries_[s].push_back({m.src, m.kind, ex_.now()});
                      }).ok());
    }
  }

  void ExpectInOrder(const std::vector<Delivery>& log, const std::string& src,
                     int expected_count) {
    int next = 0;
    TimePoint prev;
    for (const auto& d : log) {
      if (d.src != src) continue;
      EXPECT_EQ(d.kind, std::to_string(next)) << "channel " << src;
      EXPECT_GE(d.at, prev);
      prev = d.at;
      ++next;
    }
    EXPECT_EQ(next, expected_count) << "channel " << src;
  }

  ParallelExecutor ex_;
  FailureInjector injector_;
  std::unique_ptr<Network> net_;
  std::map<std::string, std::vector<Delivery>> deliveries_;
};

TEST_F(NetworkFifoTest, FifoHoldsUnderMaxJitter) {
  // Jitter as large as several base latencies: without FIFO clamping,
  // later sends would routinely overtake earlier ones.
  Build(Config(/*jitter=*/Duration::Millis(100)), /*with_injector=*/false);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(net_->Send({"A", "B", std::to_string(i), {}}).ok());
    ASSERT_TRUE(net_->Send({"C", "B", std::to_string(i), {}}).ok());
    ex_.RunFor(Duration::Millis(3));
  }
  ex_.RunUntilIdle();
  ExpectInOrder(deliveries_["B"], "A", 200);
  ExpectInOrder(deliveries_["B"], "C", 200);
}

TEST_F(NetworkFifoTest, ChannelJitterStreamsAreIndependent) {
  // The A->B latency sequence must be a pure function of (seed, "A", "B"):
  // interleaving unrelated C->B traffic must not change it.
  auto latencies = [this](bool with_c_traffic) {
    deliveries_.clear();
    Build(Config(Duration::Millis(10)), false);
    std::vector<TimePoint> sent;
    for (int i = 0; i < 40; ++i) {
      sent.push_back(ex_.now());
      EXPECT_TRUE(net_->Send({"A", "B", std::to_string(i), {}}).ok());
      if (with_c_traffic) {
        // Unrelated sends interleaved on another channel.
        EXPECT_TRUE(net_->Send({"C", "B", "noise", {}}).ok());
        EXPECT_TRUE(net_->Send({"C", "A", "noise", {}}).ok());
      }
      ex_.RunFor(Duration::Millis(50));
    }
    ex_.RunUntilIdle();
    std::vector<int64_t> out;
    int i = 0;
    for (const auto& d : deliveries_["B"]) {
      if (d.src != "A") continue;
      out.push_back((d.at - sent[i++]).millis());
    }
    return out;
  };
  auto quiet = latencies(false);
  auto noisy = latencies(true);
  ASSERT_EQ(quiet.size(), 40u);
  EXPECT_EQ(quiet, noisy);
}

TEST_F(NetworkFifoTest, DownSiteHoldsDeliveriesUntilRecovery) {
  // drop_when_down = false (default): messages to a down site are held and
  // delivered after recovery, still in order.
  Build(Config(Duration::Millis(10)), /*with_injector=*/true);
  injector_.AddOutage("B", TimePoint::FromMillis(10),
                      TimePoint::FromMillis(500));
  ex_.RunFor(Duration::Millis(50));  // now inside the outage
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net_->Send({"A", "B", std::to_string(i), {}}).ok());
  }
  ex_.RunFor(Duration::Millis(300));
  EXPECT_TRUE(deliveries_["B"].empty());  // still down: nothing delivered
  ex_.RunUntilIdle();
  ExpectInOrder(deliveries_["B"], "A", 10);
  for (const auto& d : deliveries_["B"]) {
    EXPECT_GE(d.at, TimePoint::FromMillis(500));
  }
}

TEST_F(NetworkFifoTest, DropWhenDownLosesExactlyTheDownWindow) {
  Build(Config(Duration::Millis(10), /*drop_when_down=*/true),
        /*with_injector=*/true);
  injector_.AddOutage("B", TimePoint::FromMillis(100),
                      TimePoint::FromMillis(200));
  // One message before, three during, one after the outage.
  ASSERT_TRUE(net_->Send({"A", "B", "0", {}}).ok());
  ex_.RunUntil(TimePoint::FromMillis(120));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net_->Send({"A", "B", "dropped", {}}).ok());
  }
  ex_.RunUntil(TimePoint::FromMillis(250));
  ASSERT_TRUE(net_->Send({"A", "B", "1", {}}).ok());
  ex_.RunUntilIdle();
  ExpectInOrder(deliveries_["B"], "A", 2);  // only "0" and "1" arrived
  // Sends count the attempts; the channel count includes dropped ones only
  // up to the drop decision, which happens before scheduling.
  EXPECT_EQ(deliveries_["B"].size(), 2u);
}

TEST_F(NetworkFifoTest, FifoSurvivesDownRecoverCycles) {
  Build(Config(Duration::Millis(30)), /*with_injector=*/true);
  // Three outage windows; messages stream continuously across all of them.
  injector_.AddOutage("B", TimePoint::FromMillis(100),
                      TimePoint::FromMillis(200));
  injector_.AddOutage("B", TimePoint::FromMillis(400),
                      TimePoint::FromMillis(600));
  injector_.AddOutage("B", TimePoint::FromMillis(900),
                      TimePoint::FromMillis(950));
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(net_->Send({"A", "B", std::to_string(i), {}}).ok());
    ex_.RunFor(Duration::Millis(10));
  }
  ex_.RunUntilIdle();
  ExpectInOrder(deliveries_["B"], "A", 120);
}

TEST_F(NetworkFifoTest, DropWhenDownPreservesFifoAmongSurvivors) {
  Build(Config(Duration::Millis(30), /*drop_when_down=*/true),
        /*with_injector=*/true);
  injector_.AddOutage("B", TimePoint::FromMillis(300),
                      TimePoint::FromMillis(700));
  int sent_while_up = 0;
  for (int i = 0; i < 120; ++i) {
    bool down = ex_.now() >= TimePoint::FromMillis(300) &&
                ex_.now() < TimePoint::FromMillis(700);
    ASSERT_TRUE(
        net_->Send({"A", "B", std::to_string(sent_while_up), {}}).ok());
    if (!down) ++sent_while_up;
    ex_.RunFor(Duration::Millis(10));
  }
  ex_.RunUntilIdle();
  // Survivors arrive in send order with contiguous numbering by
  // construction; dropped sends reused the pending number, so any
  // duplicate/missing kind here means a drop decision diverged from the
  // injector's window or FIFO broke.
  int next = 0;
  TimePoint prev;
  for (const auto& d : deliveries_["B"]) {
    if (d.kind != std::to_string(next)) continue;
    EXPECT_GE(d.at, prev);
    prev = d.at;
    ++next;
  }
  EXPECT_EQ(next, sent_while_up);
}

}  // namespace
}  // namespace hcm::sim
