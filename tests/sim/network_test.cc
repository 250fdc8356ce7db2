#include "src/sim/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/failure_injector.h"

namespace hcm::sim {
namespace {

struct Delivery {
  std::string kind;
  TimePoint at;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&ex_, Config()) {
    EXPECT_TRUE(net_.RegisterEndpoint("A", [this](const Message& m) {
                      at_a_.push_back({m.kind, ex_.now()});
                    }).ok());
    EXPECT_TRUE(net_.RegisterEndpoint("B", [this](const Message& m) {
                      at_b_.push_back({m.kind, ex_.now()});
                    }).ok());
  }

  static NetworkConfig Config() {
    NetworkConfig c;
    c.base_latency = Duration::Millis(20);
    c.jitter = Duration::Millis(10);
    c.local_latency = Duration::Millis(1);
    c.seed = 99;
    return c;
  }

  ParallelExecutor ex_;
  Network net_;
  std::vector<Delivery> at_a_;
  std::vector<Delivery> at_b_;
};

TEST_F(NetworkTest, DeliversWithinLatencyBounds) {
  ASSERT_TRUE(net_.Send({"A", "B", "m1", {}}).ok());
  ex_.RunUntilIdle();
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_GE(at_b_[0].at, TimePoint::FromMillis(20));
  EXPECT_LE(at_b_[0].at, TimePoint::FromMillis(30));
}

TEST_F(NetworkTest, UnknownDestinationIsError) {
  Status s = net_.Send({"A", "Z", "m", {}});
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(NetworkTest, DuplicateEndpointRejected) {
  EXPECT_EQ(net_.RegisterEndpoint("A", [](const Message&) {}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(NetworkTest, FifoPerChannelDespiteJitter) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net_.Send({"A", "B", std::to_string(i), {}}).ok());
  }
  ex_.RunUntilIdle();
  ASSERT_EQ(at_b_.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(at_b_[i].kind, std::to_string(i));
    if (i > 0) EXPECT_GE(at_b_[i].at, at_b_[i - 1].at);
  }
}

TEST_F(NetworkTest, LocalMessagesUseLocalLatency) {
  ASSERT_TRUE(net_.Send({"A", "A", "self", {}}).ok());
  ex_.RunUntilIdle();
  ASSERT_EQ(at_a_.size(), 1u);
  EXPECT_EQ(at_a_[0].at, TimePoint::FromMillis(1));
}

TEST_F(NetworkTest, PayloadRoundTrips) {
  std::string got;
  ASSERT_TRUE(net_.RegisterEndpoint("C", [&](const Message& m) {
                    got = std::any_cast<std::string>(m.payload);
                  }).ok());
  ASSERT_TRUE(net_.Send({"A", "C", "k", std::string("payload!")}).ok());
  ex_.RunUntilIdle();
  EXPECT_EQ(got, "payload!");
}

TEST_F(NetworkTest, CountsMessages) {
  ASSERT_TRUE(net_.Send({"A", "B", "x", {}}).ok());
  ASSERT_TRUE(net_.Send({"A", "B", "y", {}}).ok());
  ASSERT_TRUE(net_.Send({"B", "A", "z", {}}).ok());
  EXPECT_EQ(net_.total_messages_sent(), 3u);
  EXPECT_EQ(net_.messages_on_channel("A", "B"), 2u);
  EXPECT_EQ(net_.messages_on_channel("B", "A"), 1u);
  EXPECT_EQ(net_.messages_on_channel("B", "B"), 0u);
}

TEST_F(NetworkTest, OutageHoldsDeliveryUntilRecovery) {
  FailureInjector fi;
  fi.AddOutage("B", TimePoint::FromMillis(0), TimePoint::FromMillis(500));
  net_.set_failure_injector(&fi);
  ASSERT_TRUE(net_.Send({"A", "B", "held", {}}).ok());
  ex_.RunUntilIdle();
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_GE(at_b_[0].at, TimePoint::FromMillis(500));
}

TEST_F(NetworkTest, SlowdownAddsDelay) {
  FailureInjector fi;
  fi.AddSlowdown("B", TimePoint::FromMillis(0), TimePoint::FromMillis(1000),
                 Duration::Millis(200));
  net_.set_failure_injector(&fi);
  ASSERT_TRUE(net_.Send({"A", "B", "slow", {}}).ok());
  ex_.RunUntilIdle();
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_GE(at_b_[0].at, TimePoint::FromMillis(220));
}

TEST(NetworkDropTest, DropWhenDownLosesMessage) {
  ParallelExecutor ex;
  NetworkConfig cfg;
  cfg.drop_when_down = true;
  Network net(&ex, cfg);
  int received = 0;
  ASSERT_TRUE(net.RegisterEndpoint("B", [&](const Message&) { ++received; }).ok());
  FailureInjector fi;
  fi.AddOutage("B", TimePoint::FromMillis(0), TimePoint::FromMillis(500));
  net.set_failure_injector(&fi);
  ASSERT_TRUE(net.Send({"A", "B", "lost", {}}).ok());
  ex.RunUntilIdle();
  EXPECT_EQ(received, 0);
}

TEST(FailureInjectorTest, HealthWindows) {
  FailureInjector fi;
  fi.AddOutage("S", TimePoint::FromMillis(100), TimePoint::FromMillis(200));
  fi.AddSlowdown("S", TimePoint::FromMillis(150), TimePoint::FromMillis(300),
                 Duration::Millis(50));
  EXPECT_EQ(fi.HealthAt("S", TimePoint::FromMillis(50)), SiteHealth::kUp);
  EXPECT_EQ(fi.HealthAt("S", TimePoint::FromMillis(100)), SiteHealth::kDown);
  // Down wins over slow in the overlap.
  EXPECT_EQ(fi.HealthAt("S", TimePoint::FromMillis(175)), SiteHealth::kDown);
  EXPECT_EQ(fi.HealthAt("S", TimePoint::FromMillis(250)), SiteHealth::kSlow);
  EXPECT_EQ(fi.HealthAt("S", TimePoint::FromMillis(300)), SiteHealth::kUp);
  EXPECT_EQ(fi.HealthAt("T", TimePoint::FromMillis(0)), SiteHealth::kUp);
}

TEST(FailureInjectorTest, NextUpTimeChainsWindows) {
  FailureInjector fi;
  fi.AddOutage("S", TimePoint::FromMillis(100), TimePoint::FromMillis(200));
  fi.AddOutage("S", TimePoint::FromMillis(200), TimePoint::FromMillis(400));
  EXPECT_EQ(fi.NextUpTime("S", TimePoint::FromMillis(50)),
            TimePoint::FromMillis(50));
  EXPECT_EQ(fi.NextUpTime("S", TimePoint::FromMillis(150)),
            TimePoint::FromMillis(400));
}

TEST(FailureInjectorTest, ExtraDelayPicksMaxOfOverlaps) {
  FailureInjector fi;
  fi.AddSlowdown("S", TimePoint::FromMillis(0), TimePoint::FromMillis(100),
                 Duration::Millis(10));
  fi.AddSlowdown("S", TimePoint::FromMillis(50), TimePoint::FromMillis(100),
                 Duration::Millis(30));
  EXPECT_EQ(fi.ExtraDelayAt("S", TimePoint::FromMillis(25)),
            Duration::Millis(10));
  EXPECT_EQ(fi.ExtraDelayAt("S", TimePoint::FromMillis(75)),
            Duration::Millis(30));
  EXPECT_EQ(fi.ExtraDelayAt("S", TimePoint::FromMillis(100)),
            Duration::Zero());
}

}  // namespace
}  // namespace hcm::sim
