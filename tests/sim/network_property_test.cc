// Property sweep: FIFO delivery per channel must survive arbitrary jitter
// seeds and interleaved multi-channel traffic — Appendix A.2 property 7
// rests on it.

#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/sim/network.h"

namespace hcm::sim {
namespace {

class NetworkFifoSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetworkFifoSweep, PerChannelOrderUnderJitter) {
  ParallelExecutor ex;
  NetworkConfig cfg;
  cfg.base_latency = Duration::Millis(10);
  cfg.jitter = Duration::Millis(40);  // jitter far above base: reorder bait
  cfg.seed = GetParam();
  Network net(&ex, cfg);

  const std::vector<std::string> sites = {"A", "B", "C"};
  // Per destination, per source: sequence numbers received.
  std::map<std::string, std::map<std::string, std::vector<int>>> received;
  for (const auto& site : sites) {
    ASSERT_TRUE(net.RegisterEndpoint(site, [&received, site](
                                               const Message& m) {
                      received[site][m.src].push_back(
                          std::any_cast<int>(m.payload));
                    })
                    .ok());
  }

  Rng rng(GetParam() * 3 + 1);
  std::map<std::pair<std::string, std::string>, int> next_seq;
  for (int i = 0; i < 600; ++i) {
    const std::string& src = sites[rng.Index(sites.size())];
    const std::string& dst = sites[rng.Index(sites.size())];
    int seq = next_seq[{src, dst}]++;
    ASSERT_TRUE(net.Send({src, dst, "m", seq}).ok());
    if (rng.Bernoulli(0.3)) {
      ex.RunFor(Duration::Millis(rng.UniformInt(0, 30)));
    }
  }
  ex.RunUntilIdle();

  size_t total = 0;
  for (const auto& [dst, by_src] : received) {
    (void)dst;
    for (const auto& [src, seqs] : by_src) {
      (void)src;
      total += seqs.size();
      for (size_t i = 1; i < seqs.size(); ++i) {
        ASSERT_EQ(seqs[i], seqs[i - 1] + 1)
            << "channel reordered under seed " << GetParam();
      }
    }
  }
  EXPECT_EQ(total, 600u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFifoSweep,
                         ::testing::Values(1, 9, 17, 25, 33));

}  // namespace
}  // namespace hcm::sim
