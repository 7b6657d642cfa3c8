#include "mars/sim/network.h"

#include <gtest/gtest.h>

#include "mars/topology/presets.h"
#include "mars/util/error.h"

namespace mars::sim {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  topology::Topology topo_ = topology::f1_16xlarge();
  SimParams params_{};
  Network net_{topo_, params_};
};

TEST_F(NetworkTest, DirectRouteSingleLeg) {
  const std::vector<RouteLeg> route = net_.route(0, 1);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_DOUBLE_EQ(route.front().bw.gbps(), 8.0);
}

TEST_F(NetworkTest, CrossGroupRoutesViaHost) {
  // Accelerators 0 and 4 are in different groups: two host legs at 2 Gb/s.
  const std::vector<RouteLeg> route = net_.route(0, 4);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_DOUBLE_EQ(route[0].bw.gbps(), 2.0);
  EXPECT_DOUBLE_EQ(route[1].bw.gbps(), 2.0);
  EXPECT_NE(route[0].channel, route[1].channel);
}

TEST_F(NetworkTest, HostEndpoints) {
  ASSERT_EQ(net_.route(kHost, 3).size(), 1u);
  ASSERT_EQ(net_.route(3, kHost).size(), 1u);
  // Up and down channels are distinct (full duplex).
  EXPECT_NE(net_.route(kHost, 3).front().channel,
            net_.route(3, kHost).front().channel);
}

TEST_F(NetworkTest, OppositeDirectionsAreDistinctChannels) {
  EXPECT_NE(net_.route(0, 1).front().channel, net_.route(1, 0).front().channel);
}

TEST_F(NetworkTest, LegTimeIncludesLatency) {
  const RouteLeg leg = net_.route(0, 1).front();
  // 1e9 bytes at 8 Gb/s = 1 s, plus 2 us link latency.
  EXPECT_DOUBLE_EQ(net_.leg_time(leg, Bytes(1e9)).count(), 1.0 + 2e-6);
}

TEST_F(NetworkTest, RejectsDegenerateRoutes) {
  EXPECT_THROW((void)net_.route(2, 2), InvalidArgument);
  EXPECT_THROW((void)net_.route(kHost, kHost), InvalidArgument);
}

TEST_F(NetworkTest, RejectsEndpointsOutsideTopology) {
  EXPECT_THROW((void)net_.route(0, topo_.size()), InvalidArgument);
  EXPECT_THROW((void)net_.route(topo_.size() + 2, 0), InvalidArgument);
  EXPECT_THROW((void)net_.route(kHost, topo_.size()), InvalidArgument);
  EXPECT_THROW((void)net_.route(kHost - 1, 0), InvalidArgument);
}

TEST_F(NetworkTest, ChannelCountCoversLinksAndHost) {
  // Two 4-cliques: 2 * (4*3) directed link channels + 8 up + 8 down.
  EXPECT_EQ(net_.num_channels(), 24 + 16);
}

}  // namespace
}  // namespace mars::sim
