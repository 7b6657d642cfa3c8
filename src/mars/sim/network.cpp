#include "mars/sim/network.h"

#include "mars/util/error.h"

namespace mars::sim {

Network::Network(const topology::Topology& topo, SimParams params)
    : topo_(&topo), params_(params) {
  const int n = topo.size();
  direct_.assign(static_cast<std::size_t>(n),
                 std::vector<int>(static_cast<std::size_t>(n), -1));
  int next = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b && topo.has_link(a, b)) {
        direct_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = next++;
      }
    }
  }
  host_up_base_ = next;
  next += n;
  host_down_base_ = next;
  next += n;
  num_channels_ = next;
}

int Network::direct_channel(int src, int dst) const {
  return direct_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
}

int Network::host_up_channel(int acc) const { return host_up_base_ + acc; }
int Network::host_down_channel(int acc) const { return host_down_base_ + acc; }

std::vector<RouteLeg> Network::route(int src, int dst) const {
  const int n = topo_->size();
  MARS_CHECK_ARG(src >= kHost && src < n && dst >= kHost && dst < n && src != dst,
                 "bad route endpoints " << src << " -> " << dst << " on a "
                                        << n << "-accelerator topology");
  std::vector<RouteLeg> legs;
  if (src == kHost) {
    legs.push_back({host_down_channel(dst), topo_->host_bandwidth(dst)});
    return legs;
  }
  if (dst == kHost) {
    legs.push_back({host_up_channel(src), topo_->host_bandwidth(src)});
    return legs;
  }
  const int channel = direct_channel(src, dst);
  if (channel >= 0) {
    legs.push_back({channel, topo_->link(src, dst)});
    return legs;
  }
  legs.push_back({host_up_channel(src), topo_->host_bandwidth(src)});
  legs.push_back({host_down_channel(dst), topo_->host_bandwidth(dst)});
  return legs;
}

Seconds Network::leg_time(const RouteLeg& leg, Bytes bytes) const {
  return leg.bw.transfer_time(bytes) + params_.link_latency;
}

}  // namespace mars::sim
