// ECMP path resolution over the Clos topology (paper §2.1).
//
// "ECMP uses the hash value of the TCP/UDP five-tuple for next hop
// selection. As a result, the exact path of a TCP connection is unknown at
// the server side even if the five-tuple of the connection is known."
//
// We reproduce that property: the forward and reverse directions of a
// connection hash independently, and a new source port re-rolls every
// ECMP choice on the path. The resolver is deterministic in the tuple, which
// is what makes packet black-holes deterministic per connection.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/types.h"
#include "topology/topology.h"

namespace pingmesh::netsim {

/// One switch traversal on a path.
struct Hop {
  SwitchId sw;
};

/// The hops of one path, held inline: the longest path, cross-DC, has
/// kCapacity hops, so resolving a path allocates nothing.
class HopList {
 public:
  static constexpr std::size_t kCapacity = 8;

  void push_back(Hop hop) {
    PINGMESH_CHECK(size_ < kCapacity);
    hops_[size_++] = hop;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const Hop& operator[](std::size_t i) const { return hops_[i]; }
  [[nodiscard]] const Hop& front() const { return hops_[0]; }
  [[nodiscard]] const Hop& back() const { return hops_[size_ - 1]; }
  [[nodiscard]] const Hop* begin() const { return hops_.data(); }
  [[nodiscard]] const Hop* end() const { return hops_.data() + size_; }

 private:
  std::array<Hop, kCapacity> hops_;
  std::uint8_t size_ = 0;
};

/// Resolved unidirectional path between two servers. Does not include the
/// end hosts. Empty for src == dst (loopback).
struct Path {
  HopList hops;
  bool cross_dc = false;
  bool cross_podset = false;
  bool cross_pod = false;
};

/// Deterministic ECMP resolver. Pure function of (topology, five-tuple).
class EcmpRouter {
 public:
  explicit EcmpRouter(const topo::Topology& topo) : topo_(&topo) {}

  /// Resolve the path taken by packets of `tuple` from the server owning
  /// tuple.src_ip to the server owning tuple.dst_ip.
  /// Throws std::out_of_range if either IP is unknown.
  [[nodiscard]] Path resolve(const FiveTuple& tuple) const;

  /// ECMP next-hop choice: stable hash of tuple + deciding switch stage.
  [[nodiscard]] static std::size_t ecmp_index(const FiveTuple& tuple,
                                              std::uint64_t stage_salt,
                                              std::size_t n_choices);

 private:
  const topo::Topology* topo_;
};

/// Reverse a five-tuple (for the SYN-ACK / echo direction).
[[nodiscard]] constexpr FiveTuple reverse(const FiveTuple& t) {
  return FiveTuple{t.dst_ip, t.src_ip, t.dst_port, t.src_port, t.protocol};
}

}  // namespace pingmesh::netsim
