// Hardware descriptions of the simulated clusters. Cluster-A mirrors the
// paper's physical testbed (3 nodes, 16 cores / 16 GB / 1 TB HDD / 1 GbE
// each); Cluster-B mirrors the smaller VM cluster from the hardware-
// adaptability experiment (24 total cores, 24 GB, 150 GB — paper §5.3.2).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace deepcat::sparksim {

struct NodeSpec {
  int cores = 16;
  double memory_mb = 16 * 1024.0;
  double cpu_speed = 1.0;        ///< relative per-core throughput factor
  double disk_seq_mbps = 140.0;  ///< sequential disk bandwidth
  double disk_seek_ms = 8.0;     ///< average seek latency (HDD-like)
  double net_mbps = 117.0;       ///< usable NIC bandwidth (1 GbE ~ 117 MB/s)
};

struct ClusterSpec {
  std::string name;
  std::vector<NodeSpec> nodes;

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes.size(); }
  [[nodiscard]] int total_cores() const noexcept;
  [[nodiscard]] double total_memory_mb() const noexcept;
};

/// The paper's physical 3-node testbed (§4.1).
[[nodiscard]] ClusterSpec cluster_a();

/// The paper's 3-node VM cluster: 24 cores, 24 GB total, faster virtual
/// disks but fewer resources (§5.3.2).
[[nodiscard]] ClusterSpec cluster_b();

/// The cluster a request or flag tag names: "a"/"A" or "b"/"B". Throws
/// std::invalid_argument on any other tag.
[[nodiscard]] ClusterSpec cluster_from_tag(const std::string& tag);

}  // namespace deepcat::sparksim
