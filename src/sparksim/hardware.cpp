#include "sparksim/hardware.hpp"

#include <stdexcept>

namespace deepcat::sparksim {

int ClusterSpec::total_cores() const noexcept {
  int total = 0;
  for (const auto& n : nodes) total += n.cores;
  return total;
}

double ClusterSpec::total_memory_mb() const noexcept {
  double total = 0.0;
  for (const auto& n : nodes) total += n.memory_mb;
  return total;
}

ClusterSpec cluster_a() {
  NodeSpec node;
  node.cores = 16;
  node.memory_mb = 16 * 1024.0;
  node.cpu_speed = 1.0;
  node.disk_seq_mbps = 140.0;
  node.disk_seek_ms = 8.0;
  node.net_mbps = 117.0;
  return {"Cluster-A", {node, node, node}};
}

ClusterSpec cluster_b() {
  NodeSpec node;
  node.cores = 8;
  node.memory_mb = 8 * 1024.0;
  node.cpu_speed = 0.85;         // virtualization overhead
  node.disk_seq_mbps = 220.0;    // VM-backed SSD-ish storage
  node.disk_seek_ms = 1.0;
  node.net_mbps = 200.0;         // virtio network
  return {"Cluster-B", {node, node, node}};
}

ClusterSpec cluster_from_tag(const std::string& tag) {
  if (tag == "a" || tag == "A") return cluster_a();
  if (tag == "b" || tag == "B") return cluster_b();
  throw std::invalid_argument("unknown cluster '" + tag + "' (use a or b)");
}

}  // namespace deepcat::sparksim
