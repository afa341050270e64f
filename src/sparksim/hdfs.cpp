#include "sparksim/hdfs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"

namespace deepcat::sparksim {

HdfsModel::HdfsModel(const ClusterSpec& cluster, const ConfigValues& config)
    : node_(cluster.nodes.empty() ? NodeSpec{} : cluster.nodes.front()),
      num_nodes_(cluster.num_nodes()),
      block_mb_(config.get(KnobId::kDfsBlockSizeMb)),
      replication_(config.get_int(KnobId::kDfsReplication)),
      namenode_handlers_(config.get_int(KnobId::kNamenodeHandlers)),
      datanode_handlers_(config.get_int(KnobId::kDatanodeHandlers)),
      io_buffer_kb_(config.get(KnobId::kIoFileBufferKb)) {
  if (cluster.nodes.empty()) {
    throw std::invalid_argument("HdfsModel: empty cluster");
  }
  // With R replicas over N nodes, the chance some replica of a block lives
  // on the reading node is ~min(1, R/N).
  locality_fraction_ = std::min(
      1.0, static_cast<double>(replication_) /
               static_cast<double>(cluster.num_nodes()));
}

double HdfsModel::handler_penalty(int concurrent, int handlers) const {
  const double load =
      static_cast<double>(concurrent) / std::max(1, handlers);
  // Below one client per handler there is no queueing; above it, service
  // time degrades roughly linearly with queue depth.
  return std::max(1.0, 0.35 * load + 0.65);
}

double HdfsModel::read_mbps(int concurrent_readers) const {
  if (concurrent_readers < 1) {
    throw std::invalid_argument("HdfsModel::read_mbps: readers < 1");
  }
  const NodeSpec& node = node_;

  // Disk bandwidth shared by readers co-located per node.
  const double readers_per_node = std::max(
      1.0, static_cast<double>(concurrent_readers) /
               static_cast<double>(num_nodes_));
  double bw = node.disk_seq_mbps / readers_per_node;

  // Seek + NameNode metadata overhead per block: small blocks lose more.
  const double per_block_overhead_s =
      node.disk_seek_ms / 1000.0 +
      0.002 * handler_penalty(concurrent_readers, namenode_handlers_);
  const double transfer_s = block_mb_ / std::max(bw, 1e-6);
  bw *= transfer_s / (transfer_s + per_block_overhead_s);

  // Remote (non-local) reads traverse the network.
  const double remote = 1.0 - locality_fraction_;
  const double net_bw = node.net_mbps / std::max(1.0, readers_per_node * remote);
  const double effective_remote = std::min(bw, net_bw);
  bw = locality_fraction_ * bw + remote * effective_remote;

  // DataNode handler queueing.
  bw /= handler_penalty(concurrent_readers, datanode_handlers_);

  // Undersized stream buffer (Hadoop default 4 KB) costs syscall overhead;
  // benefit saturates past ~64 KB.
  const double buffer_eff =
      common::clamp(0.75 + 0.25 * (io_buffer_kb_ / 64.0), 0.75, 1.0);
  bw *= buffer_eff;

  return std::max(bw, 0.5);
}

double HdfsModel::write_mbps(int concurrent_writers) const {
  if (concurrent_writers < 1) {
    throw std::invalid_argument("HdfsModel::write_mbps: writers < 1");
  }
  const NodeSpec& node = node_;
  const double writers_per_node = std::max(
      1.0, static_cast<double>(concurrent_writers) /
               static_cast<double>(num_nodes_));

  // Every replica hits a disk; total disk work scales with R. The pipeline
  // also pushes (R-1) copies over the network.
  const double disk_bw =
      node.disk_seq_mbps / (writers_per_node * static_cast<double>(replication_));
  double bw = disk_bw;
  if (replication_ > 1) {
    const double net_bw = node.net_mbps /
                          (writers_per_node * static_cast<double>(replication_ - 1));
    bw = std::min(bw, net_bw);
  }

  bw /= handler_penalty(concurrent_writers, datanode_handlers_);
  const double buffer_eff =
      common::clamp(0.75 + 0.25 * (io_buffer_kb_ / 64.0), 0.75, 1.0);
  bw *= buffer_eff;

  return std::max(bw, 0.5);
}

}  // namespace deepcat::sparksim
