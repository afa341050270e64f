// HDFS performance model: effective read/write bandwidth seen by one
// Spark task as a function of the HDFS knobs (block size, replication,
// handler counts, io buffer) and cluster-wide concurrency. The model
// captures the first-order real-world behaviours: small blocks pay seek
// overhead and NameNode round-trips, undersized handler pools queue
// concurrent clients, replication multiplies write traffic across disk
// and network, and tiny io buffers throttle streaming.
#pragma once

#include "sparksim/config_space.hpp"
#include "sparksim/hardware.hpp"

namespace deepcat::sparksim {

class HdfsModel {
 public:
  HdfsModel(const ClusterSpec& cluster, const ConfigValues& config);

  /// MB/s a single task reading from HDFS observes while `concurrent_readers`
  /// tasks are reading cluster-wide. Requires concurrent_readers >= 1.
  [[nodiscard]] double read_mbps(int concurrent_readers) const;

  /// MB/s for one writing task at the given cluster-wide write concurrency.
  /// Write cost includes the replication pipeline (disk on every replica +
  /// network transfer for replicas beyond the first).
  [[nodiscard]] double write_mbps(int concurrent_writers) const;

  /// Fraction of task input expected to be node-local (better block
  /// placement odds with higher replication).
  [[nodiscard]] double locality_fraction() const noexcept {
    return locality_fraction_;
  }

  [[nodiscard]] double block_size_mb() const noexcept { return block_mb_; }

 private:
  /// Handler-pool queueing multiplier: >= 1, grows once concurrent clients
  /// per handler exceed 1.
  [[nodiscard]] double handler_penalty(int concurrent, int handlers) const;

  // Copies of what the model reads from the cluster, so it never refers
  // back to a ClusterSpec that may be a temporary.
  NodeSpec node_;
  std::size_t num_nodes_;
  double block_mb_;
  int replication_;
  int namenode_handlers_;
  int datanode_handlers_;
  double io_buffer_kb_;
  double locality_fraction_;
};

}  // namespace deepcat::sparksim
