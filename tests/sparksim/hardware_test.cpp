#include "sparksim/hardware.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace deepcat::sparksim {
namespace {

TEST(HardwareTest, ClusterAMatchesPaperTestbed) {
  const ClusterSpec a = cluster_a();
  EXPECT_EQ(a.name, "Cluster-A");
  EXPECT_EQ(a.num_nodes(), 3u);
  EXPECT_EQ(a.total_cores(), 48);
  EXPECT_DOUBLE_EQ(a.total_memory_mb(), 48.0 * 1024.0);
  for (const auto& n : a.nodes) {
    EXPECT_EQ(n.cores, 16);
    EXPECT_DOUBLE_EQ(n.memory_mb, 16.0 * 1024.0);
  }
}

TEST(HardwareTest, ClusterBMatchesPaperVmCluster) {
  const ClusterSpec b = cluster_b();
  EXPECT_EQ(b.name, "Cluster-B");
  EXPECT_EQ(b.num_nodes(), 3u);
  EXPECT_EQ(b.total_cores(), 24);
  EXPECT_DOUBLE_EQ(b.total_memory_mb(), 24.0 * 1024.0);
}

TEST(HardwareTest, ClusterBIsSmallerButFasterStorage) {
  const ClusterSpec a = cluster_a();
  const ClusterSpec b = cluster_b();
  EXPECT_LT(b.total_cores(), a.total_cores());
  EXPECT_LT(b.total_memory_mb(), a.total_memory_mb());
  EXPECT_GT(b.nodes.front().disk_seq_mbps, a.nodes.front().disk_seq_mbps);
  EXPECT_LT(b.nodes.front().disk_seek_ms, a.nodes.front().disk_seek_ms);
}

TEST(HardwareTest, EmptyClusterAggregates) {
  const ClusterSpec empty{"empty", {}};
  EXPECT_EQ(empty.total_cores(), 0);
  EXPECT_DOUBLE_EQ(empty.total_memory_mb(), 0.0);
}

TEST(HardwareTest, ClusterFromTagNamesOnlyTheTwoClusters) {
  EXPECT_EQ(cluster_from_tag("a").name, "Cluster-A");
  EXPECT_EQ(cluster_from_tag("A").name, "Cluster-A");
  EXPECT_EQ(cluster_from_tag("b").name, "Cluster-B");
  EXPECT_EQ(cluster_from_tag("B").name, "Cluster-B");
  for (const char* tag : {"c", "", "ab"}) {
    try {
      (void)cluster_from_tag(tag);
      ADD_FAILURE() << "tag '" << tag << "' named a cluster";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown cluster '" + std::string(tag) + "' (use a or b)");
    }
  }
}

}  // namespace
}  // namespace deepcat::sparksim
