// Tests for the topology layer: cpulist parsing, sysfs detection over
// synthetic fixture trees (the build machines are single-node, so every
// multi-node shape here is injected), placement planning, policy parsing,
// pinning degradation, and the node-sharded ParallelFor contract.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"
#include "util/topology.h"

namespace deepaqp::util {
namespace {

namespace fs = std::filesystem;

std::vector<int> Parsed(std::string_view text) {
  std::vector<int> cpus;
  const Status st = ParseCpuList(text, &cpus);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return cpus;
}

TEST(ParseCpuListTest, ValidForms) {
  EXPECT_EQ(Parsed(""), (std::vector<int>{}));
  EXPECT_EQ(Parsed("0"), (std::vector<int>{0}));
  EXPECT_EQ(Parsed("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(Parsed("0-2,8,10-11"), (std::vector<int>{0, 1, 2, 8, 10, 11}));
  EXPECT_EQ(Parsed("0-2,8,10-11\n"), (std::vector<int>{0, 1, 2, 8, 10, 11}));
  EXPECT_EQ(Parsed(" 4 , 2 "), (std::vector<int>{2, 4}));  // sorted
  EXPECT_EQ(Parsed("3,1-3"), (std::vector<int>{1, 2, 3}));  // deduped
}

TEST(ParseCpuListTest, MalformedForms) {
  std::vector<int> cpus{99};
  for (const char* bad : {"x", "1-", "-3", "3-1", "1--2", "1,,2", "0-2000000"}) {
    const Status st = ParseCpuList(bad, &cpus);
    EXPECT_FALSE(st.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(cpus, (std::vector<int>{99})) << "clobbered on '" << bad << "'";
  }
}

// Builds a synthetic /sys/devices/system-shaped tree under TempDir.
class FixtureTree {
 public:
  explicit FixtureTree(const std::string& name)
      : root_(fs::path(testing::TempDir()) / name) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  const std::string root() const { return root_.string(); }

  void WriteFile(const std::string& rel, const std::string& contents) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << contents;
  }

 private:
  fs::path root_;
};

TEST(DetectTopologyTest, TwoNodeMachine) {
  FixtureTree tree("topo_two_node");
  tree.WriteFile("cpu/online", "0-7\n");
  tree.WriteFile("node/online", "0-1\n");
  tree.WriteFile("node/node0/cpulist", "0-3\n");
  tree.WriteFile("node/node1/cpulist", "4-7\n");

  const CpuTopology topo = DetectTopology(tree.root());
  ASSERT_EQ(topo.nodes.size(), 2u);
  EXPECT_TRUE(topo.multi_node());
  EXPECT_EQ(topo.num_cpus(), 8);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes[1].id, 1);
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_NE(topo.ToString().find("2 nodes"), std::string::npos);
}

TEST(DetectTopologyTest, OfflineCpusDropOut) {
  FixtureTree tree("topo_offline");
  tree.WriteFile("cpu/online", "0-2,4\n");  // cpus 3 and 5-7 offline
  tree.WriteFile("node/online", "0-1\n");
  tree.WriteFile("node/node0/cpulist", "0-3\n");
  tree.WriteFile("node/node1/cpulist", "4-7\n");

  const CpuTopology topo = DetectTopology(tree.root());
  ASSERT_EQ(topo.nodes.size(), 2u);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{4}));
}

TEST(DetectTopologyTest, NodeWithNoOnlineCpusIsSkipped) {
  FixtureTree tree("topo_empty_node");
  tree.WriteFile("cpu/online", "0-3\n");
  tree.WriteFile("node/online", "0-1\n");
  tree.WriteFile("node/node0/cpulist", "0-3\n");
  tree.WriteFile("node/node1/cpulist", "4-7\n");  // all offline

  const CpuTopology topo = DetectTopology(tree.root());
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_FALSE(topo.multi_node());
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DetectTopologyTest, MissingNodeDirFallsBackToSingleNode) {
  FixtureTree tree("topo_no_nodes");
  tree.WriteFile("cpu/online", "0-5\n");

  const CpuTopology topo = DetectTopology(tree.root());
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(DetectTopologyTest, FullyMissingTreeStillYieldsACpu) {
  FixtureTree tree("topo_missing");
  const CpuTopology topo = DetectTopology(tree.root() + "/does_not_exist");
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_GE(topo.num_cpus(), 1);  // hardware_concurrency fallback
}

TEST(DetectTopologyTest, AffinityMaskIntersects) {
  FixtureTree tree("topo_affinity");
  tree.WriteFile("cpu/online", "0-7\n");
  tree.WriteFile("node/online", "0-1\n");
  tree.WriteFile("node/node0/cpulist", "0-3\n");
  tree.WriteFile("node/node1/cpulist", "4-7\n");

  const std::vector<int> allowed = {1, 2, 6};
  const CpuTopology topo = DetectTopology(tree.root(), &allowed);
  ASSERT_EQ(topo.nodes.size(), 2u);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{1, 2}));
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{6}));

  // Mask excluding a whole node collapses the topology to the other node.
  const std::vector<int> node1_only = {5, 7};
  const CpuTopology half = DetectTopology(tree.root(), &node1_only);
  ASSERT_EQ(half.nodes.size(), 1u);
  EXPECT_EQ(half.nodes[0].id, 1);
  EXPECT_EQ(half.nodes[0].cpus, (std::vector<int>{5, 7}));
}

TEST(PinPolicyTest, ParseAndName) {
  PinPolicy policy = PinPolicy::kScatter;
  ASSERT_TRUE(ParsePinPolicy("off", &policy).ok());
  EXPECT_EQ(policy, PinPolicy::kOff);
  ASSERT_TRUE(ParsePinPolicy("compact", &policy).ok());
  EXPECT_EQ(policy, PinPolicy::kCompact);
  ASSERT_TRUE(ParsePinPolicy("scatter", &policy).ok());
  EXPECT_EQ(policy, PinPolicy::kScatter);
  EXPECT_STREQ(PinPolicyName(PinPolicy::kCompact), "compact");

  policy = PinPolicy::kCompact;
  EXPECT_FALSE(ParsePinPolicy("bogus", &policy).ok());
  EXPECT_EQ(policy, PinPolicy::kCompact);  // untouched on error
}

CpuTopology TwoNodeTopology() {
  CpuTopology topo;
  topo.nodes.push_back({.id = 0, .cpus = {0, 1}});
  topo.nodes.push_back({.id = 1, .cpus = {2, 3}});
  return topo;
}

TEST(PlanPlacementTest, OffLeavesLanesUnpinned) {
  const CpuTopology topo = TwoNodeTopology();
  const auto plan = PlanPlacement(topo, PinPolicy::kOff, 4);
  ASSERT_EQ(plan.size(), 4u);
  for (const LanePlacement& lane : plan) {
    EXPECT_EQ(lane.cpu, -1);
    EXPECT_EQ(lane.node, 0);
  }
}

TEST(PlanPlacementTest, CompactFillsNodesInOrder) {
  const CpuTopology topo = TwoNodeTopology();
  const auto plan = PlanPlacement(topo, PinPolicy::kCompact, 6);
  ASSERT_EQ(plan.size(), 6u);
  const int cpus[] = {0, 1, 2, 3, 0, 1};   // wraps past the machine
  const int nodes[] = {0, 0, 1, 1, 0, 0};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(plan[i].cpu, cpus[i]) << "lane " << i;
    EXPECT_EQ(plan[i].node, nodes[i]) << "lane " << i;
  }
}

TEST(PlanPlacementTest, ScatterRoundRobinsAcrossNodes) {
  const CpuTopology topo = TwoNodeTopology();
  const auto plan = PlanPlacement(topo, PinPolicy::kScatter, 4);
  ASSERT_EQ(plan.size(), 4u);
  const int cpus[] = {0, 2, 1, 3};  // one cpu per node per round
  const int nodes[] = {0, 1, 0, 1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan[i].cpu, cpus[i]) << "lane " << i;
    EXPECT_EQ(plan[i].node, nodes[i]) << "lane " << i;
  }
}

TEST(PinThreadTest, OutOfRangeCpuDegradesGracefully) {
  EXPECT_FALSE(PinCurrentThread(-1));
  EXPECT_FALSE(PinCurrentThread(1 << 20));
  EXPECT_FALSE(PinCurrentThreadToCpus({}));
}

#if defined(__linux__)
TEST(PinThreadTest, PinAndRestoreOnLinux) {
  const std::vector<int> allowed = AllowedCpus();
  ASSERT_FALSE(allowed.empty());
  // Pinning to a CPU we are already allowed on must succeed outside of
  // pathological seccomp sandboxes; restoring the saved mask undoes it.
  if (PinCurrentThread(allowed.front())) {
    EXPECT_EQ(AllowedCpus(), (std::vector<int>{allowed.front()}));
    EXPECT_TRUE(PinCurrentThreadToCpus(allowed));
    EXPECT_EQ(AllowedCpus(), allowed);
  }
}
#endif

// RAII: inject a synthetic topology + policy, rebuild the pool, restore.
class ScopedTopology {
 public:
  ScopedTopology(const CpuTopology* topo, PinPolicy policy, int threads)
      : saved_policy_(ActivePinPolicy()) {
    SetTopologyForTest(topo);
    SetPinPolicy(policy);
    SetGlobalThreads(threads);
  }
  ~ScopedTopology() {
    SetTopologyForTest(nullptr);
    SetPinPolicy(saved_policy_);
    SetGlobalThreads(0);
  }

 private:
  PinPolicy saved_policy_;
};

TEST(ParallelForShardedTest, VisitsEveryIndexOnceUnderInjectedTopology) {
  const CpuTopology topo = TwoNodeTopology();
  ScopedTopology scope(&topo, PinPolicy::kScatter, 4);

  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelForSharded(0, kN, [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForShardedTest, PropagatesExceptions) {
  const CpuTopology topo = TwoNodeTopology();
  ScopedTopology scope(&topo, PinPolicy::kCompact, 4);

  EXPECT_THROW(ParallelForSharded(0, 5000,
                                  [](size_t i) {
                                    if (i == 3777) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ParallelForShardedTest, OffPolicyDelegatesToSingleShard) {
  const CpuTopology topo = TwoNodeTopology();
  ScopedTopology scope(&topo, PinPolicy::kOff, 4);

  std::atomic<size_t> count{0};
  ParallelForSharded(0, 1000, [&count](size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 1000u);
}

}  // namespace
}  // namespace deepaqp::util
