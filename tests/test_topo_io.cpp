#include <gtest/gtest.h>

#include <cstdio>

#include "common/status.hpp"
#include "topo/io.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"

namespace flexnets::topo {
namespace {

TEST(TopoIo, RoundTripPreservesEverything) {
  const auto t = jellyfish(20, 4, 3, 7);
  const auto text = to_text(t);
  const auto back = from_text(text);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->name, t.name);
  EXPECT_EQ(back->servers_per_switch(), t.servers_per_switch());
  ASSERT_EQ(back->g.num_edges(), t.g.num_edges());
  for (graph::EdgeId e = 0; e < t.g.num_edges(); ++e) {
    EXPECT_EQ(back->g.edge(e).a, t.g.edge(e).a);
    EXPECT_EQ(back->g.edge(e).b, t.g.edge(e).b);
  }
}

TEST(TopoIo, RejectsMalformedInputWithLineDiagnostics) {
  const auto bad_header = from_text("not-a-topology");
  ASSERT_FALSE(bad_header.ok());
  EXPECT_EQ(bad_header.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(bad_header.status().message().find("line 1"), std::string::npos);

  const auto bad_version = from_text("flexnets-topology 2\n");
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.status().code(), StatusCode::kInvalidInput);

  // Link referencing a nonexistent switch: the offending line is line 6.
  const auto bad_link = from_text(
      "flexnets-topology 1\nname x\nswitches 2\nservers 1 1\nlinks 1\n0 5\n");
  ASSERT_FALSE(bad_link.ok());
  EXPECT_EQ(bad_link.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(bad_link.status().message().find("line 6"), std::string::npos);

  // Self-loop.
  const auto self_loop = from_text(
      "flexnets-topology 1\nname x\nswitches 2\nservers 1 1\nlinks 1\n1 1\n");
  ASSERT_FALSE(self_loop.ok());
  EXPECT_NE(self_loop.status().message().find("self-loop"), std::string::npos);

  // Duplicate edge (in either orientation).
  const auto dup = from_text(
      "flexnets-topology 1\nname x\nswitches 3\nservers 1 1 1\nlinks 2\n"
      "0 1\n1 0\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);
  EXPECT_NE(dup.status().message().find("line 7"), std::string::npos);

  // Non-integer server count.
  const auto bad_servers = from_text(
      "flexnets-topology 1\nname x\nswitches 2\nservers 1 oops\nlinks 0\n");
  ASSERT_FALSE(bad_servers.ok());
  EXPECT_NE(bad_servers.status().message().find("line 4"), std::string::npos);
}

TEST(TopoIo, RejectsServerTotalBeyondIntIds) {
  const auto big = from_text(
      "flexnets-topology 1\nname x\nswitches 2\nservers 2000000000 "
      "2000000000\nlinks 0\n");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(big.status().message().find("line 4"), std::string::npos);
}

TEST(TopoIo, EmptyTopology) {
  Topology t;
  t.name = "empty";
  const auto back = from_text(to_text(t));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->num_switches(), 0);
}

TEST(TopoIo, DotContainsNodesAndEdges) {
  const auto x = xpander(3, 2, 2, 1);
  const auto dot = to_dot(x.topo);
  EXPECT_NE(dot.find("graph"), std::string::npos);
  EXPECT_NE(dot.find("s0 [label=\"s0 (+2 srv)\"]"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
}

TEST(TopoIo, FileSaveLoad) {
  const auto t = jellyfish(10, 3, 2, 1);
  const std::string path = ::testing::TempDir() + "/flexnets_topo_test.txt";
  ASSERT_TRUE(save_topology(path, t).ok());
  const auto back = load_topology(path);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->num_servers(), t.num_servers());
  std::remove(path.c_str());

  const auto missing = load_topology("/nonexistent/dir/x.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidInput);
  EXPECT_FALSE(missing.status().message().empty());

  EXPECT_FALSE(save_topology("/nonexistent/dir/x.txt", t).ok());
}

}  // namespace
}  // namespace flexnets::topo
