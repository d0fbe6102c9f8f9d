// Statistics plumbing: accumulators and result tables.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/stats.hpp"

namespace steins {
namespace {

TEST(LatencyAccumulator, MeanAndMax) {
  LatencyAccumulator acc;
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(10);
  acc.add(20);
  acc.add(60);
  EXPECT_EQ(acc.count, 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 30.0);
  EXPECT_EQ(acc.max, 60u);
  acc.reset();
  EXPECT_EQ(acc.count, 0u);
}

TEST(ResultTable, RowsAndCsv) {
  ResultTable t("test", {"a", "b"});
  t.add_row("w1", {1.0, 2.0});
  t.add_row("w2", {3.0, 4.0});
  const std::string csv = t.to_csv(1);
  EXPECT_NE(csv.find("workload,a,b"), std::string::npos);
  EXPECT_NE(csv.find("w1,1.0,2.0"), std::string::npos);
  EXPECT_NE(csv.find("w2,3.0,4.0"), std::string::npos);
}

TEST(ResultTable, ToJsonRoundTripsStructure) {
  ResultTable t("fig \"x\"", {"a", "b"});
  t.add_row("w1", {1.0, 1.5});
  t.add_row("w2", {0.25, 4.0});
  t.add_row("w3", {std::nan(""), -std::numeric_limits<double>::infinity()});
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"title\": \"fig \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"columns\": [\"a\", \"b\"]"), std::string::npos);
  EXPECT_NE(json.find("{\"label\": \"w1\", \"values\": [1, 1.5]}"), std::string::npos);
  EXPECT_NE(json.find("{\"label\": \"w2\", \"values\": [0.25, 4]}"), std::string::npos);
  EXPECT_NE(json.find("{\"label\": \"w3\", \"values\": [null, null]}"), std::string::npos);
}

TEST(ResultTable, GeomeanRow) {
  ResultTable t("test", {"x"});
  t.add_row("w1", {2.0});
  t.add_row("w2", {8.0});
  t.add_geomean_row();
  ASSERT_EQ(t.rows().size(), 3u);
  EXPECT_EQ(t.rows().back().first, "geomean");
  EXPECT_NEAR(t.rows().back().second[0], 4.0, 1e-9);  // sqrt(2*8)
}

TEST(ResultTable, GeomeanOfIdenticalRowsIsIdentity) {
  ResultTable t("test", {"x", "y"});
  t.add_row("a", {1.5, 0.5});
  t.add_row("b", {1.5, 0.5});
  t.add_geomean_row("gm");
  EXPECT_NEAR(t.rows().back().second[0], 1.5, 1e-12);
  EXPECT_NEAR(t.rows().back().second[1], 0.5, 1e-12);
}

}  // namespace
}  // namespace steins
