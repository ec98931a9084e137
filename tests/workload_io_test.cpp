// Tests for the demand-file format (workload/io.h).
#include <gtest/gtest.h>

#include <filesystem>

#include "topology/catalog.h"
#include "workload/demand_gen.h"
#include "workload/io.h"

namespace bate {
namespace {

struct Fixture {
  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);
};

TEST(DemandIo, RoundTripsGeneratedWorkload) {
  Fixture fx;
  WorkloadConfig cfg;
  cfg.horizon_min = 20.0;
  cfg.services = testbed_services();
  cfg.seed = 3;
  const auto demands = generate_demands(fx.catalog, cfg);
  ASSERT_FALSE(demands.empty());

  const auto text = demands_to_text(fx.topo, fx.catalog, demands);
  const auto parsed = demands_from_text(fx.topo, fx.catalog, text);
  ASSERT_EQ(parsed.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(parsed[i].id, demands[i].id);
    ASSERT_EQ(parsed[i].pairs.size(), demands[i].pairs.size());
    EXPECT_EQ(parsed[i].pairs[0].pair, demands[i].pairs[0].pair);
    EXPECT_DOUBLE_EQ(parsed[i].pairs[0].mbps, demands[i].pairs[0].mbps);
    EXPECT_DOUBLE_EQ(parsed[i].availability_target,
                     demands[i].availability_target);
    EXPECT_DOUBLE_EQ(parsed[i].charge, demands[i].charge);
    EXPECT_DOUBLE_EQ(parsed[i].refund_fraction, demands[i].refund_fraction);
    EXPECT_DOUBLE_EQ(parsed[i].arrival_minute, demands[i].arrival_minute);
    EXPECT_DOUBLE_EQ(parsed[i].duration_minutes,
                     demands[i].duration_minutes);
  }
}

TEST(DemandIo, MultiPairDemandsGroupById) {
  Fixture fx;
  const auto demands = demands_from_text(
      fx.topo, fx.catalog,
      "demand 7 DC1 DC3 100 0.99\n"
      "demand 7 DC1 DC5 200 0.99\n");
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(demands[0].charge, 300.0);  // unit-price default
}

TEST(DemandIo, DefaultsAndOptions) {
  Fixture fx;
  const auto demands = demands_from_text(
      fx.topo, fx.catalog,
      "demand 1 DC1 DC2 150 0.95 charge=999 refund=0.5 arrival=3 "
      "duration=42\n");
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_DOUBLE_EQ(demands[0].charge, 999.0);
  EXPECT_DOUBLE_EQ(demands[0].refund_fraction, 0.5);
  EXPECT_DOUBLE_EQ(demands[0].arrival_minute, 3.0);
  EXPECT_DOUBLE_EQ(demands[0].duration_minutes, 42.0);
}

TEST(DemandIo, RejectsMalformedInput) {
  Fixture fx;
  const char* bad[] = {
      "flow 1 DC1 DC2 10 0.9\n",              // unknown directive
      "demand 1 DC1 DC9 10 0.9\n",            // unknown node
      "demand 1 DC1 DC2 -5 0.9\n",            // bad bandwidth
      "demand 1 DC1 DC2 10 1.5\n",            // bad availability
      "demand 1 DC1 DC2 10 0.9 bogus\n",      // malformed option
      "demand 1 DC1 DC2 10 0.9 charge=abc\n", // bad number
      "demand 1 DC1 DC2 10 0.9 refund=1.5\n", // refund outside [0, 1]
      "demand 1 DC1 DC2 10 0.9 refund=nan\n",
      // Six pairs of four tunnels each: 24 tunnels, past kMaxPatternTunnels.
      "demand 1 DC1 DC2 10 0.9\ndemand 1 DC1 DC3 10 0.9\n"
      "demand 1 DC1 DC4 10 0.9\ndemand 1 DC1 DC5 10 0.9\n"
      "demand 1 DC1 DC6 10 0.9\ndemand 1 DC2 DC3 10 0.9\n",
  };
  for (const char* text : bad) {
    EXPECT_THROW(demands_from_text(fx.topo, fx.catalog, text),
                 std::invalid_argument)
        << text;
  }
  // Conflicting availability across lines of one demand.
  EXPECT_THROW(demands_from_text(fx.topo, fx.catalog,
                                 "demand 1 DC1 DC2 10 0.9\n"
                                 "demand 1 DC1 DC3 10 0.95\n"),
               std::invalid_argument);
}

TEST(DemandIo, FileHelpers) {
  Fixture fx;
  const auto path =
      std::filesystem::temp_directory_path() / "bate_demand_io_test.txt";
  std::vector<Demand> demands(1);
  demands[0].id = 1;
  demands[0].pairs = {{fx.catalog.pair_index({0, 2}), 123.0}};
  demands[0].availability_target = 0.99;
  demands[0].charge = 123.0;
  save_demands(fx.topo, fx.catalog, demands, path.string());
  const auto loaded = load_demands(fx.topo, fx.catalog, path.string());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].pairs[0].mbps, 123.0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace bate
