// ScenarioConfig: the text scenario parser and the single validation path
// every construction route funnels through.
#include "stack/scenario.hpp"

#include <gtest/gtest.h>

#include "netsim/shard.hpp"
#include "stack/topology.hpp"

namespace smt::stack {
namespace {

TEST(ScenarioParseTest, FullScenarioRoundTrips) {
  const auto parsed = ScenarioConfig::parse(R"(
# A 3-tier incast fabric.
[topology]
racks = 8
hosts_per_rack = 16
spines = 4
aggs_per_pod = 2
racks_per_pod = 4
oversubscription = 4.0

[host]
app_cores = 4
softirq_cores = 2
nic_queues = 4
tso = true

[edge_link]
bandwidth_gbps = 100
propagation_us = 1.5

[switch]
queue_capacity_bytes = 131072
trimming = true

[workload]
transport = homa
request_bytes = 16384
response_bytes = 64
concurrency = 2
ops_per_client = 8
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const ScenarioConfig& config = parsed.value();
  EXPECT_EQ(config.topology.racks, 8u);
  EXPECT_EQ(config.topology.hosts_per_rack, 16u);
  EXPECT_EQ(config.topology.spines, 4u);
  EXPECT_EQ(config.topology.aggs_per_pod, 2u);
  EXPECT_EQ(config.topology.racks_per_pod, 4u);
  EXPECT_DOUBLE_EQ(config.topology.oversubscription, 4.0);
  EXPECT_EQ(config.host.app_cores, 4u);
  EXPECT_EQ(config.host.nic.num_queues, 4u);
  EXPECT_TRUE(config.host.nic.tso_enabled);
  EXPECT_EQ(config.host.nic.max_segment_bytes(), 65536u);
  EXPECT_DOUBLE_EQ(config.edge_link.bandwidth_gbps, 100.0);
  EXPECT_EQ(config.edge_link.propagation, nsec(1500));
  EXPECT_EQ(config.switch_config.queue_capacity_bytes, 131072u);
  EXPECT_EQ(config.workload.transport, "homa");
  EXPECT_EQ(config.workload.request_bytes, 16384u);
  EXPECT_EQ(config.workload.concurrency, 2u);
}

TEST(ScenarioParseTest, EmptyTextYieldsDefaults) {
  const auto parsed = ScenarioConfig::parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(direct(parsed.value().topology));
  EXPECT_EQ(parsed.value().topology.host_count(), 2u);
}

TEST(ScenarioParseTest, UnknownKeyReportsLineNumber) {
  const auto parsed = ScenarioConfig::parse(
      "[topology]\n"
      "racks = 2\n"
      "rakcs = 4\n");  // typo must be a hard error, not a silent default
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.code(), Errc::invalid_argument);
  EXPECT_NE(parsed.error().message.find("line 3"), std::string::npos)
      << parsed.error().message;
  EXPECT_NE(parsed.error().message.find("rakcs"), std::string::npos);
}

TEST(ScenarioParseTest, RemovedKeysAndSectionsReportLineNumbers) {
  // Settings the simulator does not have (fabric wires take the edge
  // link's rate and propagation; a switch port's rate, the forwarding
  // latency and the ECMP seed are not configuration): each is a hard
  // error on its own line, never a silently ignored setting.
  struct Case {
    const char* text;
    const char* name;
  };
  for (const Case& c : {
           Case{"[topology]\nracks = 1\nvia_tor = true\n", "via_tor"},
           Case{"[topology]\nracks = 1\necmp_seed = 42\n", "ecmp_seed"},
           Case{"[switch]\ntrimming = true\nport_bandwidth_gbps = 1\n",
                "port_bandwidth_gbps"},
           Case{"[switch]\ntrimming = true\nforwarding_latency_ns = 300\n",
                "forwarding_latency_ns"},
           Case{"[edge_link]\nbandwidth_gbps = 100\n[fabric_link]\n",
                "fabric_link"},
       }) {
    const auto parsed = ScenarioConfig::parse(c.text);
    ASSERT_FALSE(parsed.ok()) << c.name;
    EXPECT_EQ(parsed.code(), Errc::invalid_argument) << c.name;
    EXPECT_NE(parsed.error().message.find("line 3"), std::string::npos)
        << parsed.error().message;
    EXPECT_NE(parsed.error().message.find(c.name), std::string::npos)
        << parsed.error().message;
  }
}

TEST(ScenarioParseTest, UnknownSectionRejected) {
  const auto parsed = ScenarioConfig::parse("[linc]\nbandwidth_gbps = 10\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("unknown section"), std::string::npos);
}

TEST(ScenarioParseTest, KeyOutsideSectionRejected) {
  const auto parsed = ScenarioConfig::parse("racks = 2\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("outside any"), std::string::npos);
}

TEST(ScenarioParseTest, MalformedValueRejected) {
  const auto parsed = ScenarioConfig::parse("[topology]\nracks = many\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("unsigned integer"), std::string::npos);
}

TEST(ScenarioParseTest, ParsedShapeStillValidated) {
  // Parsing succeeds syntactically but the shape is impossible: the same
  // validation path used by the fluent builder rejects it.
  const auto parsed = ScenarioConfig::parse("[topology]\nracks = 4\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.code(), Errc::invalid_argument);
}

TEST(ScenarioParseTest, LoadFileReportsMissingPath) {
  const auto loaded = ScenarioConfig::load_file("/nonexistent/scenario.toml");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("cannot open"), std::string::npos);
}

TEST(ScenarioValidateTest, SingleValidationPathCatchesEachLayer) {
  ScenarioConfig config;
  EXPECT_TRUE(config.validate().ok());

  config.host.app_cores = 0;
  EXPECT_EQ(config.validate().code(), Errc::invalid_argument);
  config.host.app_cores = 1;

  config.edge_link.fault.good_loss_rate = 1.5;
  EXPECT_EQ(config.validate().code(), Errc::invalid_argument);
  config.edge_link.fault.good_loss_rate = 0.0;

  config.switch_config.queue_capacity_bytes = 0;
  EXPECT_EQ(config.validate().code(), Errc::invalid_argument);
  config.switch_config.queue_capacity_bytes = 64 * 1024;

  config.workload.concurrency = 0;
  EXPECT_EQ(config.validate().code(), Errc::invalid_argument);
  config.workload.concurrency = 1;

  config.topology.racks = 2;  // two racks need a spine tier
  EXPECT_EQ(config.validate().code(), Errc::invalid_argument);
  config.topology.racks = 1;

  EXPECT_TRUE(config.validate().ok());
}

TEST(ScenarioParseTest, FaultSectionParsesIntoEdgeLink) {
  const auto parsed = ScenarioConfig::parse(R"(
[fault]
good_to_bad = 0.02
bad_to_good = 0.2
bad_loss_rate = 0.6
corrupt_rate = 0.001
reorder_rate = 0.1
reorder_jitter_us = 50
flap_period_us = 2000
flap_down_us = 200
flap_offset_us = 100
seed = 99
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const sim::FaultProfile& f = parsed.value().edge_link.fault;
  EXPECT_DOUBLE_EQ(f.p_good_to_bad, 0.02);
  EXPECT_DOUBLE_EQ(f.p_bad_to_good, 0.2);
  EXPECT_DOUBLE_EQ(f.bad_loss_rate, 0.6);
  EXPECT_DOUBLE_EQ(f.corrupt_rate, 0.001);
  EXPECT_DOUBLE_EQ(f.reorder_rate, 0.1);
  EXPECT_EQ(f.reorder_jitter, usec(50));
  EXPECT_EQ(f.flap_period, msec(2));
  EXPECT_EQ(f.flap_down, usec(200));
  EXPECT_EQ(f.flap_offset, usec(100));
  EXPECT_EQ(f.seed, 99u);
  EXPECT_TRUE(f.enabled());
}

TEST(ScenarioParseTest, FaultSectionRejectsBadValues) {
  // Out-of-range probability, with the line-numbered error discipline.
  auto bad_prob = ScenarioConfig::parse("[fault]\ncorrupt_rate = 1.5\n");
  ASSERT_FALSE(bad_prob.ok());
  EXPECT_NE(bad_prob.error().message.find("probabilities"),
            std::string::npos);
  // A down interval with no period is meaningless.
  auto no_period = ScenarioConfig::parse("[fault]\nflap_down_us = 10\n");
  ASSERT_FALSE(no_period.ok());
  // down >= period would mean the link never comes up.
  auto always_down = ScenarioConfig::parse(
      "[fault]\nflap_period_us = 10\nflap_down_us = 10\n");
  ASSERT_FALSE(always_down.ok());
  // Unknown fault key reports its line.
  auto unknown = ScenarioConfig::parse("[fault]\nnope = 1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("line 2"), std::string::npos);
}

TEST(ScenarioParseTest, FabricFaultSectionParsesAndRequiresFabric) {
  const auto parsed = ScenarioConfig::parse(R"(
[topology]
racks = 4
hosts_per_rack = 2
spines = 2

[fabric_fault]
flap_period_us = 2000
flap_down_us = 300
good_to_bad = 0.005
bad_to_good = 0.05
bad_loss_rate = 0.5
seed = 21

[switch]
dark_threshold = 2
probe_interval_us = 500
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const ScenarioConfig& config = parsed.value();
  ASSERT_TRUE(config.fabric_fault.has_value());
  EXPECT_EQ(config.fabric_fault->flap_period, msec(2));
  EXPECT_EQ(config.fabric_fault->flap_down, usec(300));
  EXPECT_DOUBLE_EQ(config.fabric_fault->p_good_to_bad, 0.005);
  EXPECT_DOUBLE_EQ(config.fabric_fault->bad_loss_rate, 0.5);
  EXPECT_EQ(config.fabric_fault->seed, 21u);
  // The edge fault stays untouched — [fabric_fault] is core-only.
  EXPECT_FALSE(config.edge_link.fault.enabled());
  EXPECT_EQ(config.switch_config.health_dark_threshold, 2u);
  EXPECT_EQ(config.switch_config.health_probe_interval, usec(500));
}

TEST(ScenarioParseTest, FabricFaultWithoutFabricTierRejected) {
  // The default 2-host shape has no switch-to-switch links to impair.
  const auto parsed = ScenarioConfig::parse(
      "[fabric_fault]\nflap_period_us = 2000\nflap_down_us = 300\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("needs a fabric tier"),
            std::string::npos)
      << parsed.error().message;
  EXPECT_NE(parsed.error().message.find("[fault] covers the edge links"),
            std::string::npos);
}

TEST(ScenarioParseTest, FabricFaultBadValuesReportLineNumbers) {
  // Every [fabric_fault] key error carries its line number.
  auto bad = ScenarioConfig::parse(
      "[fabric_fault]\nflap_period_us = 2000\nbad_loss_rate = nope\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("line 3"), std::string::npos)
      << bad.error().message;
  auto unknown = ScenarioConfig::parse("[fabric_fault]\nnope = 1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("line 2"), std::string::npos);
  // Range/shape validation applies identically to the fabric profile,
  // named by its own section.
  auto range = ScenarioConfig::parse(
      "[topology]\nracks = 4\nhosts_per_rack = 2\nspines = 2\n"
      "[fabric_fault]\ncorrupt_rate = 1.5\n");
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.error().message.find("fabric_fault"), std::string::npos)
      << range.error().message;
}

TEST(ScenarioParseTest, EdgeFaultSectionCannotNameALink) {
  // [fault] is edge-only: naming a link target must point at
  // [fabric_fault] instead of silently impairing the wrong tier.
  for (const char* key : {"link", "target", "scope"}) {
    const auto parsed = ScenarioConfig::parse(
        std::string("[fault]\n") + key + " = spine0\n");
    ASSERT_FALSE(parsed.ok()) << key;
    EXPECT_NE(parsed.error().message.find("edge-only"), std::string::npos)
        << parsed.error().message;
    EXPECT_NE(parsed.error().message.find("[fabric_fault]"),
              std::string::npos);
  }
}

TEST(ScenarioParseTest, FaultKeysInLinkSectionsPointAtFaultSections) {
  const auto edge = ScenarioConfig::parse("[edge_link]\nflap_period_us = 10\n");
  ASSERT_FALSE(edge.ok());
  EXPECT_NE(edge.error().message.find("[fault]"), std::string::npos)
      << edge.error().message;
}

TEST(ScenarioParseTest, LinkLossKeysPointAtTheFaultModel) {
  // Uniform loss has one home, the fault model's good state: a loss key
  // in a link section is a pointed error, not a silently ignored one.
  for (const char* text :
       {"[edge_link]\nloss_rate = 0.1\n", "[edge_link]\nloss_seed = 3\n"}) {
    const auto parsed = ScenarioConfig::parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.error().message.find("[fault] good_loss_rate"),
              std::string::npos)
        << parsed.error().message;
    EXPECT_NE(parsed.error().message.find("seed"), std::string::npos);
  }
}

TEST(ScenarioFileTest, EveryShippedScenarioLoadsAndBuilds) {
  struct Shipped {
    const char* file;
    std::size_t hosts;
    bool fabric_fault;
  };
  for (const Shipped& s : {Shipped{"two_host.toml", 2, false},
                           Shipped{"incast_128.toml", 128, false},
                           Shipped{"core_flap_128.toml", 128, true},
                           Shipped{"adversity_burst_flap.toml", 2, false}}) {
    SCOPED_TRACE(s.file);
    const auto loaded = ScenarioConfig::load_file(
        std::string(SMT_SOURCE_DIR "/tools/scenarios/") + s.file);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    const ScenarioConfig& scenario = loaded.value();
    EXPECT_TRUE(scenario.validate().ok());
    EXPECT_EQ(scenario.fabric_fault.has_value(), s.fabric_fault);
    sim::ShardedEngine engine(1);
    auto built = TopologyBuilder(scenario).build(engine);
    ASSERT_TRUE(built.ok()) << built.error().message;
    EXPECT_EQ(built.value()->host_count(), s.hosts);
  }
}

TEST(ScenarioValidateTest, HealthKnobsValidated) {
  ScenarioConfig config;
  config.switch_config.health_dark_threshold = 2;
  config.switch_config.health_probe_interval = 0;
  EXPECT_EQ(config.validate().code(), Errc::invalid_argument);
  config.switch_config.health_probe_interval = usec(100);
  EXPECT_TRUE(config.validate().ok());
}

}  // namespace
}  // namespace smt::stack
