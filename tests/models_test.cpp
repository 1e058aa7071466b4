#include "hv/models/bv_broadcast.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "hv/ta/parser.h"
#include "hv/util/text.h"

#include "hv/checker/guard_analysis.h"
#include "hv/models/naive_consensus.h"
#include "hv/models/simplified_consensus.h"
#include "hv/models/st_broadcast.h"
#include "hv/checker/parameterized.h"

namespace hv::models {
namespace {

// Table 2 reports the automaton sizes; our models must match exactly.

TEST(BvBroadcastModelTest, SizesMatchTable2) {
  const ta::ThresholdAutomaton ta = bv_broadcast();
  EXPECT_EQ(ta.location_count(), 10);
  EXPECT_EQ(ta.rule_count(), 19);
  EXPECT_EQ(ta.unique_guard_atoms().size(), 4u);
  EXPECT_EQ(ta.initial_locations().size(), 2u);
  EXPECT_EQ(ta.shared_variables().size(), 2u);
  EXPECT_EQ(ta.parameters().size(), 3u);
  EXPECT_NO_THROW(ta.validate());
}

TEST(BvBroadcastModelTest, SevenSelfLoops) {
  const ta::ThresholdAutomaton ta = bv_broadcast();
  int self_loops = 0;
  for (ta::RuleId id = 0; id < ta.rule_count(); ++id) {
    if (ta.rule(id).is_self_loop()) ++self_loops;
  }
  EXPECT_EQ(self_loops, 7);
}

TEST(BvBroadcastModelTest, EightProperties) {
  const ta::ThresholdAutomaton ta = bv_broadcast();
  const auto properties = bv_properties(ta);
  ASSERT_EQ(properties.size(), 7u);  // Just0/1, Obl0/1, Unif0/1, Term
  int liveness = 0;
  for (const auto& property : properties) liveness += property.is_liveness ? 1 : 0;
  EXPECT_EQ(liveness, 5);
}

TEST(BvBroadcastModelTest, Table1Semantics) {
  const auto rows = bv_location_semantics();
  ASSERT_EQ(rows.size(), 10u);
  const ta::ThresholdAutomaton ta = bv_broadcast();
  for (const auto& row : rows) {
    EXPECT_TRUE(ta.find_location(row.location).has_value()) << row.location;
  }
}

TEST(BvBroadcastModelTest, WeakenedVariantDiffersOnlyInResilience) {
  const ta::ThresholdAutomaton strong = bv_broadcast();
  const ta::ThresholdAutomaton weak = bv_broadcast_weakened();
  EXPECT_EQ(strong.location_count(), weak.location_count());
  EXPECT_EQ(strong.rule_count(), weak.rule_count());
}

TEST(SimplifiedModelTest, SizesMatchTable2) {
  const ta::ThresholdAutomaton ta = simplified_consensus_one_round();
  EXPECT_EQ(ta.location_count(), 16);
  EXPECT_EQ(ta.rule_count(), 37);
  EXPECT_EQ(ta.unique_guard_atoms().size(), 10u);
  EXPECT_NO_THROW(ta.validate());
}

TEST(SimplifiedModelTest, FourteenSelfLoops) {
  const ta::ThresholdAutomaton ta = simplified_consensus_one_round();
  int self_loops = 0;
  for (ta::RuleId id = 0; id < ta.rule_count(); ++id) {
    if (ta.rule(id).is_self_loop()) ++self_loops;
  }
  EXPECT_EQ(self_loops, 14);
}

TEST(SimplifiedModelTest, RoundSwitchesPreserveEstimates) {
  const ta::MultiRoundTa multi = simplified_consensus();
  ASSERT_EQ(multi.switches().size(), 3u);
  const auto& body = multi.body();
  // D0 (decided 0) and E0x (estimate 0) restart at V0; E1x at V1.
  for (const auto& edge : multi.switches()) {
    const std::string& from = body.location(edge.from).name;
    const std::string& to = body.location(edge.to).name;
    if (from == "D0" || from == "E0x") {
      EXPECT_EQ(to, "V0");
    } else {
      EXPECT_EQ(from, "E1x");
      EXPECT_EQ(to, "V1");
    }
  }
  // The reduction's initial locations stay {V0, V1}.
  EXPECT_EQ(multi.one_round_reduction().initial_locations().size(), 2u);
}

TEST(SimplifiedModelTest, NineProperties) {
  const ta::ThresholdAutomaton ta = simplified_consensus_one_round();
  const auto properties = simplified_properties(ta);
  EXPECT_EQ(properties.size(), 9u);
  const auto table2 = simplified_table2_properties(ta);
  ASSERT_EQ(table2.size(), 5u);
  EXPECT_EQ(table2[0].name, "Inv1_0");
  EXPECT_EQ(table2[2].name, "SRoundTerm");
  EXPECT_TRUE(table2[2].is_liveness);
}

TEST(NaiveModelTest, SizesMatchTable2) {
  const ta::ThresholdAutomaton ta = naive_consensus_one_round();
  EXPECT_EQ(ta.location_count(), 24);
  EXPECT_EQ(ta.rule_count(), 45);
  EXPECT_EQ(ta.unique_guard_atoms().size(), 14u);
  EXPECT_NO_THROW(ta.validate());
}

TEST(NaiveModelTest, RuleTableCoversFirstHalf) {
  const ta::ThresholdAutomaton ta = naive_consensus_one_round();
  const auto rows = naive_rule_table(ta);
  // Table 3 groups the 22 first-half rules into rows; every rule name must
  // appear exactly once across the rows.
  std::string all;
  for (const auto& row : rows) all += row.rules + ", ";
  for (int i = 1; i <= 22; ++i) {
    EXPECT_NE(all.find(numbered("r", i)), std::string::npos) << i;
  }
  EXPECT_GE(rows.size(), 10u);
  EXPECT_LE(rows.size(), 22u);
}

TEST(NaiveModelTest, ThreeTable2Properties) {
  const ta::ThresholdAutomaton ta = naive_consensus_one_round();
  const auto properties = naive_table2_properties(ta);
  ASSERT_EQ(properties.size(), 3u);
  EXPECT_EQ(properties[2].name, "SRoundTerm");
}

TEST(StBroadcastModelTest, StructureAndProperties) {
  const ta::ThresholdAutomaton ta = st_broadcast();
  EXPECT_EQ(ta.location_count(), 4);
  EXPECT_EQ(ta.rule_count(), 6);
  EXPECT_EQ(ta.unique_guard_atoms().size(), 2u);
  EXPECT_NO_THROW(ta.validate());
  const auto properties = st_properties(ta);
  ASSERT_EQ(properties.size(), 3u);
  EXPECT_FALSE(properties[0].is_liveness);  // Unforg
  EXPECT_TRUE(properties[1].is_liveness);   // Corr
  EXPECT_TRUE(properties[2].is_liveness);   // Relay
}

TEST(StBroadcastModelTest, AllPropertiesVerify) {
  const ta::ThresholdAutomaton ta = st_broadcast();
  for (const auto& property : st_properties(ta)) {
    const auto result = checker::check_property(ta, property);
    EXPECT_EQ(result.verdict, checker::Verdict::kHolds) << property.name;
  }
}

// The .ta files shipped under models/ must stay in sync with the built-in
// model objects (they are generated from them).
TEST(ModelsTest, ShippedModelFilesParseAndMatch) {
  const auto load = [](const char* name) {
    std::ifstream file(std::string(HV_REPO_DIR) + "/models/" + name);
    EXPECT_TRUE(file.is_open()) << name;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return ta::parse_ta(buffer.str());
  };
  const ta::MultiRoundTa bv = load("bv_broadcast.ta");
  EXPECT_EQ(bv.body().rule_count(), bv_broadcast().rule_count());
  EXPECT_EQ(bv.body().location_count(), bv_broadcast().location_count());
  const ta::MultiRoundTa simplified = load("simplified_consensus.ta");
  EXPECT_EQ(simplified.body().rule_count(), simplified_consensus().body().rule_count());
  EXPECT_EQ(simplified.switches().size(), 3u);
  const ta::MultiRoundTa naive = load("naive_consensus.ta");
  EXPECT_EQ(naive.body().rule_count(), naive_consensus().body().rule_count());
  const ta::MultiRoundTa st = load("st_broadcast.ta");
  EXPECT_EQ(st.body().location_count(), 4);
}

TEST(ModelsTest, GuardAnalysisBuildsForAllModels) {
  // Guard analysis (including exact implication checks) must succeed on all
  // three automata; it is the entry point of the checker.
  EXPECT_EQ(checker::GuardAnalysis(bv_broadcast()).guard_count(), 4);
  EXPECT_EQ(checker::GuardAnalysis(simplified_consensus_one_round()).guard_count(), 10);
  EXPECT_EQ(checker::GuardAnalysis(naive_consensus_one_round()).guard_count(), 14);
}

}  // namespace
}  // namespace hv::models
