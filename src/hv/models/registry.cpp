#include "hv/models/registry.h"

#include <algorithm>
#include <utility>

#include "hv/models/bv_broadcast.h"
#include "hv/models/naive_consensus.h"
#include "hv/models/simplified_consensus.h"
#include "hv/models/st_broadcast.h"
#include "hv/util/error.h"

namespace hv::models {

namespace {

// The Table-2 rows of the two consensus automata; the broadcast automata
// default to their full bundled sets.
const char* const kSimplifiedTable2[] = {"Inv1_0", "Inv2_0", "SRoundTerm", "Good_0", "Dec_0"};

}  // namespace

ta::ThresholdAutomaton builtin_model(const std::string& key) {
  if (key == "bv_broadcast") return bv_broadcast();
  if (key == "st_broadcast") return st_broadcast();
  if (key == "simplified_consensus") return simplified_consensus_one_round();
  if (key == "naive_consensus") return naive_consensus_one_round();
  throw InvalidArgument("certificate: unknown builtin model '" + key + "'");
}

bool has_bundled_properties(const std::string& automaton_name) {
  return automaton_name == "BvBroadcast" || automaton_name == "StBroadcast" ||
         automaton_name == "SimplifiedConsensus" || automaton_name == "NaiveConsensus";
}

std::vector<spec::Property> bundled_properties(const ta::ThresholdAutomaton& ta,
                                               bool table2_defaults) {
  const std::string& name = ta.name();
  if (name == "BvBroadcast") return bv_properties(ta);
  if (name == "StBroadcast") return st_properties(ta);
  if (name == "NaiveConsensus") return naive_table2_properties(ta);
  if (name == "SimplifiedConsensus") {
    std::vector<spec::Property> all = simplified_properties(ta);
    if (!table2_defaults) return all;
    std::vector<spec::Property> subset;
    for (const char* wanted : kSimplifiedTable2) {
      const auto it = std::find_if(all.begin(), all.end(), [&](const spec::Property& p) {
        return p.name == wanted;
      });
      if (it == all.end()) throw InternalError("bundled Table-2 property missing: " +
                                               std::string(wanted));
      subset.push_back(std::move(*it));
    }
    return subset;
  }
  throw InvalidArgument("certificate: no bundled properties for automaton '" + name + "'");
}

const Theorem6Dependencies& theorem6_dependencies() {
  static const Theorem6Dependencies table{
      {"Inv1_0", "Inv1_1", "Inv2_0", "Inv2_1"},
      {"Inv2_0", "Inv2_1"},
      {"SRoundTerm", "Dec_0", "Dec_1", "Good_0", "Good_1"},
  };
  return table;
}

}  // namespace hv::models
