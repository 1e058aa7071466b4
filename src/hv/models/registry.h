// The registry of the models bundled with the library: the builtin automata
// a certificate can name, each automaton's bundled properties, and the
// Theorem-6 dependency table the pipeline and the auditor compose from.
#ifndef HV_MODELS_REGISTRY_H
#define HV_MODELS_REGISTRY_H

#include <string>
#include <vector>

#include "hv/spec/query.h"
#include "hv/ta/automaton.h"

namespace hv::models {

/// The models bundled with the library, by certificate key:
/// "bv_broadcast", "st_broadcast", "simplified_consensus" (one-round
/// reduction), "naive_consensus" (one-round reduction). Throws
/// InvalidArgument on an unknown key.
ta::ThresholdAutomaton builtin_model(const std::string& key);

/// True iff bundled_properties() knows the automaton (by its name, e.g.
/// "SimplifiedConsensus" — the .ta files and the builtin factories agree).
bool has_bundled_properties(const std::string& automaton_name);

/// The bundled property set for an automaton, compiled against `ta`. With
/// `table2_defaults`, restricts to the default `hvc check` set (the Table-2
/// rows for the consensus automata; every property otherwise). Throws
/// InvalidArgument when the automaton has no bundled set.
std::vector<spec::Property> bundled_properties(const ta::ThresholdAutomaton& ta,
                                               bool table2_defaults = false);

/// Theorem 6's dependency table: the simplified-consensus properties each
/// composed verdict rests on. Every verdict also rests on all bv-broadcast
/// properties, which justify the gadget inside the simplified automaton.
struct Theorem6Dependencies {
  /// [10, Proposition 2]: Inv1_v and Inv2_v imply Agree_v and Valid_v.
  std::vector<std::string> agreement;
  std::vector<std::string> validity;
  /// Fairness (Def. 3) gives a good round; Corollary 5 turns it into an
  /// empty M0 (or M1x) superround; (Good) and (Dec) then force every process
  /// to decide, and (SRoundTerm) makes the termination formula well-formed.
  std::vector<std::string> termination;
};
const Theorem6Dependencies& theorem6_dependencies();

}  // namespace hv::models

#endif  // HV_MODELS_REGISTRY_H
