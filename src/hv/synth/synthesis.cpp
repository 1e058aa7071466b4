#include "hv/synth/synthesis.h"

#include "hv/util/error.h"
#include "hv/util/stopwatch.h"

namespace hv::synth {

std::string Candidate::to_string() const {
  std::string out;
  if (a != 0) {
    if (a != 1) out += std::to_string(a) + "*";
    out += "t";
  }
  if (b != 0) {
    if (!out.empty()) out += " + ";
    out += std::to_string(b);
  }
  if (out.empty()) out += '0';
  if (c != 0) out += " - f";
  return out;
}

std::vector<Candidate> default_candidates(int max_a, int max_b) {
  std::vector<Candidate> candidates;
  for (int a = 0; a <= max_a; ++a) {
    for (int b = 0; b <= max_b; ++b) {
      if (a == 0 && b == 0) continue;  // "shared >= -c*f" is trivially true
      for (int c = 0; c <= 1; ++c) {
        candidates.push_back({a, b, c});
      }
    }
  }
  return candidates;
}

namespace {

void enumerate(const std::vector<HoleSpace>& holes, std::size_t index,
               std::vector<Candidate>& assignment,
               const std::function<bool(const std::vector<Candidate>&)>& visit, bool& stop) {
  if (stop) return;
  if (index == holes.size()) {
    if (!visit(assignment)) stop = true;
    return;
  }
  for (const Candidate& candidate : holes[index].candidates) {
    assignment.push_back(candidate);
    enumerate(holes, index + 1, assignment, visit, stop);
    assignment.pop_back();
    if (stop) return;
  }
}

}  // namespace

SynthesisResult synthesize(const std::vector<HoleSpace>& holes, const InstanceFactory& factory,
                           const SynthesisOptions& options) {
  const Stopwatch stopwatch;
  SynthesisResult result;
  std::vector<Candidate> assignment;
  bool stop = false;
  enumerate(holes, 0, assignment, [&](const std::vector<Candidate>& candidate) {
    ++result.candidates_tried;
    Evaluation evaluation;
    evaluation.assignment = candidate;
    const std::optional<Instance> instance = factory(candidate);
    if (!instance) {
      evaluation.failed_property = "(rejected by the sketch factory)";
      evaluation.failed_verdict = checker::Verdict::kUnknown;
      result.evaluations.push_back(std::move(evaluation));
      return true;
    }
    evaluation.works = true;
    for (const spec::Property& property : instance->properties) {
      const checker::PropertyResult outcome =
          checker::check_property(instance->automaton, property, options.check);
      if (outcome.verdict != checker::Verdict::kHolds) {
        evaluation.works = false;
        evaluation.failed_property = property.name;
        evaluation.failed_verdict = outcome.verdict;
        break;
      }
    }
    if (evaluation.works) result.solutions.push_back(candidate);
    result.evaluations.push_back(std::move(evaluation));
    return options.max_solutions == 0 ||
           static_cast<int>(result.solutions.size()) < options.max_solutions;
  }, stop);
  result.seconds = stopwatch.seconds();
  return result;
}

}  // namespace hv::synth
