// Vector (superblock) consensus — how the Red Belly Blockchain actually
// uses DBFT: every process reliably broadcasts its proposal, n binary DBFT
// instances decide which proposals enter the agreed vector, and all correct
// processes end with the same superblock containing at least n - t
// proposals.
//
// Per process:
//   * one Bracha RBC instance per proposer disseminates proposals;
//   * binary instance j starts with input 1 when proposal j is RBC-
//     delivered; once n - t instances have decided 1, the remaining
//     instances are started (or restarted conceptually) with input 0;
//   * the vector is final when every binary instance has decided: it maps
//     each instance that decided 1 to its RBC-delivered proposal (RBC
//     totality guarantees the proposal arrives if any correct process had
//     it).
#ifndef HV_ALGO_VECTOR_CONSENSUS_H
#define HV_ALGO_VECTOR_CONSENSUS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "hv/algo/dbft.h"
#include "hv/algo/reliable_broadcast.h"
#include "hv/sim/message.h"

namespace hv::algo {

class VectorConsensusProcess {
 public:
  using SendFn = std::function<void(sim::Message)>;

  VectorConsensusProcess(sim::ProcessId id, std::int32_t proposal, const DbftConfig& config,
                         SendFn send);

  /// Broadcasts the proposal (RBC INIT) and waits for deliveries.
  void start();

  void on_message(const sim::Message& message);

  sim::ProcessId id() const noexcept { return id_; }

  /// The agreed vector, by proposer id, once every binary instance decided;
  /// entries are the included proposals. nullopt until then.
  std::optional<std::map<sim::ProcessId, std::int32_t>> decision() const;

  /// Binary decision of one instance, if reached.
  std::optional<int> instance_decision(int instance) const;
  int decided_one_count() const;

 private:
  void start_instance(int instance, int input);
  void maybe_close_remaining();
  void handle_rbc(const sim::Message& message);

  sim::ProcessId id_;
  std::int32_t proposal_;
  DbftConfig config_;
  SendFn send_;
  std::vector<RbcInstance> rbc_;                      // by proposer
  std::vector<std::unique_ptr<DbftProcess>> binary_;  // by proposer (lazy)
  std::vector<std::vector<sim::Message>> buffered_;   // per unstarted instance
  bool closed_remaining_ = false;
};

}  // namespace hv::algo

#endif  // HV_ALGO_VECTOR_CONSENSUS_H
