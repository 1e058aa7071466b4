// The one JSON codec of a settled schema: its SchemaRecord plus the
// counters and evidence of its solve (UnitOutcome, result.h). A fleet worker's `record`/`sat` frame (hv/dist/protocol.h
// lists its fields) and a journal line (journal.h) are both this object;
// they differ only in the head fields after "type": a frame names its lease
// and the property's index, a journal line the property's name. A proof is
// a stand-alone proof tree (smt/proof_json.h). Counterexamples travel by
// raw rule, variable and location ids: the fleet's handshake and the
// journal header check the model hash, so both ends number them alike.
#ifndef HV_CHECKER_RECORD_H
#define HV_CHECKER_RECORD_H

#include "hv/checker/result.h"
#include "hv/checker/schema.h"
#include "hv/util/json.h"

namespace hv::checker {

/// The settled-schema object of `record`: "type", then the `head` fields in
/// order, then the record's own. `solve` supplies the rest: the counters
/// (length, pivots, fast, big, retries, and hits/learned when nonzero), the
/// note, the witness or its validation error, the model and the proof.
Json record_to_json(const SchemaRecord& record, const UnitOutcome& solve, Json::Object head);

/// Inverse of record_to_json, ignoring the head fields; the counters, note,
/// witness, model and proof land in `*solve`. Throws hv::InvalidArgument on
/// a missing or mistyped field, on a negative length, pivots, fast, big,
/// retries, hits or learned count, and on a verdict outside the pruned,
/// unsat and unknown spellings of record.cpp (only a `sat`-type object
/// claims sat): such a record is malformed, never counted.
SchemaRecord record_from_json(const Json& object, UnitOutcome* solve);

}  // namespace hv::checker

#endif  // HV_CHECKER_RECORD_H
