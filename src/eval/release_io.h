// JSON serialization of private releases
// ([{"items": [...], "noisy_count": c}, ...]) — the machine format
// shared with the query server's wire layer (server/wire.h). Counts
// round-trip bit for bit, so a release served over HTTP re-parses
// identical to the in-process one.
#ifndef PRIVBASIS_EVAL_RELEASE_IO_H_
#define PRIVBASIS_EVAL_RELEASE_IO_H_

#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "fim/miner.h"

namespace privbasis {

/// One itemset as a JSON array of item ids in canonical sorted order —
/// the shared building block of the release form below and the wire
/// layer's rule/basis fields (one copy of the validation, not two).
json::Value ItemsetToJson(const Itemset& itemset);

/// Parses the array form: non-negative in-range integers only.
Result<Itemset> ItemsetFromJson(const json::Value& value);

/// JSON array of {"items": [..], "noisy_count": c} objects, items in the
/// itemset's canonical sorted order, counts in shortest round-trip form.
json::Value ReleaseItemsetsToJson(const std::vector<NoisyItemset>& released);

/// Parses the array form above. Strict: every element must be an object
/// with exactly the two keys, items must be a non-empty array of
/// non-negative integers.
Result<std::vector<NoisyItemset>> ReleaseItemsetsFromJson(
    const json::Value& value);

}  // namespace privbasis

#endif  // PRIVBASIS_EVAL_RELEASE_IO_H_
