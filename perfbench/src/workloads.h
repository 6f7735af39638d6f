#ifndef LASH_PERFBENCH_WORKLOADS_H_
#define LASH_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/lash_api.h"
#include "datagen/corpus_recipes.h"
#include "io/result_io.h"
#include "serve/task_spec.h"

/// The benchmark's three workloads and the inputs each one is given. Why
/// each workload exists is recorded in perfbench/README.md.
namespace lash::perfbench {

struct Workload {
  std::string name;
  /// Corpus shape; the seed is overwritten from --seed.
  NytRecipe recipe;
  /// 1: one worker serves the whole corpus and the clients talk to it.
  /// 2: round-robin transaction shards, one worker each, behind a router
  /// that the clients talk to.
  size_t shards = 1;
  /// Closed-loop client connections, one thread each.
  size_t clients = 1;
  /// Mine every spec once during set-up, so measured requests hit the
  /// worker caches (and, behind a router, only the count phase is cold).
  bool warm = false;
  /// Size the worker cache below the specs' combined results, so cycling
  /// through them evicts every entry before it is asked for again.
  bool thrash_cache = false;
  /// Set-ups per run; setup_s is their median.
  size_t setup_reps = 3;
  /// Routed workloads: each spec's σ is chosen per seed so that the
  /// router's count phase sees about this many union candidates, which
  /// keeps the work per query alike across seeds (0 keeps σ as given).
  size_t target_candidates = 0;
  std::vector<serve::TaskSpec> specs;
};

/// The named workload ("mine-cold", "serve-hot", "router-count") for
/// `seed`; throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed);

/// Mining threads per request and client threads are capped here.
size_t MaxThreads();

/// What set-up needs from the untimed preparation step.
struct Prepared {
  /// The workload's specs, with σ as calibrated for this seed.
  std::vector<serve::TaskSpec> specs;
  /// One snapshot file per shard, written with Dataset::Save.
  std::vector<std::string> snapshot_paths;
  /// Canonical EncodeNamedPatterns bytes of each spec's answer, mined in
  /// process with MiningTask over the whole generated corpus.
  std::vector<std::string> oracle;
  /// EstimateResultCost of each spec's answer on one worker.
  std::vector<uint64_t> result_cost;
  /// The seeded order in which clients cycle through the specs.
  std::vector<size_t> order;
};

/// The candidates a two-phase router sends to its count phase for `spec`
/// over `shards`: every shard's answer at the pigeonhole bound ⌈σ/k⌉, by
/// name, frequency 0, in canonical order.
NamedPatternList PhaseOneCandidates(const std::vector<const Dataset*>& shards,
                                    const serve::TaskSpec& spec);

/// Generates the corpus, writes the shard snapshots into `dir`, calibrates
/// σ where the workload asks for it, and computes the oracle. Nothing here
/// is part of any measured time.
Prepared Prepare(const Workload& workload, uint64_t seed,
                 const std::string& dir);

/// Writes `prepared` to `path`, so the measuring process never holds the
/// generated corpus (its memory and allocator state start clean).
void SavePrepared(const Prepared& prepared, const std::string& path);

/// Inverse of SavePrepared; throws IoError on a damaged file.
Prepared LoadPrepared(const std::string& path);

}  // namespace lash::perfbench

#endif  // LASH_PERFBENCH_WORKLOADS_H_
