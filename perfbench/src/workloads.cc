#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "api/lash_api.h"
#include "io/io_error.h"
#include "io/result_io.h"
#include "serve/result_cache.h"
#include "util/rng.h"
#include "util/varint.h"

namespace lash::perfbench {
namespace {

serve::TaskSpec Lash(Frequency sigma, uint32_t gamma, uint32_t lambda,
                     size_t top_k = 0) {
  serve::TaskSpec spec;
  spec.algorithm = Algorithm::kLash;
  spec.params = {.sigma = sigma, .gamma = gamma, .lambda = lambda};
  spec.threads = MaxThreads();
  spec.top_k = top_k;
  return spec;
}

/// Sets σ = k·σ′ (so the router's phase-1 bound ⌈σ/k⌉ is σ′) with σ′ the
/// threshold whose union candidate count is closest to `target`. The count
/// does not grow with σ′, so a bisection finds it.
void Calibrate(const std::vector<const Dataset*>& shards, size_t target,
               serve::TaskSpec* spec) {
  const Frequency k = shards.size();
  auto candidates = [&](Frequency sigma_prime) {
    serve::TaskSpec probe = *spec;
    probe.params.sigma = k * sigma_prime;
    return PhaseOneCandidates(shards, probe).size();
  };
  Frequency lo = 2, hi = 512;  // candidates(hi) <= target < candidates(lo)
  while (hi - lo > 1) {
    const Frequency mid = (lo + hi) / 2;
    (candidates(mid) > target ? lo : hi) = mid;
  }
  const double above = static_cast<double>(candidates(lo));
  const double below = static_cast<double>(candidates(hi));
  const double goal = static_cast<double>(target);
  spec->params.sigma = k * (above - goal < goal - below ? lo : hi);
}

}  // namespace

size_t MaxThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min<size_t>(cpus, 4);
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.recipe.seed = seed;
  if (name == "mine-cold") {
    // Specs of similar cost (about 120-170 ms each on 4 cores), so the
    // median does not jump between cost clusters from run to run.
    w.specs = {Lash(100, 0, 4), Lash(120, 0, 5), Lash(130, 0, 4),
               Lash(350, 1, 3), Lash(400, 1, 3), Lash(700, 1, 4)};
    w.thrash_cache = true;
    // Set-up is a few milliseconds here, so take more of them.
    w.setup_reps = 25;
  } else if (name == "serve-hot") {
    // Four top-8000 answers: big enough that naming and encoding a hit
    // dominates the request, and the same size whatever the seed, so the
    // median sits inside one cost cluster. One client: with two, both
    // queue on the worker's event loop and the latency flips between
    // "waited for the other reply" and "did not" from run to run.
    w.specs = {Lash(50, 0, 4, 8000), Lash(50, 0, 5, 8000),
               Lash(80, 1, 3, 8000), Lash(120, 1, 4, 8000)};
    w.warm = true;
  } else if (name == "router-count") {
    w.recipe.sentences = 2000;
    w.recipe.lemmas = 800;
    // σ is calibrated per seed (target_candidates); the values here only
    // pick γ and λ. Eight queries, because the count kernel's cost per
    // candidate still moves from seed to seed and more queries average it.
    w.specs = {Lash(0, 0, 3), Lash(0, 0, 4), Lash(0, 0, 5), Lash(0, 1, 3),
               Lash(0, 1, 4), Lash(0, 2, 3), Lash(0, 1, 5), Lash(0, 2, 4)};
    w.target_candidates = 650;
    w.shards = 2;
    w.clients = 2;
    w.warm = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

NamedPatternList PhaseOneCandidates(const std::vector<const Dataset*>& shards,
                                    const serve::TaskSpec& spec) {
  const Frequency k = shards.size();
  serve::TaskSpec shard_spec = spec;
  shard_spec.params.sigma =
      std::max<Frequency>(1, (spec.params.sigma + k - 1) / k);
  shard_spec.top_k = 0;
  std::map<std::string, NamedPattern> merged;
  for (const Dataset* shard : shards) {
    RunResult run;
    const PatternMap patterns = serve::MakeTask(*shard, shard_spec).Mine(&run);
    for (NamedPattern& pattern :
         NamePatterns(*shard, patterns, run.used_flat_hierarchy)) {
      pattern.frequency = 0;
      merged.emplace(NamedPatternKey(pattern), std::move(pattern));
    }
  }
  NamedPatternList candidates;
  for (auto& [key, pattern] : merged) candidates.push_back(std::move(pattern));
  SortNamedPatterns(&candidates);
  return candidates;
}

Prepared Prepare(const Workload& workload, uint64_t seed,
                 const std::string& dir) {
  GeneratedText text = MakeNytCorpus(workload.recipe);
  Prepared out;
  out.specs = workload.specs;
  if (workload.shards > 1) {
    // Round-robin by transaction, every shard keeping the full vocabulary:
    // the split lash_gen --shards writes.
    std::vector<Database> shard_dbs(workload.shards);
    for (size_t i = 0; i < text.database.size(); ++i) {
      shard_dbs[i % workload.shards].push_back(text.database[i]);
    }
    std::vector<std::unique_ptr<Dataset>> shards;
    std::vector<const Dataset*> views;
    for (size_t s = 0; s < workload.shards; ++s) {
      shards.emplace_back(new Dataset(
          Dataset::FromMemory(std::move(shard_dbs[s]), text.vocabulary)));
      views.push_back(shards.back().get());
      out.snapshot_paths.push_back(dir + "/shard" + std::to_string(s) +
                                   ".snap");
      shards.back()->Save(out.snapshot_paths.back());
    }
    if (workload.target_candidates > 0) {
      for (serve::TaskSpec& spec : out.specs) {
        Calibrate(views, workload.target_candidates, &spec);
      }
    }
  }
  const Dataset whole = Dataset::FromMemory(std::move(text.database),
                                            std::move(text.vocabulary),
                                            std::move(text.hierarchy));
  if (workload.shards == 1) {
    out.snapshot_paths.push_back(dir + "/corpus.snap");
    whole.Save(out.snapshot_paths.back());
  }

  for (const serve::TaskSpec& spec : out.specs) {
    auto result = std::make_shared<serve::CachedResult>();
    result->patterns = serve::MakeTask(whole, spec).Mine(&result->run);
    if (result->patterns.size() < spec.top_k) {
      throw std::runtime_error("a top-" + std::to_string(spec.top_k) +
                               " spec found only " +
                               std::to_string(result->patterns.size()) +
                               " patterns; lower its sigma");
    }
    const NamedPatternList named = NamePatterns(
        whole, result->patterns, result->run.used_flat_hierarchy);
    std::string bytes;
    EncodeNamedPatterns(&bytes, named);
    out.oracle.push_back(std::move(bytes));
    out.result_cost.push_back(serve::EstimateResultCost(
        serve::EncodeCacheKey(whole.id(), spec), *result));
  }

  out.order.resize(out.specs.size());
  std::iota(out.order.begin(), out.order.end(), size_t{0});
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t i = out.order.size(); i > 1; --i) {
    std::swap(out.order[i - 1], out.order[rng.Uniform(i)]);
  }
  return out;
}

namespace {

constexpr char kPreparedMagic[] = "LPBPREP1";

void PutString(std::string* out, const std::string& value) {
  PutVarint64(out, value.size());
  out->append(value);
}

std::string ReadString(ByteReader& reader, const char* field) {
  return reader.ReadBytes(reader.ReadVarint64(field), field);
}

}  // namespace

void SavePrepared(const Prepared& prepared, const std::string& path) {
  std::string bytes = kPreparedMagic;
  PutVarint64(&bytes, prepared.specs.size());
  for (const serve::TaskSpec& spec : prepared.specs) {
    PutString(&bytes, serve::EncodeCacheKey(0, spec));
    PutVarint64(&bytes, spec.threads);
  }
  PutVarint64(&bytes, prepared.snapshot_paths.size());
  for (const std::string& p : prepared.snapshot_paths) PutString(&bytes, p);
  for (const std::string& o : prepared.oracle) PutString(&bytes, o);
  for (const uint64_t c : prepared.result_cost) PutVarint64(&bytes, c);
  for (const size_t i : prepared.order) PutVarint64(&bytes, i);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

Prepared LoadPrepared(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ByteReader reader(bytes, "prepared inputs");
  if (reader.ReadBytes(sizeof kPreparedMagic - 1, "magic") != kPreparedMagic) {
    reader.Malformed("bad magic");
  }
  Prepared prepared;
  const uint64_t specs = reader.ReadVarint64("spec count");
  for (uint64_t i = 0; i < specs; ++i) {
    prepared.specs.push_back(
        serve::DecodeTaskSpec(ReadString(reader, "spec")));
    prepared.specs.back().threads = reader.ReadVarint64("threads");
  }
  const uint64_t shards = reader.ReadVarint64("shard count");
  for (uint64_t i = 0; i < shards; ++i) {
    prepared.snapshot_paths.push_back(ReadString(reader, "snapshot path"));
  }
  for (uint64_t i = 0; i < specs; ++i) {
    prepared.oracle.push_back(ReadString(reader, "oracle"));
  }
  for (uint64_t i = 0; i < specs; ++i) {
    prepared.result_cost.push_back(reader.ReadVarint64("result cost"));
  }
  for (uint64_t i = 0; i < specs; ++i) {
    const uint64_t index = reader.ReadVarint64("order");
    if (index >= specs) reader.Malformed("order index out of range");
    prepared.order.push_back(index);
  }
  if (!reader.AtEnd()) reader.Malformed("trailing bytes");
  return prepared;
}

}  // namespace lash::perfbench
