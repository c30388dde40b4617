#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/util.h"
#include "src/common/rng.h"
#include "src/core/autocurator.h"
#include "src/data/table.h"
#include "src/serve/request.h"
#include "src/serve/server.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's own files (ADCT inputs, the span trace).
  std::string workdir = ".";
};

// ---- pipeline_fig1 ----------------------------------------------------

/// A products catalog as GenerateErBenchmark emits it (left + right
/// copies appended): overlap 0.6, dirtiness 0.25, null rate 0.12, no
/// synonyms. `true_entities`, when given, receives the entity count.
autodc::data::Table MakeCatalog(size_t num_entities, uint64_t seed,
                                size_t* true_entities = nullptr);

/// The bench_pipeline lake at twice its rows: a dirty, duplicated
/// products catalog (240 entities) plus persons and citations
/// distractors (60 entities each). Deterministic in `seed`.
struct Lake {
  std::vector<autodc::data::Table> tables;  ///< persons, catalog, citations
  size_t catalog_rows = 0;
  size_t true_entities = 0;
};
Lake MakeLake(uint64_t seed);

/// The Curate configuration the workload runs (query, max_tables=1).
autodc::core::AutoCuratorConfig PipelineConfig();

/// AutoCurator::Curate's stage sequence rebuilt from the same public
/// calls, configs and seeds, each call wrapped in a span on `rec`.
/// Work counts (candidates, labels, ...) land in `counts`.
autodc::Result<autodc::data::Table> CurateReplica(
    const std::vector<autodc::data::Table>& sources,
    const autodc::core::AutoCuratorConfig& cfg, SpanRecorder* rec,
    std::map<std::string, double>* counts);

void RunPipelineFig1(const Options& opt, Report* report);

// ---- serve_score / serve_mixed_rw -------------------------------------

/// What one client's windows look like.
struct WindowSpec {
  uint64_t session = 0;
  std::string tenant;
  size_t rows = 0;
  size_t cols = 0;
  size_t numeric_col = 0;  ///< the only column kOutlierCheck may target
  bool mixed = false;      ///< false: all kScorePair
  size_t size = 64;
};

/// One seeded window: uniform row pairs, or (mixed) a shuffled quarter
/// each of kScorePair, kImpute, kOutlierCheck and kNearestRows (k=5).
std::vector<autodc::serve::ServeRequest> MakeWindow(const WindowSpec& spec,
                                                    autodc::Rng* rng);

/// Replays each (request, response) pair through the server's
/// sequential path; returns how many responses differ.
size_t CountOracleMismatches(
    autodc::serve::CurationServer* server,
    const std::vector<std::pair<autodc::serve::ServeRequest,
                                autodc::serve::ServeResponse>>& sample);

void RunServe(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
