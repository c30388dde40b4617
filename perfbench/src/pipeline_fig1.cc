// pipeline_fig1: one AutoCurator::Curate call per iteration over a
// three-table lake (Figure 1: discover -> dedup -> repair -> impute).
// Untraced runs time Curate itself; traced runs alternate Curate with a
// replica of its stage sequence whose public calls are wrapped in spans.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "perfbench/src/workloads.h"
#include "src/cleaning/imputation.h"
#include "src/cleaning/repair.h"
#include "src/common/rng.h"
#include "src/data/dependencies.h"
#include "src/datagen/er_benchmark.h"
#include "src/discovery/schema_mapping.h"
#include "src/discovery/search.h"
#include "src/discovery/semantic_matcher.h"
#include "src/embedding/word2vec.h"
#include "src/er/blocking.h"
#include "src/er/deeper.h"
#include "src/serve/fingerprint.h"
#include "src/text/similarity.h"

namespace perfbench {

using namespace autodc;  // NOLINT

namespace {

// Repeated set-ups per run; setup_s is their median.
constexpr int kSetupReps = 50;
// Lakes per run, so one run's figures average over several inputs.
constexpr size_t kLakes = 4;
// Lake i of a run is generated from seed + i * kLakeSeedStride.
constexpr uint64_t kLakeSeedStride = 1000;

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

std::string RowText(data::RowView row) {
  std::string out;
  for (size_t c = 0; c < row.size(); ++c) {
    if (row.is_null(c)) continue;
    out += row.Text(c);
    out += " ";
  }
  return out;
}

// Every per-layer metric this workload reports from its traced run.
const char* const kStageMetrics[] = {
    "embedding.train_words_ms", "discovery.search_ms",  "er.embed_rows_ms",
    "er.block_ms",              "text.weak_label_ms",   "er.train_ms",
    "er.match_ms",              "core.cluster_ms",      "cleaning.fuse_ms",
    "data.fd_confidence_ms",    "cleaning.repair_ms",   "cleaning.impute_ms",
};

// Units follow the metric names' suffixes.
std::string UnitOf(const std::string& name) {
  auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_bytes")) return "bytes";
  if (ends("_frac") || ends("_yield")) return "ratio";
  return "count";
}

}  // namespace

data::Table MakeCatalog(size_t num_entities, uint64_t seed,
                        size_t* true_entities) {
  datagen::ErBenchmarkConfig pcfg;
  pcfg.domain = datagen::ErDomain::kProducts;
  pcfg.num_entities = num_entities;
  pcfg.overlap = 0.6;
  pcfg.dirtiness = 0.25;
  pcfg.synonym_rate = 0.0;
  pcfg.null_rate = 0.12;
  pcfg.seed = seed;
  datagen::ErBenchmark pbench = datagen::GenerateErBenchmark(pcfg);
  data::Table catalog(pbench.left.schema(), "product_catalog");
  for (size_t r = 0; r < pbench.left.num_rows(); ++r) {
    (void)catalog.AppendRow(pbench.left.row(r));
  }
  for (size_t r = 0; r < pbench.right.num_rows(); ++r) {
    (void)catalog.AppendRow(pbench.right.row(r));
  }
  if (true_entities != nullptr) {
    *true_entities = catalog.num_rows() - pbench.matches.size();
  }
  return catalog;
}

Lake MakeLake(uint64_t seed) {
  Lake lake;
  data::Table catalog = MakeCatalog(240, seed, &lake.true_entities);
  lake.catalog_rows = catalog.num_rows();

  datagen::ErBenchmarkConfig dcfg1;
  dcfg1.domain = datagen::ErDomain::kPersons;
  dcfg1.num_entities = 60;
  dcfg1.seed = seed + 1;
  data::Table people = datagen::GenerateErBenchmark(dcfg1).left;
  people.set_name("employee_directory");

  datagen::ErBenchmarkConfig dcfg2;
  dcfg2.domain = datagen::ErDomain::kCitations;
  dcfg2.num_entities = 60;
  dcfg2.seed = seed + 2;
  data::Table papers = datagen::GenerateErBenchmark(dcfg2).left;
  papers.set_name("publication_list");

  lake.tables = {std::move(people), std::move(catalog), std::move(papers)};
  return lake;
}

core::AutoCuratorConfig PipelineConfig() {
  core::AutoCuratorConfig cfg;
  cfg.task_query = "product brand model price catalog";
  cfg.max_tables = 1;
  cfg.seed = 4;
  return cfg;
}

Result<data::Table> CurateReplica(const std::vector<data::Table>& sources,
                                  const core::AutoCuratorConfig& cfg,
                                  SpanRecorder* rec,
                                  std::map<std::string, double>* counts) {
  std::vector<const data::Table*> ptrs;
  for (const data::Table& t : sources) ptrs.push_back(&t);

  // 1. Representation learning over the whole lake.
  std::shared_ptr<embedding::EmbeddingStore> words;
  {
    ScopedSpan s(rec, "embedding.train_words_ms");
    embedding::Word2VecConfig wcfg;
    wcfg.sgns.dim = 32;
    wcfg.sgns.epochs = 6;
    wcfg.sgns.seed = cfg.seed;
    words = std::make_shared<embedding::EmbeddingStore>(
        embedding::TrainWordEmbeddingsFromTables(ptrs, wcfg));
  }
  (*counts)["embedding.resident_bytes"] =
      static_cast<double>(words->ResidentBytes());

  // 2. Discovery.
  std::vector<discovery::SearchResult> hits;
  {
    ScopedSpan s(rec, "discovery.search_ms");
    discovery::TableSearchEngine engine(words.get());
    engine.Index(ptrs);
    hits = engine.Search(cfg.task_query);
  }
  if (hits.empty()) return Status::NotFound("no table matches the query");
  const data::Table* primary = nullptr;
  for (const data::Table& t : sources) {
    if (t.name() == hits[0].table) primary = &t;
  }
  if (primary == nullptr) return Status::Internal("search index stale");
  data::Table working = *primary;
  discovery::SemanticColumnMatcher matcher(words.get());
  size_t merged = 0;
  for (size_t h = 1; h < hits.size() && merged + 1 < cfg.max_tables; ++h) {
    const data::Table* other = nullptr;
    for (const data::Table& t : sources) {
      if (t.name() == hits[h].table) other = &t;
    }
    if (other == nullptr) continue;
    discovery::SchemaMapping mapping = discovery::MapSchema(
        matcher, working, *other, cfg.schema_match_threshold);
    if (mapping.num_mapped() * 2 < working.num_columns()) continue;
    AUTODC_RETURN_NOT_OK(discovery::UnionInto(&working, *other, mapping));
    ++merged;
  }

  // 3. Dedup: DeepER over LSH-blocked, weakly labelled candidates.
  er::DeepErConfig dcfg;
  dcfg.epochs = 25;
  dcfg.learning_rate = 1e-2f;
  dcfg.seed = cfg.seed;
  er::DeepEr model(words.get(), dcfg);
  std::vector<std::vector<float>> vecs;
  {
    ScopedSpan s(rec, "er.embed_rows_ms");
    model.FitWeights({&working});
    vecs.reserve(working.num_rows());
    for (size_t r = 0; r < working.num_rows(); ++r) {
      vecs.push_back(model.EmbedTupleVector(working.row(r)));
    }
  }
  std::vector<er::RowPair> candidates;
  {
    ScopedSpan s(rec, "er.block_ms");
    er::LshBlocker lsh(words->dim(), 4, 12, cfg.seed);
    for (const er::RowPair& p : lsh.Candidates(vecs, vecs)) {
      if (p.first < p.second) candidates.push_back(p);
    }
  }
  double n = static_cast<double>(working.num_rows());
  (*counts)["er.candidates"] = static_cast<double>(candidates.size());
  (*counts)["er.candidate_frac"] =
      n > 1 ? static_cast<double>(candidates.size()) / (n * (n - 1) / 2) : 0;

  std::vector<er::PairLabel> train;
  size_t positives = 0;
  size_t attempts = 0;
  {
    ScopedSpan s(rec, "text.weak_label_ms");
    Rng rng(cfg.seed);
    for (const er::RowPair& p : candidates) {
      double sim = text::TokenJaccard(RowText(working.row(p.first)),
                                      RowText(working.row(p.second)));
      if (sim > 0.75) train.push_back({p.first, p.second, 1});
    }
    positives = train.size();
    size_t want_neg = train.size() * cfg.negatives_per_positive;
    while (train.size() < want_neg + want_neg / cfg.negatives_per_positive &&
           attempts < want_neg * 30 && working.num_rows() > 1) {
      ++attempts;
      size_t a = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(working.num_rows()) - 1));
      size_t b = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(working.num_rows()) - 1));
      if (a == b) continue;
      double sim = text::TokenJaccard(RowText(working.row(a)),
                                      RowText(working.row(b)));
      if (sim < 0.3) train.push_back({a, b, 0});
    }
  }
  double evaluations = static_cast<double>(candidates.size() + attempts);
  (*counts)["text.weak_labels"] = static_cast<double>(positives);
  (*counts)["text.weak_label_yield"] =
      evaluations > 0 ? static_cast<double>(train.size()) / evaluations : 0;
  (*counts)["er.train_pairs"] = static_cast<double>(train.size());

  if (!train.empty()) {
    {
      ScopedSpan s(rec, "er.train_ms");
      model.Train(working, working, train);
    }
    std::vector<er::RowPair> matches;
    {
      ScopedSpan s(rec, "er.match_ms");
      matches = model.Match(working, working, candidates, cfg.dedup_threshold);
    }
    (*counts)["er.match_yield"] =
        candidates.empty() ? 0
                           : static_cast<double>(matches.size()) /
                                 static_cast<double>(candidates.size());
    std::vector<std::vector<size_t>> cluster_list;
    {
      ScopedSpan s(rec, "core.cluster_ms");
      UnionFind uf(working.num_rows());
      for (const er::RowPair& m : matches) uf.Union(m.first, m.second);
      std::unordered_map<size_t, std::vector<size_t>> clusters;
      for (size_t r = 0; r < working.num_rows(); ++r) {
        clusters[uf.Find(r)].push_back(r);
      }
      cluster_list.reserve(clusters.size());
      for (auto& [root, rows] : clusters) {
        (void)root;
        cluster_list.push_back(std::move(rows));
      }
    }
    {
      ScopedSpan s(rec, "cleaning.fuse_ms");
      working = cleaning::FuseClusters(working, cluster_list);
    }
  }

  // 4. Repair: high-confidence single-attribute FDs, majority-repaired.
  std::vector<data::FunctionalDependency> fds;
  {
    ScopedSpan s(rec, "data.fd_confidence_ms");
    for (size_t lhs = 0; lhs < working.num_columns(); ++lhs) {
      for (size_t rhs = 0; rhs < working.num_columns(); ++rhs) {
        if (lhs == rhs) continue;
        data::FunctionalDependency fd{{lhs}, rhs};
        double conf = data::Confidence(working, fd);
        if (conf >= cfg.fd_min_confidence && conf < 1.0) fds.push_back(fd);
      }
    }
  }
  {
    ScopedSpan s(rec, "cleaning.repair_ms");
    (*counts)["cleaning.repair_cells"] = static_cast<double>(
        cleaning::RepairFdViolations(&working, fds).size());
  }

  // 5. Impute: DAE, then mean/mode for the cells it abstains on.
  {
    ScopedSpan s(rec, "cleaning.impute_ms");
    cleaning::DaeImputerConfig icfg;
    icfg.seed = cfg.seed;
    cleaning::DaeImputer imputer(icfg);
    size_t filled = imputer.FitAndFillAll(&working);
    cleaning::MeanModeImputer fallback;
    filled += fallback.FitAndFillAll(&working);
    (*counts)["cleaning.impute_cells"] = static_cast<double>(filled);
  }
  return working;
}

namespace {

// Checks one Curate outcome; returns the curated table's digest.
uint64_t CheckCurated(const Result<core::CurationResult>& r,
                      uint64_t expect_digest, Report* report) {
  ++report->attempted;
  if (!r.ok()) {
    ++report->failed;
    report->Fail("Curate: " + r.status().ToString());
    return 0;
  }
  const data::Table& t = r.ValueOrDie().curated;
  uint64_t digest = serve::FingerprintTable(t);
  bool bad = false;
  // Fusion renames the selected table "<name>_fused".
  if (t.name().rfind("product_catalog", 0) != 0) {
    bad = true;
    report->Fail("discovery selected '" + t.name() + "'");
  }
  if (t.NullFraction() != 0.0) {
    bad = true;
    report->Fail("curated table still has nulls");
  }
  if (expect_digest != 0 && digest != expect_digest) {
    bad = true;
    report->Fail("Curate output differs between iterations");
  }
  if (bad) ++report->failed;
  return digest;
}

}  // namespace

void RunPipelineFig1(const Options& opt, Report* report) {
  std::vector<double> setup_s;
  std::vector<Lake> lakes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto t0 = Clock::now();
    lakes.clear();
    for (uint64_t i = 0; i < kLakes; ++i) {
      lakes.push_back(MakeLake(opt.seed + kLakeSeedStride * i));
    }
    setup_s.push_back(SecondsSince(t0));
  }
  core::AutoCuratorConfig cfg = PipelineConfig();
  core::AutoCurator curator(cfg);

  std::vector<double> curate_s;
  std::vector<std::vector<double>> lake_s(kLakes);
  std::vector<uint64_t> digests(kLakes, 0);
  std::vector<double> entity_err(kLakes, 0.0);
  std::vector<double> replica_s;
  std::map<std::string, std::vector<double>> layer;  // per replica call
  bool replica_ok = true;
  SpanRecorder rec;
  auto start = Clock::now();
  // Every lake once, then round-robin until the time is up.
  for (size_t call = 0; call < kLakes || SecondsSince(start) < opt.seconds;
       ++call) {
    size_t li = call % kLakes;
    const Lake& lake = lakes[li];
    auto t0 = Clock::now();
    auto result = curator.Curate(lake.tables);
    curate_s.push_back(SecondsSince(t0));
    lake_s[li].push_back(curate_s.back());
    uint64_t d = CheckCurated(result, digests[li], report);
    if (!result.ok()) break;
    digests[li] = d;
    entity_err[li] =
        std::fabs(static_cast<double>(result.ValueOrDie().curated.num_rows()) -
                  static_cast<double>(lake.true_entities)) /
        static_cast<double>(lake.true_entities);
    std::printf("pipeline_fig1: lake=%zu catalog_rows=%zu true_entities=%zu "
                "rows_out=%zu entity_count_err=%.6f curate_s=%.4f "
                "digest=%016llx\n",
                li, lake.catalog_rows, lake.true_entities,
                result.ValueOrDie().curated.num_rows(), entity_err[li],
                curate_s.back(), static_cast<unsigned long long>(d));
    if (!opt.trace) continue;

    size_t from = rec.spans().size();
    std::map<std::string, double> counts;
    int root = rec.Begin("core.curate");
    auto replica = CurateReplica(lake.tables, cfg, &rec, &counts);
    rec.End(root);
    replica_s.push_back(rec.DurationMs(root) / 1e3);
    if (!replica.ok() || serve::FingerprintTable(replica.ValueOrDie()) != d) {
      replica_ok = false;
    }
    for (const char* name : kStageMetrics) {
      layer[name].push_back(rec.TotalMs(name, from));
    }
    layer["core.self_ms"].push_back(rec.SelfMs(root));
    for (const auto& [name, value] : counts) layer[name].push_back(value);
  }
  std::printf("pipeline_fig1: curate_calls=%zu lakes=%zu\n", curate_s.size(),
              kLakes);

  if (!opt.trace) {
    // Every lake weighs the same, however many calls it got. A failed
    // Curate ends the loop early; lakes never reached are left out.
    double rows = 0.0;
    double seconds = 0.0;
    size_t used = 0;
    for (size_t li = 0; li < kLakes; ++li) {
      if (lake_s[li].empty()) continue;
      rows += static_cast<double>(lakes[li].catalog_rows);
      seconds += Mean(lake_s[li]);
      ++used;
    }
    report->Set("op_mean_ms", seconds / static_cast<double>(used) * 1e3, "ms");
    report->Set("throughput_per_s", rows / seconds, "1/s");
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Means over the replica calls, so the stage times plus core.self_ms
  // add up to the mean replica wall time.
  for (const auto& [name, values] : layer) {
    report->Set(name, Mean(values), UnitOf(name));
  }
  report->Set("core.entity_count_err", Mean(entity_err), "ratio");
  report->Set("core.replica_ok", replica_ok ? 1.0 : 0.0, "count");
  report->Set("obs.trace_overhead_frac", Mean(replica_s) / Mean(curate_s),
              "ratio");
  // A stale replica means the breakdown no longer describes Curate; it
  // says so through core.replica_ok rather than failing the run.
  if (!replica_ok) {
    std::fprintf(stderr, "perfbench: replica output differs from Curate\n");
  }
  WriteChromeTrace(opt.workdir + "/trace_pipeline_fig1.json", {&rec});
}

}  // namespace perfbench
