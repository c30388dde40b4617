#include "src/core/autocurator.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "src/cleaning/imputation.h"
#include "src/cleaning/repair.h"
#include "src/data/dependencies.h"
#include "src/discovery/schema_mapping.h"
#include "src/discovery/search.h"
#include "src/discovery/semantic_matcher.h"
#include "src/embedding/word2vec.h"
#include "src/er/blocking.h"
#include "src/er/deeper.h"
#include "src/obs/trace.h"
#include "src/text/similarity.h"
#include "src/text/tokenizer.h"

namespace autodc::core {

namespace {

// Minimal union-find for duplicate clustering.
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

}  // namespace

Result<CurationResult> AutoCurator::Curate(
    const std::vector<data::Table>& sources) const {
  if (sources.empty()) {
    return Status::InvalidArgument("no source tables");
  }
  CurationResult result;
  PipelineContext& ctx = result.context;
  ctx.tables = sources;

  AutoCuratorConfig cfg = config_;
  Pipeline pipeline;

  // ---- 1. Representation learning over the whole lake ------------------
  pipeline.Add("representation", [&cfg](PipelineContext* c) -> Status {
    std::vector<const data::Table*> ptrs;
    for (const data::Table& t : c->tables) ptrs.push_back(&t);
    embedding::Word2VecConfig wcfg;
    wcfg.sgns.dim = 32;
    wcfg.sgns.epochs = 6;
    wcfg.sgns.seed = cfg.seed;
    c->words = std::make_shared<embedding::EmbeddingStore>(
        embedding::TrainWordEmbeddingsFromTables(ptrs, wcfg));
    c->Log("trained " + std::to_string(c->words->size()) +
           " word embeddings over " + std::to_string(ptrs.size()) +
           " tables");
    return Status::OK();
  });

  // ---- 2. Discovery: select the task-relevant tables -------------------
  data::Table working;
  pipeline.Add("discovery", [&cfg, &working](PipelineContext* c) -> Status {
    std::vector<const data::Table*> ptrs;
    for (const data::Table& t : c->tables) ptrs.push_back(&t);
    discovery::TableSearchEngine engine(c->words.get());
    engine.Index(ptrs);
    auto hits = engine.Search(cfg.task_query);
    if (hits.empty()) return Status::NotFound("no table matches the query");
    const data::Table* primary = nullptr;
    for (const data::Table& t : c->tables) {
      if (t.name() == hits[0].table) primary = &t;
    }
    if (primary == nullptr) return Status::Internal("search index stale");
    working = *primary;
    c->Log("selected table '" + primary->name() + "' (score " +
           std::to_string(hits[0].score) + ") for query '" + cfg.task_query +
           "'");
    c->Metric("discovery.top_score", hits[0].score);

    // Integrate schema-compatible relatives by semantic column mapping.
    discovery::SemanticColumnMatcher matcher(c->words.get());
    size_t merged = 0;
    for (size_t h = 1; h < hits.size() && merged + 1 < cfg.max_tables; ++h) {
      const data::Table* other = nullptr;
      for (const data::Table& t : c->tables) {
        if (t.name() == hits[h].table) other = &t;
      }
      if (other == nullptr) continue;
      discovery::SchemaMapping mapping = discovery::MapSchema(
          matcher, working, *other, cfg.schema_match_threshold);
      // Union only when most of the schema aligns.
      if (mapping.num_mapped() * 2 < working.num_columns()) continue;
      AUTODC_RETURN_NOT_OK(
          discovery::UnionInto(&working, *other, mapping));
      ++merged;
      c->Log("unioned table '" + other->name() + "' into '" +
             working.name() + "' (" + std::to_string(mapping.num_mapped()) +
             " columns mapped)");
    }
    c->Metric("discovery.tables_merged", static_cast<double>(merged));
    return Status::OK();
  });

  // ---- 3. Entity resolution: dedup + golden-record fusion --------------
  pipeline.Add("dedup", [&cfg, &working](PipelineContext* c) -> Status {
    er::DeepErConfig dcfg;
    dcfg.epochs = 25;
    dcfg.learning_rate = 1e-2f;
    dcfg.seed = cfg.seed;
    // Per-epoch training curve from the Trainer runtime (loss under the
    // weak labels, epochs run, cumulative wall time).
    auto dedup_wall = std::make_shared<double>(0.0);
    dcfg.epoch_callback = [c, dedup_wall](const nn::EpochStats& s) {
      *dedup_wall += s.wall_ms;
      c->Metric("dedup.train_loss.epoch" + std::to_string(s.epoch),
                s.train_loss);
      c->Metric("dedup.train_epochs", static_cast<double>(s.epoch + 1));
      c->Metric("dedup.train_wall_ms", *dedup_wall);
    };
    er::DeepEr model(c->words.get(), dcfg);

    // Every row is embedded once; blocking, training and scoring all
    // read the same cache.
    er::RowCache rows;
    {
      AUTODC_OBS_SPAN(embed_span, "dedup.embed");
      model.FitWeights({&working});
      rows = model.EmbedRows(working);
    }

    // Blocking within the table.
    std::vector<er::RowPair> candidates;
    {
      AUTODC_OBS_SPAN(block_span, "dedup.block");
      er::LshBlocker lsh(c->words->dim(), 4, 12, cfg.seed);
      for (const er::RowPair& p : lsh.Candidates(rows.tuples, rows.tuples)) {
        if (p.first < p.second) candidates.push_back(p);
      }
    }
    c->Metric("dedup.candidates", static_cast<double>(candidates.size()));

    // Weak supervision: near-identical candidates are positives; very
    // dissimilar random pairs are negatives. No hand labels needed.
    std::vector<er::PairLabel> train;
    {
      AUTODC_OBS_SPAN(weak_span, "dedup.weak_label");
      std::vector<text::TokenSet> tokens;
      tokens.reserve(working.num_rows());
      for (size_t r = 0; r < working.num_rows(); ++r) {
        tokens.push_back(
            text::MakeTokenSet(text::Tokenize(RowText(working.row(r)))));
      }
      for (const er::RowPair& p : candidates) {
        double sim = text::SetJaccard(tokens[p.first], tokens[p.second]);
        if (sim > 0.75) train.push_back({p.first, p.second, 1});
      }
      Rng rng(cfg.seed);
      size_t want_neg = train.size() * cfg.negatives_per_positive;
      size_t attempts = 0;
      while (train.size() < want_neg + want_neg / cfg.negatives_per_positive &&
             attempts < want_neg * 30 && working.num_rows() > 1) {
        ++attempts;
        size_t a = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(working.num_rows()) - 1));
        size_t b = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(working.num_rows()) - 1));
        if (a == b) continue;
        double sim = text::SetJaccard(tokens[a], tokens[b]);
        if (sim < 0.3) train.push_back({a, b, 0});
      }
    }
    if (train.empty()) {
      c->Log("dedup: no weak labels found; skipping");
      return Status::OK();
    }
    {
      AUTODC_OBS_SPAN(train_span, "dedup.train");
      model.Train(rows, rows, train);
    }

    // Match and cluster.
    std::vector<er::RowPair> matches;
    {
      AUTODC_OBS_SPAN(score_span, "dedup.score");
      matches = model.Match(rows, rows, candidates, cfg.dedup_threshold);
    }
    std::vector<std::vector<size_t>> cluster_list;
    {
      AUTODC_OBS_SPAN(cluster_span, "dedup.cluster");
      UnionFind uf(working.num_rows());
      for (const er::RowPair& m : matches) uf.Union(m.first, m.second);
      std::unordered_map<size_t, std::vector<size_t>> clusters;
      for (size_t r = 0; r < working.num_rows(); ++r) {
        clusters[uf.Find(r)].push_back(r);
      }
      cluster_list.reserve(clusters.size());
      for (auto& [root, members] : clusters) {
        (void)root;
        cluster_list.push_back(std::move(members));
      }
    }
    size_t before = working.num_rows();
    {
      AUTODC_OBS_SPAN(fuse_span, "dedup.fuse");
      working = cleaning::FuseClusters(working, cluster_list);
    }
    c->Log("dedup: " + std::to_string(before) + " rows -> " +
           std::to_string(working.num_rows()) + " entities");
    c->Metric("dedup.rows_before", static_cast<double>(before));
    c->Metric("dedup.rows_after", static_cast<double>(working.num_rows()));
    return Status::OK();
  });

  // ---- 4. Cleaning: FD repair + imputation ----------------------------
  pipeline.Add("repair", [&cfg, &working](PipelineContext* c) -> Status {
    // Approximate single-attribute FDs with high confidence are treated
    // as intended constraints; their violations are majority-repaired.
    std::vector<data::FunctionalDependency> fds;
    for (size_t lhs = 0; lhs < working.num_columns(); ++lhs) {
      for (size_t rhs = 0; rhs < working.num_columns(); ++rhs) {
        if (lhs == rhs) continue;
        data::FunctionalDependency fd{{lhs}, rhs};
        double conf = data::Confidence(working, fd);
        if (conf >= cfg.fd_min_confidence && conf < 1.0) fds.push_back(fd);
      }
    }
    auto repairs = cleaning::RepairFdViolations(&working, fds);
    c->Log("repair: " + std::to_string(fds.size()) + " constraints, " +
           std::to_string(repairs.size()) + " cells repaired");
    c->Metric("repair.cells", static_cast<double>(repairs.size()));
    return Status::OK();
  });

  pipeline.Add("impute", [&cfg, &working](PipelineContext* c) -> Status {
    cleaning::DaeImputerConfig icfg;
    icfg.seed = cfg.seed;
    // Per-epoch training curve of the DAE from the Trainer runtime.
    auto impute_wall = std::make_shared<double>(0.0);
    icfg.epoch_callback = [c, impute_wall](const nn::EpochStats& s) {
      *impute_wall += s.wall_ms;
      c->Metric("impute.train_loss.epoch" + std::to_string(s.epoch),
                s.train_loss);
      c->Metric("impute.train_epochs", static_cast<double>(s.epoch + 1));
      c->Metric("impute.train_wall_ms", *impute_wall);
    };
    cleaning::DaeImputer imputer(icfg);
    size_t filled = imputer.FitAndFillAll(&working);
    // The DAE abstains on cells it decodes into the "other" bucket; a
    // mean/mode pass guarantees a complete output table.
    cleaning::MeanModeImputer fallback;
    filled += fallback.FitAndFillAll(&working);
    c->Log("impute: " + std::to_string(filled) + " missing cells filled");
    c->Metric("impute.cells", static_cast<double>(filled));
    return Status::OK();
  });

  AUTODC_RETURN_NOT_OK(pipeline.Run(&ctx));
  result.curated = std::move(working);
  return result;
}

}  // namespace autodc::core
