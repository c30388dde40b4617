#include "src/er/deeper.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/parallel.h"
#include "src/embedding/composition.h"
#include "src/er/features.h"
#include "src/nn/kernels.h"
#include "src/nn/optimizer.h"
#include "src/nn/serialize.h"
#include "src/nn/tensor_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/text/similarity.h"
#include "src/text/tokenizer.h"

namespace autodc::er {

std::vector<PairLabel> SampleTrainingPairs(size_t left_rows,
                                           size_t right_rows,
                                           const std::vector<RowPair>& matches,
                                           size_t negatives_per_positive,
                                           Rng* rng) {
  struct PairHash {
    size_t operator()(const RowPair& p) const {
      return p.first * 1000003u + p.second;
    }
  };
  std::unordered_set<RowPair, PairHash> match_set(matches.begin(),
                                                  matches.end());
  std::vector<PairLabel> out;
  for (const RowPair& m : matches) {
    out.push_back(PairLabel{m.first, m.second, 1});
  }
  size_t want = matches.size() * negatives_per_positive;
  size_t attempts = 0;
  std::unordered_set<RowPair, PairHash> sampled;
  while (sampled.size() < want && attempts < want * 50 && left_rows > 0 &&
         right_rows > 0) {
    ++attempts;
    RowPair p{static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(left_rows) - 1)),
              static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(right_rows) - 1))};
    if (match_set.count(p) > 0 || sampled.count(p) > 0) continue;
    sampled.insert(p);
    out.push_back(PairLabel{p.first, p.second, 0});
  }
  return out;
}

std::vector<PairLabel> SampleTrainingPairsWithHardNegatives(
    size_t left_rows, size_t right_rows, const std::vector<RowPair>& matches,
    const std::vector<RowPair>& hard_pool, size_t negatives_per_positive,
    double hard_fraction, Rng* rng) {
  struct PairHash {
    size_t operator()(const RowPair& p) const {
      return p.first * 1000003u + p.second;
    }
  };
  std::unordered_set<RowPair, PairHash> match_set(matches.begin(),
                                                  matches.end());
  std::vector<RowPair> hard_negatives;
  for (const RowPair& p : hard_pool) {
    if (match_set.count(p) == 0) hard_negatives.push_back(p);
  }
  size_t want = matches.size() * negatives_per_positive;
  size_t want_hard = static_cast<size_t>(want * hard_fraction);

  std::vector<PairLabel> out;
  for (const RowPair& m : matches) {
    out.push_back(PairLabel{m.first, m.second, 1});
  }
  rng->Shuffle(&hard_negatives);
  for (size_t i = 0; i < hard_negatives.size() && i < want_hard; ++i) {
    out.push_back(PairLabel{hard_negatives[i].first, hard_negatives[i].second,
                            0});
  }
  size_t have_hard = std::min(hard_negatives.size(), want_hard);
  // Top up with random negatives.
  std::vector<PairLabel> random = SampleTrainingPairs(
      left_rows, right_rows, matches,
      matches.empty() ? 0 : (want - have_hard) / matches.size() + 1, rng);
  size_t added = 0;
  for (const PairLabel& p : random) {
    if (p.label == 1) continue;
    if (added + have_hard >= want) break;
    out.push_back(p);
    ++added;
  }
  return out;
}

DeepEr::DeepEr(const embedding::EmbeddingStore* words,
               const DeepErConfig& config)
    : words_(words), config_(config), rng_(config.seed) {
  if (config_.composition == TupleComposition::kAverage) {
    // The classifier is created lazily on first Train/Predict: its input
    // width depends on the schema's column count (see SimilarityVector).
  } else {
    encoder_ = std::make_unique<nn::LstmEncoder>(
        words_->dim(), config_.lstm_hidden, config_.bidirectional, &rng_);
    size_t enc_dim = encoder_->output_dim();
    size_t feat_dim = 2 * enc_dim + 1;
    size_t hidden = config_.classifier_hidden.empty()
                        ? 16
                        : config_.classifier_hidden[0];
    head1_ = std::make_unique<nn::Linear>(feat_dim, hidden, &rng_);
    head2_ = std::make_unique<nn::Linear>(hidden, 1, &rng_);
  }
}

std::vector<nn::VarPtr> DeepEr::AllParameters() const {
  std::vector<nn::VarPtr> params = encoder_->Parameters();
  for (const nn::VarPtr& p : head1_->Parameters()) params.push_back(p);
  for (const nn::VarPtr& p : head2_->Parameters()) params.push_back(p);
  return params;
}

nn::VarPtr DeepEr::EncodeTuple(data::RowView row) const {
  std::vector<nn::VarPtr> seq;
  for (const data::Value& v : row) {
    if (v.is_null()) continue;
    for (const std::string& tok : text::Tokenize(v.ToString())) {
      const std::vector<float>* vec = words_->Find(tok);
      std::vector<float> subword;
      if (vec == nullptr) {
        // Subword fallback keeps out-of-vocabulary (typo-ridden) tokens
        // in the sequence instead of dropping signal.
        subword = embedding::TrigramHashVector(tok, words_->dim());
        vec = &subword;
      }
      seq.push_back(nn::Constant(nn::Tensor::FromVector(*vec)));
      if (seq.size() >= config_.max_tokens_per_tuple) break;
    }
    if (seq.size() >= config_.max_tokens_per_tuple) break;
  }
  return encoder_->Encode(seq);
}

namespace {
// |x| built from two relus so it stays on the tape.
nn::VarPtr Abs(const nn::VarPtr& x) {
  return nn::Add(nn::Relu(x), nn::Relu(nn::Scale(x, -1.0f)));
}
}  // namespace

nn::VarPtr DeepEr::PairLogit(data::RowView a, data::RowView b,
                             bool train) const {
  nn::VarPtr ea = EncodeTuple(a);
  nn::VarPtr eb = EncodeTuple(b);
  nn::VarPtr diff = Abs(nn::Sub(ea, eb));
  nn::VarPtr prod = nn::Mul(ea, eb);
  // Cosine as a derived scalar feature (dot of normalized values,
  // computed outside the tape — a fixed similarity input, not a trained
  // path, mirroring DeepER's similarity-vector design).
  float cos = static_cast<float>(nn::kernels::CosineF32(
      ea->value.data(), eb->value.data(), ea->value.size()));
  nn::VarPtr cos_feat = nn::Constant(nn::Tensor({1}, {cos}));
  nn::VarPtr features = nn::Concat({diff, prod, cos_feat});
  nn::VarPtr h = nn::Relu(head1_->Forward(features, train));
  return head2_->Forward(h, train);  // {1,1}
}

void DeepEr::FitWeights(const std::vector<const data::Table*>& tables) {
  token_counts_ = text::Vocabulary();
  for (const data::Table* t : tables) {
    size_t rows = t->num_rows();
    size_t cols = t->num_columns();
    // Dictionary-encoded columns tokenize each DISTINCT string once and
    // replay the cached token list per row; a column with d distinct
    // values costs d tokenizations instead of n. The row-major emission
    // order (and thus every vocabulary count and id) is unchanged.
    std::vector<std::vector<std::vector<std::string>>> cached(cols);
    std::vector<char> use_dict(cols, 0);
    for (size_t c = 0; c < cols; ++c) {
      if (t->ChunkScannable() &&
          t->storage_type(c) == data::ValueType::kString &&
          t->ColumnUniform(c)) {
        use_dict[c] = 1;
        cached[c].resize(t->dict(c).size());
      }
    }
    std::vector<std::vector<char>> done(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (use_dict[c]) done[c].assign(cached[c].size(), 0);
    }
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        if (use_dict[c]) {
          if (t->IsNull(r, c)) continue;
          uint32_t code = t->DictCode(r, c);
          if (!done[c][code]) {
            cached[c][code] =
                text::Tokenize(std::string(t->dict(c).str(code)));
            done[c][code] = 1;
          }
          token_counts_.AddAll(cached[c][code]);
          continue;
        }
        const data::Value v = t->at(r, c);
        if (v.is_null()) continue;
        token_counts_.AddAll(text::Tokenize(v.ToString()));
      }
    }
  }
  use_sif_ = true;
}

std::vector<float> DeepEr::AttributeEmbedding(const data::Value& v) const {
  if (v.is_null()) return std::vector<float>(words_->dim(), 0.0f);
  std::vector<std::string> tokens = text::Tokenize(v.ToString());
  if (use_sif_) {
    embedding::SifWeights sif;
    sif.vocabulary = &token_counts_;
    sif.trigram_fallback_below = 5;
    return embedding::EmbedTokens(*words_, tokens,
                                  embedding::Composition::kSifWeighted, sif);
  }
  return embedding::EmbedTokens(*words_, tokens);
}

namespace {

// Candidate pairs per batched classifier forward in Match: enough rows
// to amortize the forward, few enough that each worker's feature block
// stays a few KB.
constexpr size_t kScoreBlock = 64;

// The candidates whose flag is set, in order (so Match's output does not
// depend on how the flags were computed in parallel).
std::vector<RowPair> KeepFlagged(const std::vector<RowPair>& candidates,
                                 const std::vector<char>& keep) {
  std::vector<RowPair> out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i]) out.push_back(candidates[i]);
  }
  AUTODC_OBS_COUNT("deeper.matches", out.size());
  return out;
}

// Sizes `cache` for `rows` rows of `columns` cells of width `dim`.
void SizeCache(size_t rows, size_t columns, size_t dim, RowCache* cache) {
  cache->num_columns = columns;
  cache->dim = dim;
  cache->kinds.assign(rows * columns, RowCache::kNull);
  cache->numbers.assign(rows * columns, 0.0);
  cache->cells.assign(rows * columns * dim, 0.0f);
  // Row buffers are allocated here, on the calling thread, and filled in
  // place by the workers: buffers that outlive a parallel section but
  // come from the workers' malloc arenas fragment them, and peak RSS
  // creeps up over repeated calls.
  cache->tuples.assign(rows, std::vector<float>(dim));
}

}  // namespace

void CachedSimilarityVector(const RowCache& a, size_t ra, const RowCache& b,
                            size_t rb, std::vector<float>* f) {
  size_t cols = a.num_columns;
  size_t dim = a.dim;
  f->clear();
  f->reserve(3 * cols + 1);
  for (size_t c = 0; c < cols; ++c) {
    size_t ia = ra * cols + c;
    size_t ib = rb * cols + c;
    if (a.kinds[ia] == RowCache::kNull || b.kinds[ib] == RowCache::kNull) {
      f->insert(f->end(), {1.0f, 0.0f, 0.0f});
      continue;
    }
    f->push_back(0.0f);
    if (a.kinds[ia] == RowCache::kNumeric &&
        b.kinds[ib] == RowCache::kNumeric) {
      // Heterogeneity handling (Sec. 3.2): numeric cells compare
      // numerically — token embeddings of digit strings carry no metric
      // structure.
      double x = a.numbers[ia];
      double y = b.numbers[ib];
      double scale = std::max({std::fabs(x), std::fabs(y), 1e-9});
      f->push_back(static_cast<float>(1.0 - std::fabs(x - y) / scale));
      f->push_back(x == y ? 1.0f : 0.0f);
      continue;
    }
    const float* ea = a.cells.data() + ia * dim;
    const float* eb = b.cells.data() + ib * dim;
    // text::CosineSimilarity / EuclideanDistance on the cached cells.
    f->push_back(static_cast<float>(
        dim == 0 ? 0.0 : nn::kernels::CosineF32(ea, eb, dim)));
    f->push_back(
        static_cast<float>(std::sqrt(nn::kernels::SqDistF32(ea, eb, dim))));
  }
  f->push_back(static_cast<float>(
      text::CosineSimilarity(a.tuples[ra], b.tuples[rb])));
}

void DeepEr::EmbedRowInto(data::RowView row, size_t r,
                          RowCache* cache) const {
  size_t cols = cache->num_columns;
  for (size_t c = 0; c < cols; ++c) {
    // Cells are assembled from column storage once per attribute.
    const data::Value v = row[c];
    if (v.is_null()) continue;  // kNull, zero embedding
    size_t cell = r * cols + c;
    bool numeric = false;
    cache->numbers[cell] = v.ToNumeric(&numeric);
    cache->kinds[cell] = numeric ? RowCache::kNumeric : RowCache::kText;
    // Numeric cells keep an embedding too: a numeric/text pair compares
    // by embedding.
    std::vector<float> e = AttributeEmbedding(v);
    std::copy(e.begin(), e.end(), cache->cells.begin() + cell * cache->dim);
  }
  std::vector<float> tuple = EmbedTupleVector(row);
  cache->tuples[r].assign(tuple.begin(), tuple.end());
}

RowCache DeepEr::EmbedRows(const data::Table& table) const {
  AUTODC_OBS_SPAN(embed_span, "deeper.embed_rows");
  RowCache cache;
  cache.table = &table;
  SizeCache(table.num_rows(), table.num_columns(), words_->dim(), &cache);
  ParallelFor(0, table.num_rows(), 8, [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) EmbedRowInto(table.row(r), r, &cache);
  });
  return cache;
}

std::vector<float> DeepEr::SimilarityVector(data::RowView a,
                                            data::RowView b) const {
  RowCache ca;
  RowCache cb;
  SizeCache(1, a.size(), words_->dim(), &ca);
  SizeCache(1, a.size(), words_->dim(), &cb);
  EmbedRowInto(a, 0, &ca);
  EmbedRowInto(b, 0, &cb);
  std::vector<float> f;
  CachedSimilarityVector(ca, 0, cb, 0, &f);
  return f;
}

void DeepEr::EnsureAvgClassifier(size_t num_columns) {
  if (avg_classifier_ != nullptr) return;
  nn::ClassifierConfig ccfg;
  ccfg.input_dim = 3 * num_columns + 1;
  ccfg.hidden = config_.classifier_hidden;
  ccfg.learning_rate = config_.learning_rate;
  ccfg.positive_weight = config_.positive_weight;
  avg_classifier_ = std::make_unique<nn::BinaryClassifier>(ccfg, &rng_);
}

nn::TrainOptions DeepEr::MakeTrainOptions(size_t batch_size,
                                          float grad_clip) const {
  nn::TrainOptions options;
  options.epochs = config_.epochs;
  options.batch_size = batch_size;
  options.grad_clip = grad_clip;
  options.validation_fraction = config_.validation_fraction;
  options.early_stopping_patience = config_.early_stopping_patience;
  options.early_stopping_min_delta = config_.early_stopping_min_delta;
  options.checkpoint_every = config_.checkpoint_every;
  options.checkpoint_path = config_.checkpoint_path;
  options.epoch_callback = config_.epoch_callback;
  return options;
}

double DeepEr::Train(const data::Table& left, const data::Table& right,
                     const std::vector<PairLabel>& pairs) {
  if (config_.composition == TupleComposition::kAverage) {
    RowCache l = EmbedRows(left);
    if (&left == &right) return Train(l, l, pairs);
    return Train(l, EmbedRows(right), pairs);
  }
  AUTODC_OBS_SPAN(train_span, "deeper.train");
  AUTODC_OBS_COUNT("deeper.train_pairs", pairs.size());

  // LSTM path: per-pair SGD through the unrolled encoders, driven by the
  // shared Trainer runtime. The unrolled graphs allocate thousands of
  // small tensors per pair; the workspace pool recycles them across pairs
  // and epochs. Persistent shuffle order + batch_size 1 reproduce the
  // original per-pair loop exactly.
  nn::WorkspaceScope workspace;
  nn::Adam opt(AllParameters(), config_.learning_rate);
  nn::TrainOptions options =
      MakeTrainOptions(/*batch_size=*/1, /*grad_clip=*/1.0f);
  options.shuffle = nn::ShuffleMode::kPersistent;
  nn::Trainer trainer(options);
  last_train_ = trainer.Fit(
      pairs.size(), &rng_, &opt,
      [&](const std::vector<size_t>& idx, bool train) {
        const PairLabel& p = pairs[idx[0]];
        nn::VarPtr logit =
            PairLogit(left.row(p.left), right.row(p.right), train);
        nn::Tensor target({1, 1});
        target.at(0, 0) = p.label > 0 ? 1.0f : 0.0f;
        nn::VarPtr loss = nn::BceWithLogitsLoss(logit, target);
        if (p.label > 0 && config_.positive_weight != 1.0f) {
          loss = nn::Scale(loss, config_.positive_weight);
        }
        return loss;
      });
  return last_train_.final_train_loss;
}

double DeepEr::Train(const RowCache& left, const RowCache& right,
                     const std::vector<PairLabel>& pairs) {
  if (config_.composition != TupleComposition::kAverage) {
    return Train(*left.table, *right.table, pairs);
  }
  AUTODC_OBS_SPAN(train_span, "deeper.train");
  AUTODC_OBS_COUNT("deeper.train_pairs", pairs.size());
  EnsureAvgClassifier(left.num_columns);
  // Featurization reads only the caches, so it runs on the thread pool.
  nn::Batch features(pairs.size());
  std::vector<int> labels(pairs.size());
  ParallelFor(0, pairs.size(), 8, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const PairLabel& p = pairs[i];
      CachedSimilarityVector(left, p.left, right, p.right, &features[i]);
      labels[i] = p.label;
    }
  });
  last_train_ = avg_classifier_->Train(
      features, labels, MakeTrainOptions(/*batch_size=*/32,
                                         /*grad_clip=*/5.0f));
  return last_train_.final_train_loss;
}

double DeepEr::PredictProba(data::RowView a, data::RowView b) const {
  if (config_.composition == TupleComposition::kAverage) {
    if (avg_classifier_ == nullptr) return 0.0;  // untrained
    return avg_classifier_->PredictProba(SimilarityVector(a, b));
  }
  nn::WorkspaceScope workspace;
  nn::VarPtr logit = PairLogit(a, b, /*train=*/false);
  return 1.0 / (1.0 + std::exp(-static_cast<double>(logit->value[0])));
}

std::vector<RowPair> DeepEr::Match(const data::Table& left,
                                   const data::Table& right,
                                   const std::vector<RowPair>& candidates,
                                   double threshold) const {
  if (config_.composition == TupleComposition::kAverage) {
    RowCache l = EmbedRows(left);
    if (&left == &right) return Match(l, l, candidates, threshold);
    return Match(l, EmbedRows(right), candidates, threshold);
  }
  // LSTM path: scoring candidate pairs is embarrassingly parallel —
  // PredictProba only reads trained weights and embedding stores.
  AUTODC_OBS_SPAN(match_span, "deeper.match");
  AUTODC_OBS_COUNT("deeper.match_candidates", candidates.size());
  std::vector<char> keep(candidates.size(), 0);
  ParallelFor(0, candidates.size(), 8, [&](size_t lo, size_t hi) {
    // Workspace mode is per-thread, so each worker opens its own scope.
    nn::WorkspaceScope workspace;
    for (size_t i = lo; i < hi; ++i) {
      const RowPair& c = candidates[i];
      keep[i] =
          PredictProba(left.row(c.first), right.row(c.second)) >= threshold
              ? 1
              : 0;
    }
  });
  return KeepFlagged(candidates, keep);
}

std::vector<RowPair> DeepEr::Match(const RowCache& left, const RowCache& right,
                                   const std::vector<RowPair>& candidates,
                                   double threshold) const {
  if (config_.composition != TupleComposition::kAverage) {
    return Match(*left.table, *right.table, candidates, threshold);
  }
  AUTODC_OBS_SPAN(match_span, "deeper.match");
  AUTODC_OBS_COUNT("deeper.match_candidates", candidates.size());
  std::vector<char> keep(candidates.size(), 0);
  if (avg_classifier_ == nullptr) {
    // Untrained: PredictProba is 0 for every pair.
    std::fill(keep.begin(), keep.end(), 0.0 >= threshold ? 1 : 0);
    return KeepFlagged(candidates, keep);
  }
  ParallelFor(0, candidates.size(), kScoreBlock, [&](size_t lo, size_t hi) {
    nn::Batch block;
    for (size_t b0 = lo; b0 < hi; b0 += kScoreBlock) {
      size_t b1 = std::min(hi, b0 + kScoreBlock);
      block.resize(b1 - b0);
      for (size_t i = b0; i < b1; ++i) {
        const RowPair& c = candidates[i];
        CachedSimilarityVector(left, c.first, right, c.second, &block[i - b0]);
      }
      std::vector<double> probs = avg_classifier_->PredictProbaBatch(block);
      for (size_t i = b0; i < b1; ++i) {
        keep[i] = probs[i - b0] >= threshold ? 1 : 0;
      }
    }
  });
  return KeepFlagged(candidates, keep);
}

void DeepEr::InitForSchema(const data::Schema& schema) {
  if (config_.composition == TupleComposition::kAverage) {
    EnsureAvgClassifier(schema.num_columns());
  }
}

std::vector<nn::VarPtr> DeepEr::TrainableParameters() const {
  if (config_.composition == TupleComposition::kAverage) {
    if (avg_classifier_ == nullptr) return {};
    return avg_classifier_->Parameters();
  }
  return AllParameters();
}

Status DeepEr::SaveCheckpoint(const std::string& path) const {
  std::vector<nn::VarPtr> params = TrainableParameters();
  if (params.empty()) {
    return Status::FailedPrecondition(
        "model has no parameters yet (call Train or InitForSchema first)");
  }
  return nn::SaveParametersToFile(params, path);
}

Status DeepEr::LoadCheckpoint(const std::string& path) {
  std::vector<nn::VarPtr> params = TrainableParameters();
  if (params.empty()) {
    return Status::FailedPrecondition(
        "model has no parameters yet (call InitForSchema first)");
  }
  return nn::LoadParametersFromFile(params, path);
}

std::vector<float> DeepEr::EmbedTupleVector(data::RowView row) const {
  if (config_.composition == TupleComposition::kAverage) {
    if (use_sif_) {
      embedding::SifWeights sif;
      sif.vocabulary = &token_counts_;
      sif.trigram_fallback_below = 5;
      return embedding::EmbedTuple(*words_, row,
                                   embedding::Composition::kSifWeighted, sif);
    }
    return embedding::EmbedTuple(*words_, row);
  }
  nn::VarPtr enc = EncodeTuple(row);
  return enc->value.vec();
}

}  // namespace autodc::er
