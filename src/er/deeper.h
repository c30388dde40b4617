#ifndef AUTODC_ER_DEEPER_H_
#define AUTODC_ER_DEEPER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/data/table.h"
#include "src/embedding/embedding_store.h"
#include "src/er/evaluation.h"
#include "src/nn/classifier.h"
#include "src/nn/rnn.h"
#include "src/text/vocabulary.h"

namespace autodc::er {

/// A labeled training pair.
struct PairLabel {
  size_t left = 0;
  size_t right = 0;
  int label = 0;  ///< 1 = match
};

/// Samples a training set from ground-truth matches: every match becomes
/// a positive, and `negatives_per_positive` random non-matching pairs
/// become negatives. This is DeepER's imbalance-aware sampling (Sec. 6.1:
/// "samples non-duplicate tuple pairs ... at a higher level than
/// duplicate pairs").
std::vector<PairLabel> SampleTrainingPairs(
    size_t left_rows, size_t right_rows, const std::vector<RowPair>& matches,
    size_t negatives_per_positive, Rng* rng);

/// Like SampleTrainingPairs, but draws a share of the negatives from
/// `hard_pool` (e.g. blocking candidates): near-miss non-matches are what
/// the classifier must separate at deployment, so training on them is
/// essential for precision. `hard_fraction` in [0,1] controls the mix.
std::vector<PairLabel> SampleTrainingPairsWithHardNegatives(
    size_t left_rows, size_t right_rows, const std::vector<RowPair>& matches,
    const std::vector<RowPair>& hard_pool, size_t negatives_per_positive,
    double hard_fraction, Rng* rng);

/// How DeepER composes a tuple vector from word vectors (Figure 5).
enum class TupleComposition {
  kAverage = 0,  ///< mean of the tuple's word vectors (fast path)
  kLstm,         ///< trainable (bi)LSTM over the word sequence
};

/// Per-row state DeepER's similarity features are built from: for every
/// cell a kind (null, text or numeric), its numeric parse and its
/// composed attribute embedding, plus the row's tuple vector. Built once
/// per row by DeepEr::EmbedRows, so scoring m candidate pairs over n
/// rows embeds n rows instead of 2m. Tied to the table it was built from
/// (which must outlive it) and to the model's SIF weights at build time.
struct RowCache {
  enum CellKind : uint8_t { kNull = 0, kText, kNumeric };

  const data::Table* table = nullptr;
  size_t num_columns = 0;
  size_t dim = 0;
  /// Row-major per-cell state: kinds/numbers hold one entry per cell,
  /// cells holds `dim` floats per cell (zeros for a null cell).
  std::vector<CellKind> kinds;
  std::vector<double> numbers;
  std::vector<float> cells;
  /// One tuple vector per row (EmbedTupleVector) — the blocker's input.
  std::vector<std::vector<float>> tuples;

  size_t num_rows() const { return tuples.size(); }
};

/// DeepER's similarity vector (see DeepEr::SimilarityVector) between row
/// `ra` of `a` and row `rb` of `b`, written to `out`. The one feature
/// code path: SimilarityVector, Train and Match all build features here.
void CachedSimilarityVector(const RowCache& a, size_t ra, const RowCache& b,
                            size_t rb, std::vector<float>* out);

struct DeepErConfig {
  TupleComposition composition = TupleComposition::kAverage;
  size_t lstm_hidden = 16;
  bool bidirectional = true;
  std::vector<size_t> classifier_hidden = {32};
  size_t epochs = 15;
  float learning_rate = 5e-3f;
  float positive_weight = 1.0f;
  size_t max_tokens_per_tuple = 24;  ///< LSTM unroll cap
  uint64_t seed = 42;

  // ---- Trainer runtime knobs (defaults reproduce seed behaviour). ----
  /// Fraction of training pairs held out for validation (0 disables).
  double validation_fraction = 0.0;
  /// Early stopping patience in epochs (0 disables); monitors val loss
  /// when a split exists, else train loss; best weights are restored.
  size_t early_stopping_patience = 0;
  double early_stopping_min_delta = 0.0;
  /// Periodic checkpointing through nn/serialize (0 disables).
  size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Per-epoch telemetry: {epoch, train_loss, val_loss, lr, wall_ms}.
  nn::EpochCallback epoch_callback;
};

/// The DeepER entity-resolution model of Sec. 5.2 / Figure 5: pre-trained
/// word embeddings -> tuple composition -> similarity features ->
/// classifier. With kAverage composition only the classifier trains; with
/// kLstm the encoder trains end-to-end through the similarity layer.
class DeepEr {
 public:
  /// `words` must outlive the model (pre-trained embeddings, the
  /// GloVe-substitute).
  DeepEr(const embedding::EmbeddingStore* words, const DeepErConfig& config);

  /// Fits token-frequency statistics over the given tables and switches
  /// the average-composition path to SIF weighting (frequent tokens such
  /// as shared brand/category words are downweighted, so tuple vectors
  /// are dominated by their discriminative rare tokens). Call before
  /// Train/EmbedTupleVector for best quality.
  void FitWeights(const std::vector<const data::Table*>& tables);

  /// Trains on labeled pairs drawn from the two tables. Returns final
  /// epoch mean loss. Validation/early-stopping/checkpoint behaviour is
  /// controlled by the Trainer knobs in DeepErConfig; full per-epoch
  /// history is available via last_train_result().
  double Train(const data::Table& left, const data::Table& right,
               const std::vector<PairLabel>& pairs);
  /// Train over rows already embedded by EmbedRows (the average path
  /// featurizes from the caches; the LSTM path reads their tables).
  double Train(const RowCache& left, const RowCache& right,
               const std::vector<PairLabel>& pairs);

  /// Trainer result of the most recent Train call (epoch history,
  /// early-stopping outcome, checkpoint status).
  const nn::TrainResult& last_train_result() const { return last_train_; }

  /// Match probability for one tuple pair.
  double PredictProba(data::RowView a, data::RowView b) const;

  /// Classifies every candidate pair and returns those above threshold.
  std::vector<RowPair> Match(const data::Table& left,
                             const data::Table& right,
                             const std::vector<RowPair>& candidates,
                             double threshold = 0.5) const;
  /// Match over rows already embedded by EmbedRows. The average path
  /// scores fixed-size blocks of candidates with one batched classifier
  /// forward each; the probabilities equal per-pair PredictProba bit for
  /// bit, so the output does not depend on blocking or thread count.
  std::vector<RowPair> Match(const RowCache& left, const RowCache& right,
                             const std::vector<RowPair>& candidates,
                             double threshold = 0.5) const;

  /// Embeds every row of `table` once, in parallel. Call after
  /// FitWeights: SIF weights shape the embeddings.
  RowCache EmbedRows(const data::Table& table) const;

  /// Tuple embedding under the configured composition (average path uses
  /// the word store; LSTM path runs the trained encoder). Exposed for
  /// LSH blocking over tuple vectors.
  std::vector<float> EmbedTupleVector(data::RowView row) const;

  /// DeepER's similarity vector (Figure 5): per attribute, a null
  /// indicator and two similarities — cosine and L2 distance of the two
  /// cells' composed embeddings, or a relative difference and equality
  /// flag when both cells are numeric — plus the whole-tuple cosine.
  std::vector<float> SimilarityVector(data::RowView a, data::RowView b) const;

  const DeepErConfig& config() const { return config_; }

  /// Materializes the model for a given column count without training —
  /// required before LoadCheckpoint on a fresh model (the average-
  /// composition classifier is otherwise created lazily at Train time).
  void InitForSchema(const data::Schema& schema);

  /// Every trainable parameter, in a stable order (classifier or
  /// encoder+head). Empty for an uninitialized average-path model.
  std::vector<nn::VarPtr> TrainableParameters() const;

  /// Saves / restores the trainable parameters — the "pre-trained DL
  /// models for DC" workflow of Sec. 3.3: train once on a big task,
  /// reload and fine-tune on a related task with few labels.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

 private:
  /// Composed embedding of one cell's tokens (SIF + subword fallback
  /// when FitWeights was called).
  std::vector<float> AttributeEmbedding(const data::Value& v) const;
  /// Fills row `r` of `cache` (sized by EmbedRows) from `row`.
  void EmbedRowInto(data::RowView row, size_t r, RowCache* cache) const;
  void EnsureAvgClassifier(size_t num_columns);
  /// TrainOptions assembled from the config's Trainer knobs.
  nn::TrainOptions MakeTrainOptions(size_t batch_size, float grad_clip) const;
  // LSTM path helpers (tape-building).
  nn::VarPtr EncodeTuple(data::RowView row) const;
  nn::VarPtr PairLogit(data::RowView a, data::RowView b, bool train) const;
  std::vector<nn::VarPtr> AllParameters() const;

  const embedding::EmbeddingStore* words_;
  DeepErConfig config_;
  mutable Rng rng_;
  /// Token frequencies for SIF weighting (empty until FitWeights).
  text::Vocabulary token_counts_;
  bool use_sif_ = false;

  /// Result of the most recent Train call.
  nn::TrainResult last_train_;

  // Average-composition path: plain feature classifier.
  std::unique_ptr<nn::BinaryClassifier> avg_classifier_;

  // LSTM path: encoder + head trained end-to-end.
  std::unique_ptr<nn::LstmEncoder> encoder_;
  std::unique_ptr<nn::Linear> head1_;
  std::unique_ptr<nn::Linear> head2_;
};

}  // namespace autodc::er

#endif  // AUTODC_ER_DEEPER_H_
