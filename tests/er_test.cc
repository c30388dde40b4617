// Tests for the entity-resolution stack: evaluation math, sampling,
// blocking (attribute vs LSH), features, the classical baselines, and
// the DeepER model in both composition modes on a generated benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/parallel.h"
#include "src/datagen/er_benchmark.h"
#include "src/embedding/composition.h"
#include "src/embedding/word2vec.h"
#include "src/er/baselines.h"
#include "src/er/blocking.h"
#include "src/er/deeper.h"
#include "src/er/evaluation.h"
#include "src/er/features.h"
#include "src/text/similarity.h"
#include "src/text/tokenizer.h"

namespace autodc::er {
namespace {

TEST(EvaluationTest, PerfectPrediction) {
  std::vector<RowPair> truth = {{0, 0}, {1, 2}};
  PrfScore s = Evaluate(truth, truth);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
}

TEST(EvaluationTest, PartialPrediction) {
  std::vector<RowPair> truth = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  std::vector<RowPair> pred = {{0, 0}, {1, 1}, {9, 9}};
  PrfScore s = Evaluate(pred, truth);
  EXPECT_NEAR(s.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.recall, 0.5, 1e-12);
  EXPECT_EQ(s.true_positives, 2u);
  EXPECT_EQ(s.false_positives, 1u);
  EXPECT_EQ(s.false_negatives, 2u);
}

TEST(EvaluationTest, EmptyPredictionsAndTruth) {
  PrfScore s = Evaluate({}, {{0, 0}});
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
  PrfScore s2 = Evaluate({{0, 0}}, {});
  EXPECT_DOUBLE_EQ(s2.precision, 0.0);
}

TEST(EvaluationTest, DuplicatePredictionsCountedOnce) {
  std::vector<RowPair> truth = {{0, 0}};
  std::vector<RowPair> pred = {{0, 0}, {0, 0}};
  PrfScore s = Evaluate(pred, truth);
  EXPECT_EQ(s.true_positives, 1u);
  EXPECT_EQ(s.false_positives, 0u);
}

TEST(EvaluationTest, BlockingMetrics) {
  std::vector<RowPair> truth = {{0, 0}, {1, 1}};
  std::vector<RowPair> cands = {{0, 0}, {5, 5}};
  EXPECT_DOUBLE_EQ(PairCompleteness(cands, truth), 0.5);
  EXPECT_DOUBLE_EQ(PairCompleteness({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(ReductionRatio(10, 10, 10), 0.9);
}

TEST(SamplingTest, RespectsRatioAndAvoidsMatches) {
  Rng rng(1);
  std::vector<RowPair> matches = {{0, 0}, {1, 1}, {2, 2}};
  auto pairs = SampleTrainingPairs(50, 50, matches, 4, &rng);
  size_t pos = 0, neg = 0;
  for (const PairLabel& p : pairs) {
    if (p.label == 1) {
      ++pos;
    } else {
      ++neg;
      EXPECT_FALSE(std::find(matches.begin(), matches.end(),
                             RowPair{p.left, p.right}) != matches.end())
          << "negative sample is actually a match";
    }
  }
  EXPECT_EQ(pos, 3u);
  EXPECT_EQ(neg, 12u);
}

TEST(FeaturesTest, HandcraftedDimsMatchSchema) {
  data::Schema schema({{"name", data::ValueType::kString},
                       {"price", data::ValueType::kDouble}});
  data::Row a = {data::Value("widget pro"), data::Value(10.0)};
  data::Row b = {data::Value("widget pro"), data::Value(10.0)};
  auto f = HandcraftedPairFeatures(a, b, schema);
  EXPECT_EQ(f.size(), HandcraftedFeatureDim(schema));
  // Identical rows -> all similarities 1, null flags 0.
  EXPECT_FLOAT_EQ(f[0], 0.0f);  // null flag
  for (size_t i = 1; i <= 5; ++i) EXPECT_FLOAT_EQ(f[i], 1.0f);
}

TEST(FeaturesTest, NullsZeroOutSimilarities) {
  data::Schema schema({{"name", data::ValueType::kString}});
  data::Row a = {data::Value::Null()};
  data::Row b = {data::Value("x")};
  auto f = HandcraftedPairFeatures(a, b, schema);
  EXPECT_FLOAT_EQ(f[0], 1.0f);  // null indicator set
  for (size_t i = 1; i < f.size(); ++i) EXPECT_FLOAT_EQ(f[i], 0.0f);
}

TEST(FeaturesTest, EmbeddingFeaturesShape) {
  std::vector<float> ea = {1.0f, 0.0f};
  std::vector<float> eb = {0.0f, 1.0f};
  auto f = EmbeddingPairFeatures(ea, eb);
  EXPECT_EQ(f.size(), EmbeddingFeatureDim(2));
  EXPECT_FLOAT_EQ(f[0], 1.0f);   // |1-0|
  EXPECT_FLOAT_EQ(f[2], 0.0f);   // 1*0
  EXPECT_FLOAT_EQ(f[4], 0.0f);   // cosine of orthogonal vectors
}

TEST(BlockingTest, AttributeBlockingSharesFirstToken) {
  data::Table left(data::Schema::OfStrings({"name"}), "l");
  data::Table right(data::Schema::OfStrings({"name"}), "r");
  ASSERT_TRUE(left.AppendRow({data::Value("sony tv")}).ok());
  ASSERT_TRUE(left.AppendRow({data::Value("apple phone")}).ok());
  ASSERT_TRUE(right.AppendRow({data::Value("sony radio")}).ok());
  ASSERT_TRUE(right.AppendRow({data::Value::Null()}).ok());
  auto cands = AttributeBlocking(left, right, 0);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], (RowPair{0, 0}));
}

TEST(BlockingTest, LshSimilarVectorsCollideDissimilarDoNot) {
  // 40 near-identical vectors and 40 opposite ones; LSH must pair ups
  // with ups far more than ups with downs.
  Rng rng(2);
  std::vector<std::vector<float>> left, right;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> up(16), down(16);
    for (int d = 0; d < 16; ++d) {
      float base = static_cast<float>(rng.Normal(0, 0.05));
      up[d] = 1.0f + base;
      down[d] = -1.0f + base;
    }
    left.push_back(up);
    right.push_back(i % 2 == 0 ? up : down);
  }
  LshBlocker lsh(16, 6, 4, 7);
  auto cands = lsh.Candidates(left, right);
  size_t same_sign = 0, cross_sign = 0;
  for (const RowPair& c : cands) {
    if (c.second % 2 == 0) ++same_sign;
    else ++cross_sign;
  }
  EXPECT_GT(same_sign, 0u);
  EXPECT_EQ(cross_sign, 0u) << "opposite vectors collided";
}

TEST(BlockingTest, MoreTablesRaiseRecall) {
  Rng rng(3);
  std::vector<std::vector<float>> left, right;
  std::vector<RowPair> truth;
  for (int i = 0; i < 60; ++i) {
    std::vector<float> v(16), w(16);
    for (int d = 0; d < 16; ++d) {
      v[d] = static_cast<float>(rng.Normal());
      w[d] = v[d] + static_cast<float>(rng.Normal(0, 0.3));
    }
    left.push_back(v);
    right.push_back(w);
    truth.push_back({static_cast<size_t>(i), static_cast<size_t>(i)});
  }
  LshBlocker one(16, 8, 1, 7);
  LshBlocker many(16, 8, 8, 7);
  double r1 = PairCompleteness(one.Candidates(left, right), truth);
  double r8 = PairCompleteness(many.Candidates(left, right), truth);
  EXPECT_GE(r8, r1);
  EXPECT_GT(r8, 0.8);
}

TEST(ThresholdMatcherTest, ScoresAndMatches) {
  ThresholdMatcher matcher(0.6);
  data::Table l(data::Schema::OfStrings({"a"}), "l");
  data::Table r(data::Schema::OfStrings({"a"}), "r");
  ASSERT_TRUE(l.AppendRow({data::Value("red apple pie")}).ok());
  ASSERT_TRUE(r.AppendRow({data::Value("red apple pie")}).ok());
  ASSERT_TRUE(r.AppendRow({data::Value("green banana")}).ok());
  auto m = matcher.Match(l, r, {{0, 0}, {0, 1}});
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], (RowPair{0, 0}));
}

// Full-pipeline fixture: one products benchmark + trained word
// embeddings shared across the DeepER tests (training embeddings is the
// slow part).
class DeepErPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ErBenchmarkConfig cfg;
    cfg.domain = datagen::ErDomain::kProducts;
    cfg.num_entities = 150;
    cfg.dirtiness = 0.55;
    cfg.synonym_rate = 0.6;
    cfg.seed = 17;
    bench_ = new datagen::ErBenchmark(datagen::GenerateErBenchmark(cfg));
    embedding::Word2VecConfig wcfg;
    wcfg.sgns.dim = 24;
    wcfg.sgns.epochs = 6;
    wcfg.sgns.seed = 5;
    words_ = new embedding::EmbeddingStore(
        embedding::TrainWordEmbeddingsFromTables(
            {&bench_->left, &bench_->right}, wcfg));
  }
  static void TearDownTestSuite() {
    delete bench_;
    delete words_;
    bench_ = nullptr;
    words_ = nullptr;
  }

  static std::vector<RowPair> AllPairs(const datagen::ErBenchmark& b) {
    std::vector<RowPair> out;
    for (size_t l = 0; l < b.left.num_rows(); ++l) {
      for (size_t r = 0; r < b.right.num_rows(); ++r) out.push_back({l, r});
    }
    return out;
  }

  static datagen::ErBenchmark* bench_;
  static embedding::EmbeddingStore* words_;
};

datagen::ErBenchmark* DeepErPipelineTest::bench_ = nullptr;
embedding::EmbeddingStore* DeepErPipelineTest::words_ = nullptr;

// DeepER's similarity vector computed the per-pair way: every cell and
// both tuple vectors re-embedded for each pair. `vocab` is null for a
// model without FitWeights, else the token counts FitWeights collects.
std::vector<float> PerPairSimilarityVector(
    const embedding::EmbeddingStore& words, const text::Vocabulary* vocab,
    data::RowView a, data::RowView b) {
  embedding::Composition method = embedding::Composition::kAverage;
  embedding::SifWeights sif;
  if (vocab != nullptr) {
    method = embedding::Composition::kSifWeighted;
    sif.vocabulary = vocab;
    sif.trigram_fallback_below = 5;
  }
  auto embed = [&](const data::Value& v) {
    return embedding::EmbedTokens(words, text::Tokenize(v.ToString()),
                                  method, sif);
  };
  std::vector<float> f;
  for (size_t c = 0; c < a.size(); ++c) {
    const data::Value va = a[c];
    const data::Value vb = b[c];
    if (va.is_null() || vb.is_null()) {
      f.insert(f.end(), {1.0f, 0.0f, 0.0f});
      continue;
    }
    f.push_back(0.0f);
    bool a_num = false, b_num = false;
    double x = va.ToNumeric(&a_num);
    double y = vb.ToNumeric(&b_num);
    if (a_num && b_num) {
      double scale = std::max({std::fabs(x), std::fabs(y), 1e-9});
      f.push_back(static_cast<float>(1.0 - std::fabs(x - y) / scale));
      f.push_back(x == y ? 1.0f : 0.0f);
      continue;
    }
    std::vector<float> ea = embed(va);
    std::vector<float> eb = embed(vb);
    f.push_back(static_cast<float>(text::CosineSimilarity(ea, eb)));
    f.push_back(static_cast<float>(text::EuclideanDistance(ea, eb)));
  }
  f.push_back(static_cast<float>(
      text::CosineSimilarity(embedding::EmbedTuple(words, a, method, sif),
                             embedding::EmbedTuple(words, b, method, sif))));
  return f;
}

TEST_F(DeepErPipelineTest, CachedFeaturesEqualPerPairFeatures) {
  // Nulls, numeric cells (typed and as text), numeric-vs-text cells,
  // out-of-vocabulary and typo tokens, next to generated product rows.
  data::Table mixed(data::Schema({{"title", data::ValueType::kString},
                                  {"price", data::ValueType::kString},
                                  {"weight", data::ValueType::kDouble}}),
                    "mixed");
  const std::vector<data::Row> rows = {
      {data::Value(bench_->left.row(0).Text(0)), data::Value("12.50"),
       data::Value(1.5)},
      {data::Value(bench_->left.row(0).Text(0) + " zzqxv"),
       data::Value("12.5"), data::Value::Null()},
      {data::Value("qwrtzpx vlkmnb"), data::Value("about twelve"),
       data::Value(1.5)},
      {data::Value::Null(), data::Value("0"), data::Value(-3.0)},
      {data::Value("wirless headphnes"), data::Value::Null(),
       data::Value(0.0)},
  };
  for (const data::Row& r : rows) ASSERT_TRUE(mixed.AppendRow(r).ok());

  text::Vocabulary vocab;
  for (const data::Table* t : {&mixed, &bench_->left}) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      for (size_t c = 0; c < t->num_columns(); ++c) {
        const data::Value v = t->at(r, c);
        if (!v.is_null()) vocab.AddAll(text::Tokenize(v.ToString()));
      }
    }
  }
  for (bool fitted : {false, true}) {
    DeepEr model(words_, DeepErConfig{});
    if (fitted) model.FitWeights({&mixed, &bench_->left});
    for (const data::Table* t : {&mixed, &bench_->left}) {
      RowCache cache = model.EmbedRows(*t);
      ASSERT_EQ(cache.num_rows(), t->num_rows());
      size_t n = std::min<size_t>(t->num_rows(), 40);
      std::vector<float> cached;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          std::vector<float> expect = PerPairSimilarityVector(
              *words_, fitted ? &vocab : nullptr, t->row(i), t->row(j));
          CachedSimilarityVector(cache, i, cache, j, &cached);
          std::vector<float> wrapped =
              model.SimilarityVector(t->row(i), t->row(j));
          ASSERT_EQ(cached.size(), expect.size());
          ASSERT_EQ(wrapped.size(), expect.size());
          for (size_t k = 0; k < expect.size(); ++k) {
            EXPECT_EQ(cached[k], expect[k])
                << t->name() << " rows " << i << "," << j << " feature " << k
                << " fitted=" << fitted;
            EXPECT_EQ(wrapped[k], expect[k]);
          }
        }
      }
    }
  }
}

TEST_F(DeepErPipelineTest, BatchedMatchEqualsPerPairLoopAtAnyThreadCount) {
  Rng rng(16);
  auto train = SampleTrainingPairs(bench_->left.num_rows(),
                                   bench_->right.num_rows(), bench_->matches,
                                   4, &rng);
  DeepErConfig cfg;
  cfg.epochs = 10;
  cfg.learning_rate = 1e-2f;
  DeepEr model(words_, cfg);
  model.FitWeights({&bench_->left, &bench_->right});
  model.Train(bench_->left, bench_->right, train);

  // Every fifth pair: thousands of candidates, so blocks and worker
  // ranges end at many different places.
  std::vector<RowPair> cands;
  std::vector<RowPair> all = AllPairs(*bench_);
  for (size_t i = 0; i < all.size(); i += 5) cands.push_back(all[i]);
  const size_t restore = NumThreads();
  for (double threshold : {0.5, 0.9}) {
    std::vector<RowPair> expect;
    for (const RowPair& p : cands) {
      if (model.PredictProba(bench_->left.row(p.first),
                             bench_->right.row(p.second)) >= threshold) {
        expect.push_back(p);
      }
    }
    ASSERT_FALSE(expect.empty());
    ASSERT_LT(expect.size(), cands.size());
    for (size_t threads : {1, 2, 4}) {
      SetNumThreads(threads);
      EXPECT_EQ(model.Match(bench_->left, bench_->right, cands, threshold),
                expect)
          << "threads=" << threads << " threshold=" << threshold;
      RowCache left = model.EmbedRows(bench_->left);
      RowCache right = model.EmbedRows(bench_->right);
      EXPECT_EQ(model.Match(left, right, cands, threshold), expect)
          << "threads=" << threads << " threshold=" << threshold;
    }
  }
  SetNumThreads(restore);
}

TEST_F(DeepErPipelineTest, AverageCompositionBeatsThresholdBaseline) {
  Rng rng(11);
  // Hard negatives from same-brand blocking: what the matcher must
  // separate at deployment.
  auto hard = AttributeBlocking(bench_->left, bench_->right, 0);
  auto train = SampleTrainingPairsWithHardNegatives(
      bench_->left.num_rows(), bench_->right.num_rows(), bench_->matches,
      hard, 5, 0.6, &rng);
  DeepErConfig cfg;
  cfg.composition = TupleComposition::kAverage;
  cfg.epochs = 40;
  cfg.learning_rate = 1e-2f;
  DeepEr model(words_, cfg);
  model.FitWeights({&bench_->left, &bench_->right});
  model.Train(bench_->left, bench_->right, train);

  auto cands = AllPairs(*bench_);
  PrfScore deeper =
      Evaluate(model.Match(bench_->left, bench_->right, cands, 0.9),
               bench_->matches);
  ThresholdMatcher rule(0.5);
  PrfScore baseline =
      Evaluate(rule.Match(bench_->left, bench_->right, cands),
               bench_->matches);
  EXPECT_GT(deeper.f1, 0.8) << "DeepER F1 too low";
  EXPECT_GT(deeper.f1, baseline.f1)
      << "DeepER (avg) did not beat the rule baseline: " << deeper.f1
      << " vs " << baseline.f1;
}

TEST_F(DeepErPipelineTest, FeatureMatcherLearns) {
  Rng rng(12);
  auto train = SampleTrainingPairs(bench_->left.num_rows(),
                                   bench_->right.num_rows(), bench_->matches,
                                   5, &rng);
  FeatureMatcher fm(bench_->left.schema(), {16}, 0.01f, 25, 3);
  fm.Train(bench_->left, bench_->right, train);
  PrfScore s = Evaluate(
      fm.Match(bench_->left, bench_->right, AllPairs(*bench_)),
      bench_->matches);
  EXPECT_GT(s.f1, 0.6);
}

TEST_F(DeepErPipelineTest, LshBlockingShrinksCandidatesKeepingRecall) {
  DeepErConfig cfg;
  DeepEr model(words_, cfg);
  model.FitWeights({&bench_->left, &bench_->right});
  std::vector<std::vector<float>> lvecs, rvecs;
  for (size_t i = 0; i < bench_->left.num_rows(); ++i) {
    lvecs.push_back(model.EmbedTupleVector(bench_->left.row(i)));
  }
  for (size_t i = 0; i < bench_->right.num_rows(); ++i) {
    rvecs.push_back(model.EmbedTupleVector(bench_->right.row(i)));
  }
  LshBlocker lsh(words_->dim(), 4, 16, 21);
  auto cands = lsh.Candidates(lvecs, rvecs);
  double recall = PairCompleteness(cands, bench_->matches);
  double reduction = ReductionRatio(cands.size(), lvecs.size(), rvecs.size());
  // Attribute blocking on the cleanest attribute (brand) for contrast.
  auto attr = AttributeBlocking(bench_->left, bench_->right, 0);
  double attr_recall = PairCompleteness(attr, bench_->matches);
  EXPECT_GT(recall, 0.85) << "LSH lost too many true pairs";
  EXPECT_GT(recall, attr_recall)
      << "LSH should beat single-attribute blocking on recall";
  EXPECT_GT(reduction, 0.15) << "LSH did not shrink the candidate space";
}

TEST_F(DeepErPipelineTest, LstmCompositionTrainsAndPredicts) {
  Rng rng(13);
  // Small training set: the LSTM path is per-pair SGD (slow).
  std::vector<RowPair> some_matches(bench_->matches.begin(),
                                    bench_->matches.begin() + 20);
  auto train = SampleTrainingPairs(bench_->left.num_rows(),
                                   bench_->right.num_rows(), some_matches, 3,
                                   &rng);
  DeepErConfig cfg;
  cfg.composition = TupleComposition::kLstm;
  cfg.lstm_hidden = 8;
  cfg.epochs = 4;
  cfg.max_tokens_per_tuple = 12;
  DeepEr model(words_, cfg);
  double loss = model.Train(bench_->left, bench_->right, train);
  EXPECT_LT(loss, 0.65) << "LSTM DeepER failed to reduce loss";
  // Held-out sanity: matched pairs should outscore random pairs on
  // average.
  double match_score = 0.0, random_score = 0.0;
  size_t n = 20;
  for (size_t i = 20; i < 20 + n && i < bench_->matches.size(); ++i) {
    auto [l, r] = bench_->matches[i];
    match_score += model.PredictProba(bench_->left.row(l),
                                      bench_->right.row(r));
  }
  Rng rng2(14);
  for (size_t i = 0; i < n; ++i) {
    size_t l = static_cast<size_t>(rng2.UniformInt(
        0, static_cast<int64_t>(bench_->left.num_rows()) - 1));
    size_t r = static_cast<size_t>(rng2.UniformInt(
        0, static_cast<int64_t>(bench_->right.num_rows()) - 1));
    random_score += model.PredictProba(bench_->left.row(l),
                                       bench_->right.row(r));
  }
  EXPECT_GT(match_score, random_score);
}

TEST_F(DeepErPipelineTest, TupleEmbeddingsOfMatchesAreCloser) {
  DeepErConfig cfg;
  DeepEr model(words_, cfg);
  model.FitWeights({&bench_->left, &bench_->right});
  double match_sim = 0.0;
  for (const auto& [l, r] : bench_->matches) {
    match_sim += text::CosineSimilarity(
        model.EmbedTupleVector(bench_->left.row(l)),
        model.EmbedTupleVector(bench_->right.row(r)));
  }
  match_sim /= static_cast<double>(bench_->matches.size());
  Rng rng(15);
  double rand_sim = 0.0;
  size_t trials = 100;
  for (size_t i = 0; i < trials; ++i) {
    size_t l = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(bench_->left.num_rows()) - 1));
    size_t r = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(bench_->right.num_rows()) - 1));
    rand_sim += text::CosineSimilarity(
        model.EmbedTupleVector(bench_->left.row(l)),
        model.EmbedTupleVector(bench_->right.row(r)));
  }
  rand_sim /= static_cast<double>(trials);
  EXPECT_GT(match_sim, rand_sim + 0.1);
}

}  // namespace
}  // namespace autodc::er
