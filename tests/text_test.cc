// Tests for the text substrate: tokenization, similarity measures with
// their metric properties, vocabulary, and tf-idf.
#include <gtest/gtest.h>

#include "src/text/similarity.h"
#include "src/text/tokenizer.h"
#include "src/text/vocabulary.h"

namespace autodc::text {
namespace {

TEST(TokenizerTest, LowercasesAndSplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("J. Smith, Ph.D"),
            (std::vector<std::string>{"j", "smith", "ph", "d"}));
  EXPECT_EQ(Tokenize("iPhone 13 Pro"),
            (std::vector<std::string>{"iphone", "13", "pro"}));
  EXPECT_TRUE(Tokenize("...").empty());
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, CharNgramsPadded) {
  auto grams = CharNgrams("abc", 3);
  EXPECT_EQ(grams.size(), 5u);
  EXPECT_EQ(grams.front(), "##a");
  EXPECT_EQ(grams.back(), "c##");
}

TEST(TokenizerTest, WordNgrams) {
  EXPECT_EQ(WordNgrams("new york city", 2),
            (std::vector<std::string>{"new_york", "york_city"}));
  EXPECT_TRUE(WordNgrams("one", 2).empty());
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
}

TEST(LevenshteinTest, SimilarityBounds) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944, 1e-3);
  EXPECT_NEAR(JaroSimilarity("DWAYNE", "DUANE"), 0.822, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("prefixes", "prefixed");
  double jw = JaroWinklerSimilarity("prefixes", "prefixed");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961, 1e-3);
}

TEST(JaccardTest, TokenAndTrigram) {
  EXPECT_DOUBLE_EQ(TokenJaccard("red apple", "apple red"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "c d"), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_GT(TrigramJaccard("apple", "aple"), 0.3);
  EXPECT_LT(TrigramJaccard("apple", "zebra"), 0.2);
}

TEST(JaccardTest, TokenSetsCountEachTokenOnce) {
  TokenSet a = MakeTokenSet({"red", "apple", "red", "pie"});
  TokenSet b = MakeTokenSet({"pie", "apple", "apple"});
  EXPECT_EQ(a, (TokenSet{"apple", "pie", "red"}));
  EXPECT_EQ(b, (TokenSet{"apple", "pie"}));
  EXPECT_DOUBLE_EQ(SetJaccard(a, b), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(SetJaccard(a, b),
                   TokenJaccard("red apple red pie", "pie apple apple"));
  EXPECT_DOUBLE_EQ(SetJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(SetJaccard(a, {}), 0.0);
}

TEST(MongeElkanTest, HandlesWordReorderAndTypos) {
  // Reordered multiword names should stay highly similar.
  EXPECT_GT(MongeElkan("john smith", "smith john"), 0.9);
  EXPECT_GT(MongeElkan("jon smith", "john smith"), 0.85);
  EXPECT_LT(MongeElkan("alice wonder", "bob builder"), 0.7);
}

// Property sweep: every string similarity must be symmetric-ish (Monge-
// Elkan excluded), bounded in [0,1], and 1 on identical inputs.
class SimilarityPropertyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SimilarityPropertyTest, BoundedSymmetricReflexive) {
  const std::string s = GetParam();
  const std::vector<std::string> others = {"", "a", "apple pie",
                                           "Jane Doe", s};
  auto check = [&](double (*sim)(std::string_view, std::string_view)) {
    for (const std::string& o : others) {
      double ab = sim(s, o);
      double ba = sim(o, s);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
      EXPECT_NEAR(ab, ba, 1e-12);
    }
    EXPECT_DOUBLE_EQ(sim(s, s), 1.0);
  };
  check(&LevenshteinSimilarity);
  check(&JaroSimilarity);
  check(&JaroWinklerSimilarity);
  check(&TokenJaccard);
  check(&TrigramJaccard);
}

INSTANTIATE_TEST_SUITE_P(Strings, SimilarityPropertyTest,
                         ::testing::Values("", "x", "John Smith",
                                           "3.5 GHz CPU", "aaaa",
                                           "The Quick Brown Fox"));

TEST(CosineTest, BasicProperties) {
  std::vector<double> a = {1, 0, 0};
  std::vector<double> b = {0, 1, 0};
  std::vector<double> c = {2, 0, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, c), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, std::vector<double>{0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, std::vector<double>{1, 1}), 0.0);
}

TEST(EuclideanTest, Distance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1, 1}, {1, 1}), 0.0);
}

TEST(VocabularyTest, IdsStableAndCountsAccumulate) {
  Vocabulary v;
  size_t a = v.Add("apple");
  size_t b = v.Add("banana");
  EXPECT_EQ(v.Add("apple"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(v.CountOf(a), 2u);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.total_count(), 3u);
  EXPECT_EQ(v.IdOf("apple"), static_cast<int64_t>(a));
  EXPECT_EQ(v.IdOf("zzz"), -1);
  EXPECT_EQ(v.TokenOf(b), "banana");
}

TEST(VocabularyTest, UnigramWeightsPower) {
  Vocabulary v;
  v.Add("x");
  v.Add("y");
  v.Add("y");
  v.Add("y");
  v.Add("y");  // y count 4
  auto w = v.UnigramWeights(0.5);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 2.0);
}

TEST(VocabularyTest, PruneRareRemapsIds) {
  Vocabulary v;
  v.Add("rare");
  v.Add("common");
  v.Add("common");
  auto remap = v.PruneRare(2);
  EXPECT_EQ(remap[0], -1);
  EXPECT_EQ(remap[1], 0);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.IdOf("rare"), -1);
  EXPECT_EQ(v.IdOf("common"), 0);
  EXPECT_EQ(v.total_count(), 2u);
}

TEST(TfIdfTest, RareTermsWeighHigher) {
  TfIdf tfidf;
  tfidf.Fit({{"the", "cat"}, {"the", "dog"}, {"the", "fish"}});
  auto v = tfidf.Transform({"the", "cat"});
  int64_t the_id = tfidf.vocabulary().IdOf("the");
  int64_t cat_id = tfidf.vocabulary().IdOf("cat");
  ASSERT_GE(the_id, 0);
  ASSERT_GE(cat_id, 0);
  EXPECT_GT(v[static_cast<size_t>(cat_id)], v[static_cast<size_t>(the_id)]);
}

TEST(TfIdfTest, OovTokensDropped) {
  TfIdf tfidf;
  tfidf.Fit({{"a"}});
  auto v = tfidf.Transform({"unknown"});
  EXPECT_TRUE(v.empty());
}

TEST(TfIdfTest, SparseCosine) {
  std::unordered_map<size_t, double> a = {{0, 1.0}, {1, 2.0}};
  std::unordered_map<size_t, double> b = {{1, 2.0}, {2, 5.0}};
  double sim = TfIdf::SparseCosine(a, b);
  EXPECT_GT(sim, 0.0);
  EXPECT_LT(sim, 1.0);
  EXPECT_DOUBLE_EQ(TfIdf::SparseCosine(a, a), 1.0);
  EXPECT_DOUBLE_EQ(TfIdf::SparseCosine(a, {}), 0.0);
}

}  // namespace
}  // namespace autodc::text
