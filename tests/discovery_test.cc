// Tests for data discovery: coherent-group similarity, the semantic vs
// syntactic column matchers on the planted enterprise lake (the Sec. 5.1
// claims), the EKG, and the table search engine.
#include <gtest/gtest.h>

#include "src/datagen/enterprise.h"
#include "src/datagen/er_benchmark.h"
#include "src/discovery/ekg.h"
#include "src/discovery/search.h"
#include "src/discovery/semantic_matcher.h"
#include "src/embedding/word2vec.h"

namespace autodc::discovery {
namespace {

TEST(CoherentGroupTest, AveragePairwiseSimilarity) {
  embedding::EmbeddingStore store;
  ASSERT_TRUE(store.Add("a", {1.0f, 0.0f}).ok());
  ASSERT_TRUE(store.Add("b", {1.0f, 0.0f}).ok());
  ASSERT_TRUE(store.Add("c", {0.0f, 1.0f}).ok());
  EXPECT_DOUBLE_EQ(CoherentGroupSimilarity(store, {"a"}, {"b"}), 1.0);
  EXPECT_DOUBLE_EQ(CoherentGroupSimilarity(store, {"a"}, {"c"}), 0.0);
  // Mixed group averages.
  EXPECT_NEAR(CoherentGroupSimilarity(store, {"a"}, {"b", "c"}), 0.5, 1e-9);
  // OOV tokens are skipped; fully-OOV groups score 0.
  EXPECT_DOUBLE_EQ(CoherentGroupSimilarity(store, {"zzz"}, {"a"}), 0.0);
  EXPECT_DOUBLE_EQ(CoherentGroupSimilarity(store, {"a", "zzz"}, {"b"}), 1.0);
}

TEST(BestMatchGroupTest, RewardsSharedVocabularyWithoutDilution) {
  embedding::EmbeddingStore store;
  ASSERT_TRUE(store.Add("alice", {1.0f, 0.0f, 0.0f}).ok());
  ASSERT_TRUE(store.Add("bob", {0.0f, 1.0f, 0.0f}).ok());
  ASSERT_TRUE(store.Add("carol", {0.0f, 0.0f, 1.0f}).ok());
  // The two groups share the same (internally dissimilar) vocabulary.
  std::vector<std::string> a = {"alice", "bob", "carol"};
  std::vector<std::string> b = {"carol", "alice", "bob"};
  // Pairwise average is diluted by cross-entity pairs; best-match is 1.
  EXPECT_LT(CoherentGroupSimilarity(store, a, b), 0.5);
  EXPECT_DOUBLE_EQ(BestMatchGroupSimilarity(store, a, b), 1.0);
  // Disjoint orthogonal vocabularies score 0 either way.
  ASSERT_TRUE(store.Add("widget", {-1.0f, 0.0f, 0.0f}).ok());
  EXPECT_LE(BestMatchGroupSimilarity(store, {"alice"}, {"widget"}), 0.0);
  // OOV-only groups score 0.
  EXPECT_DOUBLE_EQ(BestMatchGroupSimilarity(store, {"zzz"}, a), 0.0);
}

// Shared fixture: the enterprise lake with embeddings trained on it.
class LakeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lake_ = new datagen::EnterpriseLake(datagen::GenerateEnterpriseLake());
    std::vector<const data::Table*> ptrs;
    for (const data::Table& t : lake_->tables) ptrs.push_back(&t);
    embedding::Word2VecConfig cfg;
    cfg.sgns.dim = 24;
    cfg.sgns.epochs = 10;
    cfg.sgns.seed = 3;
    words_ = new embedding::EmbeddingStore(
        embedding::TrainWordEmbeddingsFromTables(ptrs, cfg));
  }
  static void TearDownTestSuite() {
    delete lake_;
    delete words_;
    lake_ = nullptr;
    words_ = nullptr;
  }
  static std::vector<const data::Table*> TablePtrs() {
    std::vector<const data::Table*> ptrs;
    for (const data::Table& t : lake_->tables) ptrs.push_back(&t);
    return ptrs;
  }
  static double MatchScore(const std::vector<ColumnMatch>& matches,
                           const datagen::ColumnLink& link) {
    for (const ColumnMatch& m : matches) {
      if ((m.table_a == link.table_a && m.column_a == link.column_a &&
           m.table_b == link.table_b && m.column_b == link.column_b) ||
          (m.table_a == link.table_b && m.column_a == link.column_b &&
           m.table_b == link.table_a && m.column_b == link.column_a)) {
        return m.score;
      }
    }
    return -1.0;
  }

  static datagen::EnterpriseLake* lake_;
  static embedding::EmbeddingStore* words_;
};

datagen::EnterpriseLake* LakeTest::lake_ = nullptr;
embedding::EmbeddingStore* LakeTest::words_ = nullptr;

TEST_F(LakeTest, SemanticMatcherSurfacesPlantedLinks) {
  SemanticColumnMatcher matcher(words_);
  auto matches = matcher.MatchLake(TablePtrs());
  ASSERT_FALSE(matches.empty());
  // Every planted semantic link must outrank the spurious syntactic
  // pair (isoform<->protein beats biopsy_site<->site_components).
  double spurious = MatchScore(matches, lake_->spurious_links[0]);
  for (const datagen::ColumnLink& link : lake_->semantic_links) {
    double s = MatchScore(matches, link);
    EXPECT_GT(s, spurious)
        << link.table_a << "." << link.column_a << " <-> " << link.table_b
        << "." << link.column_b << " scored " << s << " vs spurious "
        << spurious;
  }
}

TEST_F(LakeTest, SyntacticMatcherFallsForSpuriousPair) {
  auto matches = SyntacticColumnMatches(TablePtrs());
  double spurious = MatchScore(matches, lake_->spurious_links[0]);
  // The name-overlap pair ranks high syntactically...
  double isoform = MatchScore(
      matches, datagen::ColumnLink{"protein_catalog", "protein",
                                   "lab_results", "isoform"});
  EXPECT_GT(spurious, isoform)
      << "the syntactic matcher should (wrongly) prefer the name-similar "
         "pair — that is exactly the Sec. 5.1 failure mode";
}

TEST_F(LakeTest, EkgLinksAndRelatedTables) {
  SemanticColumnMatcher matcher(words_);
  auto matches = matcher.MatchLake(TablePtrs());
  // Threshold at the weakest planted link so all of them make it in.
  double weakest = 1e9;
  for (const datagen::ColumnLink& link : lake_->semantic_links) {
    weakest = std::min(weakest, MatchScore(matches, link));
  }
  EnterpriseKnowledgeGraph ekg =
      EnterpriseKnowledgeGraph::Build(TablePtrs(), matches, weakest - 1e-9);
  for (const datagen::ColumnLink& link : lake_->semantic_links) {
    EXPECT_TRUE(ekg.AreLinked(link.table_a, link.column_a, link.table_b,
                              link.column_b))
        << link.table_a << "." << link.column_a;
  }
  auto related = ekg.RelatedTables("lab_results");
  ASSERT_FALSE(related.empty());
  // protein_catalog and experiments are both linked to lab_results.
  std::vector<std::string> names;
  for (const auto& [t, w] : related) {
    (void)w;
    names.push_back(t);
  }
  EXPECT_TRUE(std::find(names.begin(), names.end(), "protein_catalog") !=
              names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "experiments") !=
              names.end());
}

TEST_F(LakeTest, EkgNodeLookup) {
  EnterpriseKnowledgeGraph ekg =
      EnterpriseKnowledgeGraph::Build(TablePtrs(), {}, 1.0);
  EXPECT_GE(ekg.FindTable("orders"), 0);
  EXPECT_GE(ekg.FindColumn("orders", "customer"), 0);
  EXPECT_EQ(ekg.FindTable("nope"), -1);
  EXPECT_EQ(ekg.FindColumn("orders", "nope"), -1);
  EXPECT_FALSE(ekg.AreLinked("orders", "customer", "crm_contacts",
                             "client"));  // no matches supplied
}

TEST_F(LakeTest, SearchFindsExpectedTables) {
  TableSearchEngine engine(words_);
  engine.Index(TablePtrs());
  EXPECT_EQ(engine.num_indexed(), lake_->tables.size());
  size_t hits = 0;
  for (const auto& q : lake_->queries) {
    auto results = engine.Search(q.text);
    ASSERT_FALSE(results.empty());
    // Expected table in the top 2.
    for (size_t i = 0; i < std::min<size_t>(2, results.size()); ++i) {
      if (results[i].table == q.expected_table) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, lake_->queries.size() - 1)
      << "search missed too many planted queries";
}

TEST_F(LakeTest, SearchWithRelatedExpandsResults) {
  SemanticColumnMatcher matcher(words_);
  auto matches = matcher.MatchLake(TablePtrs());
  EnterpriseKnowledgeGraph ekg =
      EnterpriseKnowledgeGraph::Build(TablePtrs(), matches, 0.3);
  TableSearchEngine engine(words_);
  engine.Index(TablePtrs());
  auto expanded = engine.SearchWithRelated("protein assay measurements", ekg);
  auto direct = engine.Search("protein assay measurements");
  EXPECT_GE(expanded.size(), direct.size());
}

// A lake where the word store knows only one query token ("price"): its
// lone vector used to carry the full neural weight and outvote the
// catalog's lexical match, selecting the employee directory instead.
TEST(SearchCoverageTest, SparselyKnownQueryKeepsLexicalMatchFirst) {
  const uint64_t seed = 2001;
  datagen::ErBenchmarkConfig pcfg;
  pcfg.domain = datagen::ErDomain::kProducts;
  pcfg.num_entities = 240;
  pcfg.overlap = 0.6;
  pcfg.dirtiness = 0.25;
  pcfg.synonym_rate = 0.0;
  pcfg.null_rate = 0.12;
  pcfg.seed = seed;
  datagen::ErBenchmark products = datagen::GenerateErBenchmark(pcfg);
  data::Table catalog(products.left.schema(), "product_catalog");
  for (size_t r = 0; r < products.left.num_rows(); ++r) {
    ASSERT_TRUE(catalog.AppendRow(products.left.row(r)).ok());
  }
  for (size_t r = 0; r < products.right.num_rows(); ++r) {
    ASSERT_TRUE(catalog.AppendRow(products.right.row(r)).ok());
  }
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
  std::vector<const data::Table*> tables = {&people, &catalog, &papers};

  // The Figure-1 pipeline's representation stage.
  embedding::Word2VecConfig wcfg;
  wcfg.sgns.dim = 32;
  wcfg.sgns.epochs = 6;
  wcfg.sgns.seed = 4;
  embedding::EmbeddingStore words =
      embedding::TrainWordEmbeddingsFromTables(tables, wcfg);
  const std::string query = "product brand model price catalog";
  size_t known = 0;
  for (const char* tok : {"product", "brand", "model", "price", "catalog"}) {
    if (words.Contains(tok)) ++known;
  }
  ASSERT_EQ(known, 1u) << "the lake no longer reproduces the sparse query";
  ASSERT_TRUE(words.Contains("price"));

  TableSearchEngine engine(&words);
  engine.Index(tables);
  auto hits = engine.Search(query);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].table, "product_catalog");
}

}  // namespace
}  // namespace autodc::discovery
