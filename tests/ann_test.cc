// Tests for src/ann (HNSW index over RowStore rows) and its
// EmbeddingStore integration: recall against the exact scan,
// bulk/incremental equivalence, seeded determinism, degenerate inputs,
// borrowed-row lifetime across store moves, bit-exact goldens, and the
// parallel build + concurrent search paths the TSan leg exercises
// (`ctest -L ann`).
#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/ann/hnsw.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/embedding/embedding_store.h"
#include "src/nn/kernels.h"

namespace autodc::ann {
namespace {

/// Clustered vectors — the geometry embeddings actually have. Pure
/// uniform noise has no neighbourhood structure and makes recall
/// meaningless as a regression signal.
std::vector<std::vector<float>> ClusteredVectors(size_t n, size_t dim,
                                                 size_t clusters,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(clusters);
  for (auto& c : centers) {
    c.resize(dim);
    for (float& x : c) x = static_cast<float>(rng.Normal());
  }
  std::vector<std::vector<float>> out(n);
  for (auto& v : out) {
    const std::vector<float>& c =
        centers[static_cast<size_t>(rng.UniformInt(0, clusters - 1))];
    v.resize(dim);
    for (size_t d = 0; d < dim; ++d) {
      v[d] = c[d] + static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }
  return out;
}

/// fp32 row storage holding `v`, ready for an index to borrow.
RowStore Rows(const std::vector<std::vector<float>>& v, size_t dim) {
  RowStore rows(dim, nn::kernels::Quant::kFp32);
  for (const auto& x : v) rows.Append(x);
  return rows;
}

/// Exact top-k ids by cosine, (sim desc, id asc) — the recall reference.
std::vector<size_t> ExactTopK(const float* q,
                              const std::vector<std::vector<float>>& data,
                              size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  for (size_t i = 0; i < data.size(); ++i) {
    scored.emplace_back(
        nn::kernels::CosineF32(q, data[i].data(), data[i].size()), i);
  }
  size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  std::vector<size_t> out;
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

TEST(HnswIndexTest, RecallAtTenIsAtLeast95OnClusteredData) {
  const size_t n = 2000, dim = 32, k = 10;
  auto data = ClusteredVectors(n, dim, 40, 123);
  RowStore rows = Rows(data, dim);
  HnswIndex index(&rows);
  index.Build();
  ASSERT_EQ(index.size(), n);

  auto queries = ClusteredVectors(60, dim, 40, 999);
  double recall_sum = 0.0;
  for (const auto& q : queries) {
    std::vector<size_t> truth = ExactTopK(q.data(), data, k);
    std::vector<ScoredId> hits = index.Search(q.data(), k);
    size_t overlap = 0;
    for (const ScoredId& h : hits) {
      if (std::find(truth.begin(), truth.end(), h.id) != truth.end()) {
        ++overlap;
      }
    }
    recall_sum += static_cast<double>(overlap) / static_cast<double>(k);
  }
  EXPECT_GE(recall_sum / queries.size(), 0.95);
}

TEST(HnswIndexTest, IncrementalAddEqualsBulkBuildWithinSequentialPrefix) {
  // Build() inserts one-by-one while the graph is inside
  // sequential_prefix, so the two construction paths must agree
  // exactly there.
  const size_t n = 600, dim = 16;
  auto data = ClusteredVectors(n, dim, 12, 7);
  RowStore bulk_rows = Rows(data, dim);
  HnswIndex bulk(&bulk_rows);
  bulk.Build();
  RowStore incremental_rows(dim, nn::kernels::Quant::kFp32);
  HnswIndex incremental(&incremental_rows);
  for (const auto& v : data) {
    incremental_rows.Append(v);
    incremental.Add();
  }
  ASSERT_EQ(bulk.size(), incremental.size());
  EXPECT_EQ(bulk.num_edges(), incremental.num_edges());
  EXPECT_EQ(bulk.max_level(), incremental.max_level());

  auto queries = ClusteredVectors(20, dim, 12, 77);
  for (const auto& q : queries) {
    std::vector<ScoredId> a = bulk.Search(q.data(), 5);
    std::vector<ScoredId> b = incremental.Search(q.data(), 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_DOUBLE_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST(HnswIndexTest, SameSeedSameDataGivesIdenticalIndexAndResults) {
  const size_t n = 1500, dim = 24;  // past sequential_prefix: batched path
  auto data = ClusteredVectors(n, dim, 25, 42);
  RowStore rows_a = Rows(data, dim), rows_b = Rows(data, dim);
  HnswIndex a(&rows_a), b(&rows_b);
  a.Build();
  b.Build();
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.max_level(), b.max_level());
  auto queries = ClusteredVectors(15, dim, 25, 4242);
  for (const auto& q : queries) {
    std::vector<ScoredId> ra = a.Search(q.data(), 8);
    std::vector<ScoredId> rb = b.Search(q.data(), 8);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_DOUBLE_EQ(ra[i].similarity, rb[i].similarity);
    }
  }
}

TEST(HnswIndexTest, EmptyIndexReturnsNothing) {
  RowStore rows(8, nn::kernels::Quant::kFp32);
  HnswIndex index(&rows);
  std::vector<float> q(8, 1.0f);
  EXPECT_TRUE(index.Search(q.data(), 5).empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.max_level(), -1);
}

TEST(HnswIndexTest, SingleElementAndKLargerThanN) {
  RowStore rows = Rows({{1.0f, 0.0f, 0.0f, 0.0f}}, 4);
  HnswIndex index(&rows);
  index.Add();
  std::vector<float> q = {0.5f, 0.5f, 0.0f, 0.0f};
  std::vector<ScoredId> hits = index.Search(q.data(), 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_NEAR(hits[0].similarity, 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(HnswIndexTest, DuplicateVectorsTieBreakByLowerId) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f};
  std::vector<float> other = {-1.0f, 0.0f, 1.0f};
  RowStore rows = Rows({v, other, v}, 3);  // id 2 duplicates id 0
  HnswIndex index(&rows);
  for (int i = 0; i < 3; ++i) index.Add();
  std::vector<ScoredId> hits = index.Search(v.data(), 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 0u);  // ties: lower id first
  EXPECT_EQ(hits[1].id, 2u);
  EXPECT_DOUBLE_EQ(hits[0].similarity, hits[1].similarity);
  EXPECT_EQ(hits[2].id, 1u);
}

TEST(HnswIndexTest, ZeroNormRowsAndQueriesScoreZero) {
  std::vector<float> zero(4, 0.0f);
  std::vector<float> unit = {1.0f, 0.0f, 0.0f, 0.0f};
  RowStore rows = Rows({zero, unit}, 4);
  HnswIndex index(&rows);
  index.Add();
  index.Add();
  std::vector<ScoredId> hits = index.Search(unit.data(), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_DOUBLE_EQ(hits[1].similarity, 0.0);
  // A zero query matches nothing meaningfully but must not crash.
  std::vector<ScoredId> zhits = index.Search(zero.data(), 2);
  EXPECT_EQ(zhits.size(), 2u);
}

TEST(HnswIndexTest, ParallelBuildThenConcurrentSearches) {
  // Past sequential_prefix so batched (parallel) construction runs,
  // then hammer Search from the pool — the TSan leg's target.
  const size_t n = 2000, dim = 16;
  auto data = ClusteredVectors(n, dim, 30, 11);
  RowStore rows = Rows(data, dim);
  HnswIndex index(&rows);
  index.Build();
  auto queries = ClusteredVectors(64, dim, 30, 1111);
  std::vector<size_t> top_ids(queries.size());
  ParallelFor(0, queries.size(), 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      std::vector<ScoredId> hits = index.Search(queries[i].data(), 5);
      top_ids[i] = hits.empty() ? n : hits[0].id;
    }
  });
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<ScoredId> hits = index.Search(queries[i].data(), 5);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(top_ids[i], hits[0].id);
  }
}

TEST(EmbeddingStoreAnnTest, EnableAnnMatchesExactOnTopNeighbours) {
  const size_t n = 1200, dim = 16;
  auto data = ClusteredVectors(n, dim, 20, 5);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  auto queries = ClusteredVectors(25, dim, 20, 55);
  std::vector<std::vector<embedding::Neighbor>> exact;
  for (const auto& q : queries) exact.push_back(store.NearestToVector(q, 10));

  ASSERT_TRUE(store.EnableAnn().ok());
  ASSERT_TRUE(store.AnnActive());
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<embedding::Neighbor> approx =
        store.NearestToVector(queries[i], 10);
    ASSERT_EQ(approx.size(), exact[i].size());
    size_t overlap = 0;
    for (const auto& a : approx) {
      for (const auto& e : exact[i]) {
        if (a.key == e.key) {
          // Shared hits carry the exact path's similarity bit-for-bit.
          EXPECT_DOUBLE_EQ(a.similarity, e.similarity);
          ++overlap;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(overlap) / exact[i].size();
  }
  EXPECT_GE(recall_sum / queries.size(), 0.95);
}

TEST(EmbeddingStoreAnnTest, ExclusionsNeverSurfaceOnTheAnnPath) {
  const size_t n = 1200, dim = 12;
  auto data = ClusteredVectors(n, dim, 15, 9);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  ASSERT_TRUE(store.EnableAnn().ok());
  // Nearest(key) excludes the key itself even though its own vector is
  // the best match in the index.
  auto result = store.Nearest("k7", 5);
  ASSERT_TRUE(result.ok());
  for (const auto& nb : result.ValueOrDie()) EXPECT_NE(nb.key, "k7");
}

TEST(EmbeddingStoreAnnTest, OverwriteInvalidatesIndexAndAppendKeepsItLive) {
  const size_t n = 1100, dim = 8;
  auto data = ClusteredVectors(n, dim, 10, 3);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  ASSERT_TRUE(store.EnableAnn().ok());
  ASSERT_TRUE(store.AnnActive());

  // Appending a NEW key inserts incrementally; the index stays live and
  // can return the new key.
  std::vector<float> fresh = data[0];
  fresh[0] += 0.01f;
  ASSERT_TRUE(store.Add("brand_new", fresh).ok());
  EXPECT_TRUE(store.AnnActive());
  std::vector<embedding::Neighbor> hits = store.NearestToVector(fresh, 3);
  bool found = false;
  for (const auto& h : hits) found = found || h.key == "brand_new";
  EXPECT_TRUE(found);

  // Overwriting an EXISTING key goes stale: queries fall back to the
  // exact scan (correct results for the new value), until re-enabled.
  std::vector<float> replacement(dim, 0.0f);
  replacement[1] = 1.0f;
  ASSERT_TRUE(store.Add("k0", replacement).ok());
  EXPECT_FALSE(store.AnnActive());
  hits = store.NearestToVector(replacement, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].key, "k0");
  EXPECT_NEAR(hits[0].similarity, 1.0, 1e-9);

  ASSERT_TRUE(store.EnableAnn().ok());
  EXPECT_TRUE(store.AnnActive());
  hits = store.NearestToVector(replacement, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].key, "k0");

  store.DisableAnn();
  EXPECT_FALSE(store.AnnActive());
}

/// Nearest answers of `store` for each probe key.
std::vector<std::vector<embedding::Neighbor>> NearestAnswers(
    const embedding::EmbeddingStore& store,
    const std::vector<std::string>& probes) {
  std::vector<std::vector<embedding::Neighbor>> out;
  for (const std::string& key : probes) {
    auto result = store.Nearest(key, 5);
    EXPECT_TRUE(result.ok());
    out.push_back(result.ok() ? result.ValueOrDie()
                              : std::vector<embedding::Neighbor>{});
  }
  return out;
}

void ExpectSameAnswers(const std::vector<std::vector<embedding::Neighbor>>& a,
                       const std::vector<std::vector<embedding::Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].key, b[i][j].key);
      EXPECT_EQ(a[i][j].similarity, b[i][j].similarity);
    }
  }
}

TEST(EmbeddingStoreAnnTest, CopyDropsIndexMoveCarriesIt) {
  const size_t n = 1100, dim = 8;
  auto data = ClusteredVectors(n, dim, 10, 21);
  embedding::EmbeddingStore store(dim);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  ASSERT_TRUE(store.EnableAnn().ok());
  const std::vector<std::string> probes = {"k3", "k500", "k1099"};
  auto before = NearestAnswers(store, probes);
  embedding::EmbeddingStore copy(store);
  EXPECT_FALSE(copy.AnnActive());
  EXPECT_EQ(copy.size(), store.size());

  // The index borrows the store's rows, so after a move it must read
  // the rows at their new home (a stale pointer is a use-after-move the
  // ASan leg reports).
  embedding::EmbeddingStore moved(std::move(store));
  EXPECT_TRUE(moved.AnnActive());
  ExpectSameAnswers(NearestAnswers(moved, probes), before);

  embedding::EmbeddingStore assigned(dim);
  ASSERT_TRUE(assigned.Add("replaced", data[1]).ok());
  ASSERT_TRUE(assigned.EnableAnn().ok());
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.AnnActive());
  ExpectSameAnswers(NearestAnswers(assigned, probes), before);

  // A streaming insert after the move is linked from the moved rows.
  std::vector<float> fresh = data[5];
  fresh[0] += 0.01f;
  ASSERT_TRUE(assigned.Add("after_move", fresh).ok());
  EXPECT_TRUE(assigned.AnnActive());
  std::vector<embedding::Neighbor> hits = assigned.NearestToVector(fresh, 3);
  bool found = false;
  for (const auto& h : hits) found = found || h.key == "after_move";
  EXPECT_TRUE(found);
}

// Goldens recorded from the index that kept its own copy of the rows,
// before it indexed the store's rows in place: the store shape of a
// serve session (1,909 rows x 85 dims, fp32, EnableAnn) and a standalone
// int8 index. Similarities are hex floats compared with ==, one set per
// kernel dispatch path (the SIMD and scalar float sums differ in the
// last bits; ids and keys do not).
struct GoldenStoreQuery {
  const char* key;
  std::vector<std::string> keys;
  std::vector<double> sims_simd;
  std::vector<double> sims_scalar;
};
struct GoldenIndexQuery {
  std::vector<size_t> ids;
  std::vector<double> sims_simd;
  std::vector<double> sims_scalar;
};

const GoldenStoreQuery kStoreGolden[] = {
    {"k0",
     {"k1860", "k1608", "k11", "k97", "k665"},
     {0x1.dd8b19d1c3a2cp-1, 0x1.dc47ce05aec19p-1, 0x1.dbe3bca8021c3p-1,
      0x1.d96104e7a5deap-1, 0x1.d8b8fc74a0f24p-1},
     {0x1.dd8b19d1c3a2ep-1, 0x1.dc47ce05aec1cp-1, 0x1.dbe3bca8021c9p-1,
      0x1.d96104e7a5dedp-1, 0x1.d8b8fc74a0f29p-1}},
    {"k7",
     {"k942", "k138", "k1861", "k1592", "k1129"},
     {0x1.e458c88df3b42p-1, 0x1.e21ceb2755625p-1, 0x1.e17dc8f453c3ap-1,
      0x1.e01425ee60886p-1, 0x1.dfa5fc7333a55p-1},
     {0x1.e458c88df3b44p-1, 0x1.e21ceb2755625p-1, 0x1.e17dc8f453c3dp-1,
      0x1.e01425ee60889p-1, 0x1.dfa5fc7333a52p-1}},
    {"k311",
     {"k632", "k334", "k441", "k1601", "k553"},
     {0x1.e6f1ca966ce97p-1, 0x1.e5cb3abc3f4a5p-1, 0x1.e5a73d07b4e6ep-1,
      0x1.e57fa0b04ed8bp-1, 0x1.e4f514891593dp-1},
     {0x1.e6f1ca966ce9ap-1, 0x1.e5cb3abc3f4a7p-1, 0x1.e5a73d07b4e6dp-1,
      0x1.e57fa0b04ed8dp-1, 0x1.e4f514891594p-1}},
    {"k1000",
     {"k1176", "k1415", "k1251", "k1412", "k243"},
     {0x1.df0cc9842814ep-1, 0x1.db9a0e66dbdf9p-1, 0x1.db703d3c41642p-1,
      0x1.db68013251ff8p-1, 0x1.db60434113329p-1},
     {0x1.df0cc98428156p-1, 0x1.db9a0e66dbdfcp-1, 0x1.db703d3c41647p-1,
      0x1.db68013251ffbp-1, 0x1.db6043411332fp-1}},
    {"k1908",
     {"k1265", "k813", "k1847", "k1752", "k1633"},
     {0x1.e120ce8121cdap-1, 0x1.e082a9dc3c109p-1, 0x1.df506c324b704p-1,
      0x1.ddd876d825e43p-1, 0x1.dcc4ba2c83b3ep-1},
     {0x1.e120ce8121cdep-1, 0x1.e082a9dc3c10ap-1, 0x1.df506c324b708p-1,
      0x1.ddd876d825e47p-1, 0x1.dcc4ba2c83b4p-1}},
};
const GoldenIndexQuery kInt8IndexGolden[] = {
    {{181, 187, 346, 465, 98},
     {0x1.d2edd06136437p-2, 0x1.c34a9e8579de3p-2, 0x1.bde6017781eb2p-2,
      0x1.b7a45da873471p-2, 0x1.b4ce078cb6b18p-2},
     {0x1.d2edd06136437p-2, 0x1.c34a9e8579de3p-2, 0x1.bde6017781eb2p-2,
      0x1.b7a45da873471p-2, 0x1.b4ce078cb6b18p-2}},
    {{510, 20, 274, 576, 255},
     {0x1.cb9f8531861bbp-2, 0x1.bd678e9c5defap-2, 0x1.ba52115a1b4aep-2,
      0x1.b1b8e66bcbc6ap-2, 0x1.ae02340ca9b56p-2},
     {0x1.cb9f8531861bbp-2, 0x1.bd678e9c5defbp-2, 0x1.ba52115a1b4adp-2,
      0x1.b1b8e66bcbc6ap-2, 0x1.ae02340ca9b56p-2}},
    {{7, 353, 490, 459, 549},
     {0x1.87843ac7cac84p-2, 0x1.7a0c8cc9022c6p-2, 0x1.7735026554d8ap-2,
      0x1.5ea4f6b8fc7bfp-2, 0x1.3e81e2aad11c9p-2},
     {0x1.87843ac7cac86p-2, 0x1.7a0c8cc9022c6p-2, 0x1.7735026554d8bp-2,
      0x1.5ea4f6b8fc7bfp-2, 0x1.3e81e2aad11c8p-2}},
    {{59, 539, 151, 133, 9},
     {0x1.3d2c5c9e82824p-2, 0x1.2786f11efa647p-2, 0x1.205e48aaa14b6p-2,
      0x1.17e4b9c760641p-2, 0x1.1624e148ba33cp-2},
     {0x1.3d2c5c9e82824p-2, 0x1.2786f11efa647p-2, 0x1.205e48aaa14b6p-2,
      0x1.17e4b9c760641p-2, 0x1.1624e148ba33cp-2}},
};

TEST(AnnGoldenTest, Fp32StoreNearestIsBitIdenticalToRecordedAnswers) {
  const size_t n = 1909, dim = 85;
  auto data = ClusteredVectors(n, dim, 40, 1909);
  embedding::EmbeddingStore store(dim, nn::kernels::Quant::kFp32);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add("k" + std::to_string(i), data[i]).ok());
  }
  ASSERT_TRUE(store.EnableAnn().ok());
  const bool simd = nn::kernels::SimdActive();
  for (const GoldenStoreQuery& g : kStoreGolden) {
    auto result = store.Nearest(g.key, 5);
    ASSERT_TRUE(result.ok());
    const std::vector<embedding::Neighbor>& got = result.ValueOrDie();
    const std::vector<double>& sims = simd ? g.sims_simd : g.sims_scalar;
    ASSERT_EQ(got.size(), g.keys.size()) << g.key;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, g.keys[i]) << g.key << " rank " << i;
      EXPECT_EQ(got[i].similarity, sims[i]) << g.key << " rank " << i;
    }
  }
}

TEST(AnnGoldenTest, StandaloneInt8IndexIsBitIdenticalToRecordedAnswers) {
  const size_t n = 600, dim = 32;
  auto data = ClusteredVectors(n, dim, 12, 600);
  RowStore rows(dim, nn::kernels::Quant::kInt8);
  for (const auto& v : data) rows.Append(v);
  HnswIndex index(&rows);
  index.Build();
  auto queries = ClusteredVectors(4, dim, 12, 601);
  const bool simd = nn::kernels::SimdActive();
  ASSERT_EQ(queries.size(), std::size(kInt8IndexGolden));
  for (size_t q = 0; q < queries.size(); ++q) {
    const GoldenIndexQuery& g = kInt8IndexGolden[q];
    const std::vector<double>& sims = simd ? g.sims_simd : g.sims_scalar;
    std::vector<ScoredId> hits = index.Search(queries[q].data(), 5);
    ASSERT_EQ(hits.size(), g.ids.size());
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].id, g.ids[i]) << "query " << q << " rank " << i;
      EXPECT_EQ(hits[i].similarity, sims[i]) << "query " << q << " rank " << i;
    }
  }
}

TEST(HnswConfigTest, EnvOverridesEfSearch) {
  HnswConfig defaults;
  HnswConfig cfg = ConfigFromEnv();
  EXPECT_EQ(cfg.M, defaults.M);  // knobs unset -> defaults stand
  // AnnEnvEnabled is just the flag probe — must not throw either way.
  (void)AnnEnvEnabled();
}

}  // namespace
}  // namespace autodc::ann
