// Self-tests of the benchmark's own machinery: order statistics, the
// name rules BENCHMARK.json must follow, seed determinism of the
// generated inputs, and the serve output oracle.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "perfbench/src/util.h"
#include "perfbench/src/workloads.h"
#include "src/common/json_parse.h"
#include "src/common/rng.h"
#include "src/serve/fingerprint.h"

namespace perfbench {
namespace {

using autodc::serve::RequestKind;
using autodc::serve::ServeRequest;
using autodc::serve::ServeResponse;

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 4, 2, 3}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 1.0), 5.0);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_NEAR(Percentile(v, 0.99), 990.01, 1e-9);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(99, 0.9));
  EXPECT_TRUE(TailSupported(100, 0.9));
  EXPECT_TRUE(TailSupported(20, 0.5));
}

TEST(Names, Charset) {
  EXPECT_TRUE(ValidName("serve.server.latency_p99_us"));
  EXPECT_TRUE(ValidName("9lives-x"));
  EXPECT_FALSE(ValidName(""));
  EXPECT_FALSE(ValidName(".hidden"));
  EXPECT_FALSE(ValidName("_x"));
  EXPECT_FALSE(ValidName("a b"));
  EXPECT_FALSE(ValidName("p99/us"));
  EXPECT_FALSE(ValidName(std::string(65, 'a')));
  EXPECT_TRUE(ValidName(std::string(64, 'a')));
}

TEST(Names, BenchmarkJsonNamesAreValidAndUnique) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = autodc::ParseJson(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const autodc::JsonValue& root = parsed.ValueOrDie();
  std::set<std::string> seen;
  size_t count = 0;
  for (const char* list : {"workloads", "end_to_end", "per_layer"}) {
    const autodc::JsonValue* arr = root.Find(list);
    ASSERT_NE(arr, nullptr) << list;
    for (const autodc::JsonValue& item : arr->array) {
      std::string name = item.Find("name")->StringOr("");
      EXPECT_TRUE(ValidName(name)) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
      ++count;
    }
  }
  EXPECT_GT(count, 0u);
  EXPECT_TRUE(seen.count("pipeline_fig1") && seen.count("serve_score") &&
              seen.count("serve_mixed_rw"));
}

TEST(Inputs, SameSeedSameLake) {
  Lake a = MakeLake(7);
  Lake b = MakeLake(7);
  Lake c = MakeLake(8);
  ASSERT_EQ(a.tables.size(), 3u);
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(autodc::serve::FingerprintTable(a.tables[i]),
              autodc::serve::FingerprintTable(b.tables[i]));
  }
  EXPECT_EQ(a.true_entities, b.true_entities);
  EXPECT_EQ(a.true_entities, 240u);
  EXPECT_NE(autodc::serve::FingerprintTable(a.tables[1]),
            autodc::serve::FingerprintTable(c.tables[1]));
}

TEST(Inputs, SameSeedSameWindows) {
  WindowSpec spec;
  spec.rows = 100;
  spec.cols = 5;
  spec.numeric_col = 3;
  spec.mixed = true;
  autodc::Rng r1(11), r2(11);
  for (int w = 0; w < 5; ++w) {
    std::vector<ServeRequest> a = MakeWindow(spec, &r1);
    std::vector<ServeRequest> b = MakeWindow(spec, &r2);
    ASSERT_EQ(a.size(), 64u);
    size_t per_kind[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].row_a, b[i].row_a);
      EXPECT_EQ(a[i].row_b, b[i].row_b);
      EXPECT_EQ(a[i].col, b[i].col);
      EXPECT_LT(a[i].row_a, spec.rows);
      EXPECT_LT(a[i].row_b, spec.rows);
      if (a[i].kind == RequestKind::kOutlierCheck) {
        EXPECT_EQ(a[i].col, spec.numeric_col);
      }
      ++per_kind[static_cast<int>(a[i].kind)];
    }
    for (size_t k : per_kind) EXPECT_EQ(k, 16u);
  }
}

TEST(Oracle, FlagsACorruptedResponse) {
  autodc::serve::ServeConfig cfg;
  autodc::serve::CurationServer server(cfg);
  autodc::data::Table catalog = MakeCatalog(30, 3);
  auto fp = server.OpenSessionFromTable(catalog);
  ASSERT_TRUE(fp.ok());
  WindowSpec spec;
  spec.session = fp.ValueOrDie();
  spec.rows = catalog.num_rows();
  spec.cols = catalog.num_columns();
  spec.numeric_col = 3;
  spec.mixed = true;
  autodc::Rng rng(5);
  std::vector<ServeRequest> reqs = MakeWindow(spec, &rng);
  std::shared_ptr<autodc::serve::PendingBatch> pending =
      server.SubmitMany(reqs);
  const std::vector<ServeResponse>& resps = pending->Wait();
  std::vector<std::pair<ServeRequest, ServeResponse>> sample;
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(resps[i].status, autodc::serve::ServeStatus::kOk)
        << resps[i].message;
    sample.emplace_back(reqs[i], resps[i]);
  }
  EXPECT_EQ(CountOracleMismatches(&server, sample), 0u);

  size_t pair = 0;
  while (reqs[pair].kind != RequestKind::kScorePair) ++pair;
  sample[pair].second.score = std::nextafter(sample[pair].second.score, 2.0);
  EXPECT_EQ(CountOracleMismatches(&server, sample), 1u);
}

}  // namespace
}  // namespace perfbench
