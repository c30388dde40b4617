// Tests for the orchestration layer: the generic pipeline machinery and
// the end-to-end AutoCurator on a small dirty lake (the Figure 1 flow).
#include <gtest/gtest.h>

#include "src/core/autocurator.h"
#include "src/core/pipeline.h"
#include "src/datagen/er_benchmark.h"
#include "src/datagen/error_injector.h"
#include "src/serve/fingerprint.h"

namespace autodc::core {
namespace {

TEST(PipelineTest, RunsStagesInOrder) {
  Pipeline p;
  std::vector<std::string> order;
  p.Add("first", [&order](PipelineContext*) {
    order.push_back("first");
    return Status::OK();
  });
  p.Add("second", [&order](PipelineContext*) {
    order.push_back("second");
    return Status::OK();
  });
  PipelineContext ctx;
  ASSERT_TRUE(p.Run(&ctx).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(ctx.report.size(), 2u);  // one [stage done] line each
  EXPECT_EQ(p.StageNames(),
            (std::vector<std::string>{"first", "second"}));
}

TEST(PipelineTest, StopsAtFirstFailureAndNamesStage) {
  Pipeline p;
  bool third_ran = false;
  p.Add("ok", [](PipelineContext*) { return Status::OK(); });
  p.Add("boom", [](PipelineContext*) {
    return Status::Internal("exploded");
  });
  p.Add("after", [&third_ran](PipelineContext*) {
    third_ran = true;
    return Status::OK();
  });
  PipelineContext ctx;
  Status s = p.Run(&ctx);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  EXPECT_FALSE(third_ran);
}

TEST(PipelineTest, ContextMetricsAccumulate) {
  Pipeline p;
  p.Add("m", [](PipelineContext* c) {
    c->Metric("m.value", 42.0);
    c->Log("noted");
    return Status::OK();
  });
  PipelineContext ctx;
  ASSERT_TRUE(p.Run(&ctx).ok());
  EXPECT_DOUBLE_EQ(ctx.metrics.at("m.value"), 42.0);
}

// Build a small lake: a dirty products table with planted duplicates, an
// unrelated persons table, plus nulls to impute. The curator must pick
// the right table, dedup it, and clean it.
class AutoCuratorTest : public ::testing::Test {
 protected:
  static std::vector<data::Table> MakeLake(size_t* expected_entities) {
    datagen::ErBenchmarkConfig cfg;
    cfg.domain = datagen::ErDomain::kProducts;
    cfg.num_entities = 60;
    cfg.overlap = 0.6;
    cfg.dirtiness = 0.25;
    cfg.synonym_rate = 0.0;
    cfg.null_rate = 0.0;
    cfg.seed = 9;
    datagen::ErBenchmark bench = datagen::GenerateErBenchmark(cfg);
    // One table holding both copies = a catalog with duplicates.
    data::Table catalog(bench.left.schema(), "product_catalog");
    for (size_t r = 0; r < bench.left.num_rows(); ++r) {
      EXPECT_TRUE(catalog.AppendRow(bench.left.row(r)).ok());
    }
    for (size_t r = 0; r < bench.right.num_rows(); ++r) {
      EXPECT_TRUE(catalog.AppendRow(bench.right.row(r)).ok());
    }
    *expected_entities =
        catalog.num_rows() - bench.matches.size();  // perfect-dedup size
    // A few nulls to impute.
    catalog.Set(0, 2, data::Value::Null());
    catalog.Set(1, 2, data::Value::Null());

    datagen::ErBenchmarkConfig pcfg;
    pcfg.domain = datagen::ErDomain::kPersons;
    pcfg.num_entities = 40;
    pcfg.seed = 10;
    data::Table people = datagen::GenerateErBenchmark(pcfg).left;
    people.set_name("employee_directory");
    return {people, catalog};
  }
};

TEST_F(AutoCuratorTest, EndToEndCuratesTheRightTable) {
  size_t expected_entities = 0;
  std::vector<data::Table> lake = MakeLake(&expected_entities);
  size_t catalog_rows = lake[1].num_rows();

  AutoCuratorConfig cfg;
  cfg.task_query = "product brand model price catalog";
  cfg.max_tables = 1;
  cfg.seed = 4;
  AutoCurator curator(cfg);
  auto result = curator.Curate(lake);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CurationResult& r = result.ValueOrDie();

  // Discovery picked the catalog (metrics prove the path taken).
  bool picked_catalog = false;
  for (const std::string& line : r.context.report) {
    if (line.find("product_catalog") != std::string::npos &&
        line.find("selected") != std::string::npos) {
      picked_catalog = true;
    }
  }
  EXPECT_TRUE(picked_catalog);

  // Dedup removed a meaningful share of the planted duplicates without
  // collapsing the table.
  size_t out_rows = r.curated.num_rows();
  EXPECT_LT(out_rows, catalog_rows) << "no duplicates were merged";
  EXPECT_GE(out_rows, expected_entities * 8 / 10)
      << "dedup over-merged distinct entities";

  // Imputation filled the planted nulls.
  EXPECT_DOUBLE_EQ(r.curated.NullFraction(), 0.0);
  EXPECT_GE(r.context.metrics.at("impute.cells"), 0.0);

  // The Trainer runtime surfaced per-epoch training curves for the
  // stages that fit models (dedup's DeepER, impute's DAE).
  EXPECT_EQ(r.context.metrics.at("dedup.train_epochs"), 25.0);
  EXPECT_GT(r.context.metrics.count("dedup.train_loss.epoch0"), 0u);
  EXPECT_GT(r.context.metrics.count("dedup.train_loss.epoch24"), 0u);
  EXPECT_GT(r.context.metrics.at("dedup.train_wall_ms"), 0.0);
  EXPECT_EQ(r.context.metrics.at("impute.train_epochs"), 60.0);
  EXPECT_GT(r.context.metrics.count("impute.train_loss.epoch59"), 0u);
}

TEST_F(AutoCuratorTest, CuratedTableFingerprintIsPinned) {
  // Golden output of the whole Figure-1 flow on this lake, captured
  // before dedup moved to cached rows and batched scoring. Any change in
  // what Curate emits — a feature, a probability, a tie — shows here.
  size_t expected_entities = 0;
  std::vector<data::Table> lake = MakeLake(&expected_entities);
  AutoCuratorConfig cfg;
  cfg.task_query = "product brand model price catalog";
  cfg.max_tables = 1;
  cfg.seed = 4;
  auto result = AutoCurator(cfg).Curate(lake);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(serve::FingerprintTable(result.ValueOrDie().curated),
            0x599098109f0cf750ull);
}

TEST_F(AutoCuratorTest, EmptyLakeRejected) {
  AutoCuratorConfig cfg;
  AutoCurator curator(cfg);
  EXPECT_EQ(curator.Curate({}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace autodc::core
