// Experiment F1 (Figure 1): the end-to-end self-driving curation
// pipeline. A lake of source tables (one relevant, with planted
// duplicates, nulls, and FD violations; others irrelevant) goes in; a
// curated analysis-ready table comes out. Shape: discovery picks the
// right table, dedup recovers close to the true entity count, repair
// removes constraint violations, imputation eliminates nulls — all
// without task-specific configuration beyond the analyst's query.
//
// Full mode adds a row sweep (about 200 / 800 / 3k catalog rows) that
// reports wall time, dedup candidates and entity-count error per size
// plus the fitted exponent of wall time against catalog rows. The sweep
// is skipped under --quick, so the CI gate never sees it.
//
// Profiling: run with AUTODC_TRACE=trace.json to get a Chrome-trace
// file of the stage/epoch span tree (load it in Perfetto; see README
// "Profiling a run").
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/core/autocurator.h"
#include "src/data/dependencies.h"
#include "src/datagen/er_benchmark.h"

using namespace autodc;         // NOLINT
using namespace autodc::bench;  // NOLINT

namespace {

// The Figure-1 lake: a duplicated dirty product catalog built from
// `num_entities` products, plus two distractor tables.
struct Lake {
  std::vector<data::Table> tables;
  size_t catalog_rows = 0;
  size_t true_entities = 0;
};

Lake MakeLake(size_t num_entities) {
  datagen::ErBenchmarkConfig pcfg;
  pcfg.domain = datagen::ErDomain::kProducts;
  pcfg.num_entities = num_entities;
  pcfg.overlap = 0.6;
  pcfg.dirtiness = 0.25;
  pcfg.synonym_rate = 0.0;
  pcfg.null_rate = 0.12;
  pcfg.seed = 9;
  datagen::ErBenchmark pbench = datagen::GenerateErBenchmark(pcfg);
  data::Table catalog(pbench.left.schema(), "product_catalog");
  for (size_t r = 0; r < pbench.left.num_rows(); ++r) {
    catalog.AppendRow(pbench.left.row(r));
  }
  for (size_t r = 0; r < pbench.right.num_rows(); ++r) {
    catalog.AppendRow(pbench.right.row(r));
  }
  Lake lake;
  lake.catalog_rows = catalog.num_rows();
  lake.true_entities = catalog.num_rows() - pbench.matches.size();

  datagen::ErBenchmarkConfig dcfg1;
  dcfg1.domain = datagen::ErDomain::kPersons;
  dcfg1.num_entities = 60;
  dcfg1.seed = 10;
  data::Table people = datagen::GenerateErBenchmark(dcfg1).left;
  people.set_name("employee_directory");

  datagen::ErBenchmarkConfig dcfg2;
  dcfg2.domain = datagen::ErDomain::kCitations;
  dcfg2.num_entities = 60;
  dcfg2.seed = 11;
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

double EntityCountError(size_t rows_out, size_t true_entities) {
  return std::fabs(static_cast<double>(rows_out) -
                   static_cast<double>(true_entities)) /
         static_cast<double>(true_entities);
}

// Least-squares slope of log(y) against log(x): the scaling exponent k
// of y ~ x^k.
double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y) {
  double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    double lx = std::log(x[i]);
    double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  double denom = n * sxx - sx * sx;
  return denom == 0.0 ? 0.0 : (n * sxy - sx * sy) / denom;
}

// Curates lakes of growing catalog size and reports how wall time and
// dedup quality scale with rows.
int RunRowSweep(Bench& b) {
  std::printf("\nrow sweep:\n");
  PrintRow({"catalog rows", "wall (s)", "candidates", "entity err"});
  core::AutoCurator curator(PipelineConfig());
  std::vector<double> rows;
  std::vector<double> seconds;
  for (size_t entities : {120, 480, 1920}) {
    Lake lake = MakeLake(entities);
    Timer timer;
    auto result = curator.Curate(lake.tables);
    double wall = timer.Seconds();
    if (!result.ok()) {
      std::printf("pipeline failed: %s\n",
                  result.status().ToString().c_str());
      return 1;
    }
    const core::CurationResult& r = result.ValueOrDie();
    double candidates = r.context.metrics.count("dedup.candidates")
                            ? r.context.metrics.at("dedup.candidates")
                            : 0.0;
    double err = EntityCountError(r.curated.num_rows(), lake.true_entities);
    PrintRow({FmtInt(lake.catalog_rows), Fmt(wall, 2),
              FmtInt(static_cast<size_t>(candidates)),
              Fmt(err)});
    b.Report("sweep_" + std::to_string(lake.catalog_rows) + "_rows",
             {{"catalog_rows", static_cast<double>(lake.catalog_rows)},
              {"wall_clock_s", wall},
              {"candidates", candidates},
              {"entity_count_err", err}});
    rows.push_back(static_cast<double>(lake.catalog_rows));
    seconds.push_back(wall);
  }
  double exponent = LogLogSlope(rows, seconds);
  std::printf("fitted scaling: wall ~ rows^%.2f\n", exponent);
  b.Report("sweep_fit", {{"scaling_exponent", exponent}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchSpec spec;
  spec.name = "pipeline";
  spec.experiment =
      "Experiment F1 — end-to-end self-driving curation (Figure 1)";
  spec.claim =
      "Lake: product_catalog (dirty, duplicated, nulls) +\n"
      "employee_directory + publication_list (distractors). Query:\n"
      "'product brand model price'. Shape: the pipeline discovers,\n"
      "integrates, deduplicates, repairs and imputes automatically.";
  return BenchMain(argc, argv, spec, [](Bench& b) {
    Lake lake = MakeLake(b.Size(120, 60));
    const data::Table& catalog = lake.tables[1];
    size_t true_entities = lake.true_entities;

    std::printf("input: 3 tables, catalog has %zu rows (%zu true entities), "
                "null fraction %.3f\n",
                catalog.num_rows(), true_entities, catalog.NullFraction());

    core::AutoCurator curator(PipelineConfig());
    Timer timer;
    auto result = curator.Curate(lake.tables);
    double seconds = timer.Seconds();
    if (!result.ok()) {
      std::printf("pipeline failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const core::CurationResult& r = result.ValueOrDie();

    std::printf("\nstage log:\n");
    for (const std::string& line : r.context.report) {
      std::printf("  %s\n", line.c_str());
    }

    std::printf("\n");
    PrintRow({"metric", "value", "ideal"});
    PrintRow({"rows out", FmtInt(r.curated.num_rows()),
              FmtInt(true_entities)});
    double dedup_err = EntityCountError(r.curated.num_rows(), true_entities);
    PrintRow({"entity-count error", Fmt(dedup_err), "0.000"});
    PrintRow({"null fraction out", Fmt(r.curated.NullFraction()), "0.000"});
    PrintRow({"wall clock (s)", Fmt(seconds, 1), "-"});
    b.Report("curate",
             {{"rows_out", static_cast<double>(r.curated.num_rows())},
              {"true_entities", static_cast<double>(true_entities)},
              {"entity_count_err", dedup_err},
              {"null_fraction_out", r.curated.NullFraction()},
              {"wall_clock_s", seconds}});
    std::printf(
        "\n(The dedup stage uses NO hand labels: weak supervision from\n"
        "near-identical candidates trains the DeepER matcher — the Sec. 6.2\n"
        "recipe inside the Figure 1 flow.)\n");
    return b.quick() ? 0 : RunRowSweep(b);
  });
}
