#ifndef AUTODC_DISCOVERY_SEARCH_H_
#define AUTODC_DISCOVERY_SEARCH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/data/table.h"
#include "src/discovery/ekg.h"
#include "src/embedding/embedding_store.h"
#include "src/text/vocabulary.h"

namespace autodc::discovery {

/// One search hit.
struct SearchResult {
  std::string table;
  double score = 0.0;
};

struct SearchConfig {
  /// Mix between the neural (embedding cosine) and lexical (tf-idf
  /// cosine) ranking signals, as in hybrid neural IR (Sec. 5.1). Search
  /// scales it by the fraction of query tokens the word store knows.
  double neural_weight = 0.6;
  size_t top_k = 5;
  /// Sub-linear mode (defaults to the AUTODC_ANN env switch): Index()
  /// additionally builds an HNSW index over the table vectors, and
  /// Search() retrieves top_k * ann_overfetch candidates by neural
  /// similarity, scoring the lexical signal only on those instead of
  /// every indexed table. Approximate: a table ranked purely by its
  /// tf-idf match can drop out; the exact scan remains the default.
  bool use_ann = ann::AnnEnvEnabled();
  /// Lakes smaller than this always take the exact scan.
  size_t ann_min_tables = 64;
  size_t ann_overfetch = 4;
  /// Graph parameters for the ANN index (M / ef_*). Defaults pick up
  /// AUTODC_ANN_M, AUTODC_ANN_EF_CONSTRUCTION and AUTODC_ANN_EF_SEARCH
  /// from the environment; the indexed rows take AUTODC_EMB_QUANT's
  /// precision. Candidates are re-scored by the hybrid ranker either
  /// way, so a quantized index only affects which tables make the
  /// shortlist.
  ann::HnswConfig ann_config = ann::ConfigFromEnv();
};

/// The "Google-style search engine over the enterprise's relations" of
/// Sec. 5.1: tables are indexed by both a distributed representation
/// (mean word vector of schema + sampled values) and a tf-idf vector;
/// a free-text query is ranked against both.
class TableSearchEngine {
 public:
  TableSearchEngine(const embedding::EmbeddingStore* words,
                    const SearchConfig& config = {});

  /// Indexes the given tables (documents = schema tokens + value tokens).
  void Index(const std::vector<const data::Table*>& tables);

  /// Ranked tables for a keyword query.
  std::vector<SearchResult> Search(const std::string& query) const;

  /// Search, then expand each hit with tables the EKG marks as
  /// thematically related (Sec. 5.1's "simultaneously return other
  /// datasets that are thematically related").
  std::vector<SearchResult> SearchWithRelated(
      const std::string& query, const EnterpriseKnowledgeGraph& ekg,
      double related_discount = 0.5) const;

  size_t num_indexed() const { return table_names_.size(); }

 private:
  const embedding::EmbeddingStore* words_;
  SearchConfig config_;
  std::vector<std::string> table_names_;
  std::vector<std::vector<float>> table_vectors_;
  /// Squared L2 norm of each table vector, computed once at Index time
  /// so Search does one dot product per table instead of three
  /// reductions (cosine = dot / (|q| * |t|)).
  std::vector<double> table_norms_sq_;
  std::vector<std::unordered_map<size_t, double>> table_tfidf_;
  text::TfIdf tfidf_;
  /// Built by Index() in ANN mode: the table vectors at the
  /// AUTODC_EMB_QUANT precision and a graph over them (ids == table
  /// positions); null in exact mode. Heap-held so the graph's borrowed
  /// rows stay put when the engine moves; makes the engine move-only.
  std::unique_ptr<ann::RowStore> ann_rows_;
  std::unique_ptr<ann::HnswIndex> ann_;
};

}  // namespace autodc::discovery

#endif  // AUTODC_DISCOVERY_SEARCH_H_
