#include "src/discovery/search.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/nn/kernels.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/text/similarity.h"
#include "src/text/tokenizer.h"

namespace autodc::discovery {

namespace {
std::vector<std::string> TableTokens(const data::Table& t) {
  std::vector<std::string> tokens = text::Tokenize(t.name());
  for (const data::Column& c : t.schema().columns()) {
    for (std::string& tok : text::Tokenize(c.name)) {
      tokens.push_back(std::move(tok));
    }
  }
  for (size_t c = 0; c < t.num_columns(); ++c) {
    size_t taken = 0;
    for (const data::Value& v : t.DistinctColumnValues(c)) {
      for (std::string& tok : text::Tokenize(v.ToString())) {
        tokens.push_back(std::move(tok));
        if (++taken >= 50) break;
      }
      if (taken >= 50) break;
    }
  }
  return tokens;
}
}  // namespace

TableSearchEngine::TableSearchEngine(const embedding::EmbeddingStore* words,
                                     const SearchConfig& config)
    : words_(words), config_(config) {}

void TableSearchEngine::Index(const std::vector<const data::Table*>& tables) {
  table_names_.clear();
  table_vectors_.clear();
  table_norms_sq_.clear();
  table_tfidf_.clear();
  std::vector<std::vector<std::string>> docs;
  for (const data::Table* t : tables) {
    table_names_.push_back(t->name());
    docs.push_back(TableTokens(*t));
  }
  tfidf_ = text::TfIdf();
  tfidf_.Fit(docs);
  for (const auto& doc : docs) {
    table_vectors_.push_back(words_->AverageOf(doc));
    const std::vector<float>& v = table_vectors_.back();
    table_norms_sq_.push_back(nn::kernels::SumSqF32(v.data(), v.size()));
    table_tfidf_.push_back(tfidf_.Transform(doc));
  }
  ann_.reset();
  ann_rows_.reset();
  size_t dim = words_->dim();
  if (config_.use_ann && dim > 0 &&
      table_vectors_.size() >= config_.ann_min_tables) {
    AUTODC_OBS_SPAN(index_span, "search.ann_index");
    ann_rows_ =
        std::make_unique<ann::RowStore>(dim, nn::kernels::QuantFromEnv());
    // Odd-width vectors (dim-0 store rows, schema glitches) get a zero
    // row so index ids stay aligned with table positions; they score 0
    // everywhere, matching the exact path's mismatch handling.
    for (const std::vector<float>& v : table_vectors_) {
      ann_rows_->Append(v.size() == dim ? v : std::vector<float>(dim, 0.0f));
    }
    ann_ = std::make_unique<ann::HnswIndex>(ann_rows_.get(),
                                            config_.ann_config);
    ann_->Build();
  }
}

std::vector<SearchResult> TableSearchEngine::Search(
    const std::string& query) const {
  std::vector<std::string> qtokens = text::Tokenize(query);
  std::vector<float> qvec = words_->AverageOf(qtokens);
  auto qtfidf = tfidf_.Transform(qtokens);
  double qnorm_sq = nn::kernels::SumSqF32(qvec.data(), qvec.size());
  // The query vector averages only the tokens the word store knows. When
  // few are known it stands for a sliver of the query, so the neural
  // signal's weight shrinks with the known fraction and the lexical
  // signal takes the rest.
  size_t known = 0;
  for (const std::string& tok : qtokens) {
    if (words_->Contains(tok)) ++known;
  }
  double neural_weight =
      qtokens.empty() ? 0.0
                      : config_.neural_weight * static_cast<double>(known) /
                            static_cast<double>(qtokens.size());

  auto score_table = [&](size_t i) {
    // cosine(q, t) with |q|^2 hoisted out of the loop and |t|^2 cached
    // at Index time; identical accumulation order to CosineSimilarity.
    double neural = 0.0;
    if (qnorm_sq > 0.0 && table_norms_sq_[i] > 0.0 &&
        qvec.size() == table_vectors_[i].size()) {
      double dot = nn::kernels::DotF32D(qvec.data(), table_vectors_[i].data(),
                                        qvec.size());
      neural = dot / (std::sqrt(qnorm_sq) * std::sqrt(table_norms_sq_[i]));
    }
    double lexical = text::TfIdf::SparseCosine(qtfidf, table_tfidf_[i]);
    return SearchResult{table_names_[i], neural_weight * neural +
                                             (1.0 - neural_weight) * lexical};
  };

  std::vector<SearchResult> out;
  if (ann_ && qnorm_sq > 0.0 && qvec.size() == ann_rows_->dim()) {
    // Sub-linear path: neural top candidates from the graph, lexical
    // scored only on those. Over-fetch so a table whose hybrid score is
    // carried by the lexical term still has a seat at the table.
    size_t fetch = std::min(table_names_.size(),
                            std::max(config_.top_k * config_.ann_overfetch,
                                     config_.top_k));
    AUTODC_OBS_COUNT("search.ann_queries", 1);
    for (const ann::ScoredId& hit : ann_->Search(qvec.data(), fetch)) {
      out.push_back(score_table(hit.id));
    }
  } else {
    for (size_t i = 0; i < table_names_.size(); ++i) {
      out.push_back(score_table(i));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.score > b.score;
            });
  if (out.size() > config_.top_k) out.resize(config_.top_k);
  return out;
}

std::vector<SearchResult> TableSearchEngine::SearchWithRelated(
    const std::string& query, const EnterpriseKnowledgeGraph& ekg,
    double related_discount) const {
  std::vector<SearchResult> direct = Search(query);
  std::unordered_map<std::string, double> scores;
  for (const SearchResult& r : direct) scores[r.table] = r.score;
  for (const SearchResult& r : direct) {
    for (const auto& [related, weight] : ekg.RelatedTables(r.table)) {
      double bonus = r.score * weight * related_discount;
      double& cur = scores[related];
      cur = std::max(cur, bonus);
    }
  }
  std::vector<SearchResult> out;
  for (const auto& [table, score] : scores) {
    out.push_back(SearchResult{table, score});
  }
  std::sort(out.begin(), out.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.score > b.score;
            });
  return out;
}

}  // namespace autodc::discovery
