#include "src/er/blocking.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/nn/kernels.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/text/tokenizer.h"

namespace autodc::er {

namespace {

/// Blocking key (first token, "" when null/empty) of every row of one
/// table. On a chunk-scannable uniform string column each DISTINCT
/// value is tokenized once, keyed by its dictionary code; other layouts
/// fall back to the per-cell path with identical results.
std::vector<std::string> BlockingKeys(const data::Table& t, size_t column) {
  std::vector<std::string> keys(t.num_rows());
  if (t.ChunkScannable() && t.ColumnUniform(column) &&
      t.storage_type(column) == data::ValueType::kString) {
    const data::StringDict& dict = t.dict(column);
    std::vector<std::string> key_of_code(dict.size());
    std::vector<char> done(dict.size(), 0);
    for (size_t k = 0; k < t.num_chunks(); ++k) {
      data::TypedChunkRef ch = t.column_chunk(column, k);
      for (size_t i = 0; i < ch.n; ++i) {
        if (ch.is_null(i)) continue;
        uint32_t code = ch.codes[i];
        if (!done[code]) {
          std::vector<std::string> toks =
              text::Tokenize(std::string(dict.str(code)));
          if (!toks.empty()) key_of_code[code] = std::move(toks[0]);
          done[code] = 1;
        }
        keys[ch.base + i] = key_of_code[code];
      }
    }
    return keys;
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.IsNull(r, column)) continue;
    std::vector<std::string> toks = text::Tokenize(t.CellText(r, column));
    if (!toks.empty()) keys[r] = std::move(toks[0]);
  }
  return keys;
}

}  // namespace

std::vector<RowPair> AttributeBlocking(const data::Table& left,
                                       const data::Table& right,
                                       size_t column) {
  std::vector<std::string> right_keys = BlockingKeys(right, column);
  std::unordered_map<std::string, std::vector<size_t>> right_blocks;
  for (size_t r = 0; r < right_keys.size(); ++r) {
    if (!right_keys[r].empty()) right_blocks[right_keys[r]].push_back(r);
  }
  std::vector<std::string> left_keys = BlockingKeys(left, column);
  std::vector<RowPair> out;
  for (size_t l = 0; l < left_keys.size(); ++l) {
    if (left_keys[l].empty()) continue;
    auto it = right_blocks.find(left_keys[l]);
    if (it == right_blocks.end()) continue;
    for (size_t r : it->second) out.emplace_back(l, r);
  }
  AUTODC_OBS_COUNT("blocking.attribute_candidates", out.size());
  return out;
}

LshBlocker::LshBlocker(size_t dim, size_t bits, size_t tables, uint64_t seed)
    : dim_(dim), bits_(bits), num_tables_(tables) {
  Rng rng(seed);
  hyperplanes_.resize(bits * tables);
  for (auto& h : hyperplanes_) {
    h.resize(dim);
    for (float& x : h) x = static_cast<float>(rng.Normal());
  }
}

uint64_t LshBlocker::HashVector(const std::vector<float>& v,
                                size_t table) const {
  uint64_t code = 0;
  for (size_t b = 0; b < bits_; ++b) {
    const std::vector<float>& h = hyperplanes_[table * bits_ + b];
    double dot = 0.0;
    size_t n = std::min(dim_, v.size());
    for (size_t i = 0; i < n; ++i) dot += static_cast<double>(h[i]) * v[i];
    code = (code << 1) | (dot >= 0.0 ? 1u : 0u);
  }
  return code;
}

std::vector<RowPair> LshBlocker::Candidates(
    const std::vector<std::vector<float>>& left,
    const std::vector<std::vector<float>>& right) const {
  struct PairHash {
    size_t operator()(const RowPair& p) const {
      return p.first * 1000003u + p.second;
    }
  };
  AUTODC_OBS_SPAN(lsh_span, "blocking.lsh_candidates");
  // Hashing every row into every table is independent per table, so
  // tables hash in parallel. The probe then inserts pairs serially in
  // (table, left row, bucket) order, which fixes the result's order for
  // any thread count, without first materializing each table's pairs.
  std::vector<std::unordered_map<uint64_t, std::vector<size_t>>> buckets(
      num_tables_);
  std::vector<std::vector<uint64_t>> left_codes(num_tables_);
  ParallelFor(0, num_tables_, 1, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      for (size_t r = 0; r < right.size(); ++r) {
        buckets[t][HashVector(right[r], t)].push_back(r);
      }
      left_codes[t].resize(left.size());
      for (size_t l = 0; l < left.size(); ++l) {
        left_codes[t][l] = HashVector(left[l], t);
      }
    }
  });
  std::unordered_set<RowPair, PairHash> seen;
  for (size_t t = 0; t < num_tables_; ++t) {
    for (size_t l = 0; l < left.size(); ++l) {
      auto it = buckets[t].find(left_codes[t][l]);
      if (it == buckets[t].end()) continue;
      for (size_t r : it->second) seen.insert({l, r});
    }
  }
  AUTODC_OBS_COUNT("blocking.lsh_candidates", seen.size());
  return std::vector<RowPair>(seen.begin(), seen.end());
}

namespace {

/// Exact top-k right rows for one left vector, (sim desc, id asc)
/// ordered — the small-n fallback and the recall reference.
std::vector<size_t> ExactTopK(const std::vector<float>& q,
                              const std::vector<std::vector<float>>& right,
                              size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(right.size());
  for (size_t r = 0; r < right.size(); ++r) {
    double sim = q.size() == right[r].size() && !q.empty()
                     ? nn::kernels::CosineF32(q.data(), right[r].data(),
                                              q.size())
                     : 0.0;
    scored.emplace_back(sim, r);
  }
  size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  std::vector<size_t> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace

AnnBlocker::AnnBlocker(size_t k, const ann::HnswConfig& config,
                       nn::kernels::Quant quant)
    : k_(k), config_(config), quant_(quant) {}

std::vector<RowPair> AnnBlocker::Candidates(
    const std::vector<std::vector<float>>& left,
    const std::vector<std::vector<float>>& right) const {
  AUTODC_OBS_SPAN(ann_span, "blocking.ann_candidates");
  std::vector<std::vector<RowPair>> per_left(left.size());
  if (right.empty() || left.empty()) return {};

  if (right.size() <= kExactThreshold) {
    ParallelFor(0, left.size(), 8, [&](size_t b, size_t e) {
      for (size_t l = b; l < e; ++l) {
        for (size_t r : ExactTopK(left[l], right, k_)) {
          per_left[l].emplace_back(l, r);
        }
      }
    });
  } else {
    size_t dim = right[0].size();
    ann::RowStore rows(dim, quant_);
    // Rows of the wrong width get a zero vector so ids keep matching
    // row indices; zero-norm rows score 0 against everything, the same
    // as the exact cosine's mismatch semantics.
    for (const std::vector<float>& v : right) {
      rows.Append(v.size() == dim ? v : std::vector<float>(dim, 0.0f));
    }
    ann::HnswIndex index(&rows, config_);
    index.Build();
    // Queries are read-only on the built graph: embarrassingly
    // parallel, with per-row output slots so the flattened result is
    // independent of thread count.
    ParallelFor(0, left.size(), 8, [&](size_t b, size_t e) {
      for (size_t l = b; l < e; ++l) {
        if (left[l].size() != dim) continue;
        for (const ann::ScoredId& hit :
             index.Search(left[l].data(), k_)) {
          per_left[l].emplace_back(l, hit.id);
        }
      }
    });
  }

  std::vector<RowPair> out;
  out.reserve(left.size() * k_);
  for (const std::vector<RowPair>& pairs : per_left) {
    out.insert(out.end(), pairs.begin(), pairs.end());
  }
  AUTODC_OBS_COUNT("blocking.ann_candidates", out.size());
  return out;
}

}  // namespace autodc::er
