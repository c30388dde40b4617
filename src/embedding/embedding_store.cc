#include "src/embedding/embedding_store.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

#include "src/ann/hnsw.h"
#include "src/common/parallel.h"
#include "src/nn/kernels.h"
#include "src/obs/metrics.h"
#include "src/text/similarity.h"

namespace autodc::embedding {

namespace {

// Stores below this size never take the AUTODC_ANN lazy path: the exact
// scan is already microseconds there and stays the recall-1.0 baseline.
constexpr size_t kAnnAutoMinSize = 1024;
// The exact scan goes wide once a single thread would chew through this
// many rows; the grain keeps per-chunk top-k merge cost negligible.
constexpr size_t kParallelScanMin = 8192;
constexpr size_t kParallelScanGrain = 4096;

/// Serializes lazy index builds (a const-path side effect). Only the
/// build takes this lock; ready indexes are read lock-free.
std::mutex& AnnBuildMutex() {
  static std::mutex mu;
  return mu;
}

/// Top-k selector over (similarity, row id) with a total order — higher
/// similarity wins, lower id on ties — so results are deterministic for
/// any scan chunking. Keeps the current worst on top of a size-k heap:
/// O(n log k), and no per-candidate string copies (the old exact scan
/// materialized a Neighbor for every row before sorting).
struct TopK {
  explicit TopK(size_t k) : k(k) { heap.reserve(k + 1); }

  static bool Better(const std::pair<double, size_t>& a,
                     const std::pair<double, size_t>& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  }

  void Push(double sim, size_t id) {
    if (k == 0) return;
    std::pair<double, size_t> item{sim, id};
    if (heap.size() < k) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end(), Better);
      return;
    }
    if (Better(item, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = item;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }

  size_t k;
  std::vector<std::pair<double, size_t>> heap;
};

/// Exclusion lists are tiny (Analogy passes three keys), so a flat
/// probe over resolved row ids beats a hash lookup per candidate.
inline bool IsExcluded(const std::vector<size_t>& exclude_ids, size_t id) {
  for (size_t e : exclude_ids) {
    if (e == id) return true;
  }
  return false;
}

}  // namespace

struct EmbeddingStore::AnnState {
  std::unique_ptr<ann::HnswIndex> index;
  ann::HnswConfig config;
  /// Set when an indexed vector mutates under the index (overwrite,
  /// CenterAndNormalize). Queries fall back to the exact scan until
  /// EnableAnn() rebuilds.
  bool stale = false;
};

EmbeddingStore::~EmbeddingStore() {
  delete ann_.load(std::memory_order_acquire);
}

EmbeddingStore::EmbeddingStore(const EmbeddingStore& other)
    : rows_(other.rows_), index_(other.index_), keys_(other.keys_) {
  // The dequant cache is not copied: it rebuilds on demand like the ANN
  // index.
}

EmbeddingStore& EmbeddingStore::operator=(const EmbeddingStore& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  index_ = other.index_;
  keys_ = other.keys_;
  {
    std::lock_guard<std::mutex> lock(dequant_mu_);
    dequant_cache_.clear();
  }
  delete ann_.exchange(nullptr, std::memory_order_acq_rel);
  return *this;
}

EmbeddingStore::EmbeddingStore(EmbeddingStore&& other) noexcept
    : rows_(std::move(other.rows_)),
      index_(std::move(other.index_)),
      keys_(std::move(other.keys_)),
      dequant_cache_(std::move(other.dequant_cache_)) {
  AnnState* st = other.ann_.exchange(nullptr);
  // The graph borrows its rows, which now live here.
  if (st != nullptr) st->index->set_rows(&rows_);
  ann_.store(st, std::memory_order_release);
}

EmbeddingStore& EmbeddingStore::operator=(EmbeddingStore&& other) noexcept {
  if (this == &other) return *this;
  rows_ = std::move(other.rows_);
  index_ = std::move(other.index_);
  keys_ = std::move(other.keys_);
  {
    std::lock_guard<std::mutex> lock(dequant_mu_);
    dequant_cache_ = std::move(other.dequant_cache_);
  }
  AnnState* st = other.ann_.exchange(nullptr);
  if (st != nullptr) st->index->set_rows(&rows_);
  delete ann_.exchange(st, std::memory_order_acq_rel);
  return *this;
}

Status EmbeddingStore::Add(const std::string& key, std::vector<float> vector) {
  if (rows_.dim() == 0 && rows_.size() == 0) {
    rows_ = ann::RowStore(vector.size(), rows_.quant());
  }
  if (vector.size() != dim()) {
    return Status::InvalidArgument(
        "vector for '" + key + "' has dim " + std::to_string(vector.size()) +
        ", store dim is " + std::to_string(dim()));
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    size_t id = it->second;
    rows_.Set(id, std::move(vector));
    if (quant() != nn::kernels::Quant::kFp32) {
      // Refresh a cached dequant row in place so pointers handed out by
      // Find() keep tracking the key's latest value (fp32 semantics).
      std::lock_guard<std::mutex> lock(dequant_mu_);
      auto cached = dequant_cache_.find(id);
      if (cached != dequant_cache_.end()) {
        rows_.ToF32(id, cached->second.data());
      }
    }
    // The graph still points at the old geometry; exact fallback until
    // the owner rebuilds.
    if (AnnState* st = ann_.load(std::memory_order_acquire)) st->stale = true;
    return Status::OK();
  }
  index_.emplace(key, keys_.size());
  keys_.push_back(key);
  rows_.Append(std::move(vector));
  if (AnnState* st = ann_.load(std::memory_order_acquire)) {
    // Streaming path: the new row is linked into the graph as it arrives
    // (row id == index id), straight from the stored representation.
    if (!st->stale) st->index->Add();
  }
  return Status::OK();
}

const std::vector<float>* EmbeddingStore::Find(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  if (quant() == nn::kernels::Quant::kFp32) return &rows_.F32Row(it->second);
  // Quantized stores have no fp32 rows to point at; dequantize into the
  // per-row cache (node-based map: mapped vectors stay stable across
  // rehash, and Add() refreshes entries in place on overwrite).
  std::lock_guard<std::mutex> lock(dequant_mu_);
  auto [entry, inserted] = dequant_cache_.try_emplace(it->second);
  if (inserted) {
    entry->second.resize(dim());
    rows_.ToF32(it->second, entry->second.data());
  }
  return &entry->second;
}

double EmbeddingStore::RescoredSim(const float* query, double query_norm,
                                   size_t id,
                                   std::vector<float>& scratch) const {
  if (query_norm <= 0.0 || rows_.norm_sq(id) <= 0.0) return 0.0;
  double dot = nn::kernels::DotF32D(query, rows_.F32(id, &scratch), dim());
  return dot / (query_norm * std::sqrt(rows_.norm_sq(id)));
}

size_t EmbeddingStore::ResidentBytes() const { return rows_.resident_bytes(); }

std::vector<Neighbor> EmbeddingStore::ExactNearest(
    const std::vector<float>& query, size_t k,
    const std::vector<size_t>& exclude_ids) const {
  // The query norm is fixed across candidates and candidate norms are
  // cached, so each candidate costs one dot product. A dimension
  // mismatch scores 0, matching CosineSimilarity on unequal sizes.
  double query_norm_sq =
      query.size() == dim()
          ? nn::kernels::SumSqF32(query.data(), query.size())
          : -1.0;
  double query_norm =
      query_norm_sq > 0.0 ? std::sqrt(query_norm_sq) : 0.0;
  size_t n = keys_.size();

  // Quantized stores scan on the quantized rows (the memory win) and
  // re-score a shortlist in fp32 below; the shortlist over-fetch absorbs
  // quantization-induced rank swaps near the top-k boundary. The query
  // is converted once, outside the row loop.
  const bool quantized = quant() != nn::kernels::Quant::kFp32;
  ann::PreparedQuery prepared;
  if (query_norm > 0.0) prepared = rows_.Prepare(query.data());
  const ann::RowView& q = prepared.view();
  size_t shortlist = quantized ? std::min(n, k + std::max(k, size_t{8})) : k;

  auto scan = [&](size_t begin, size_t end, TopK* top) {
    for (size_t i = begin; i < end; ++i) {
      if (IsExcluded(exclude_ids, i)) continue;
      double sim = 0.0;
      if (query_norm_sq > 0.0 && rows_.norm_sq(i) > 0.0) {
        sim = rows_.Dot(q, i) / (query_norm * std::sqrt(rows_.norm_sq(i)));
      }
      top->Push(sim, i);
    }
  };

  std::vector<std::pair<double, size_t>> best;
  if (n >= kParallelScanMin && NumThreads() > 1) {
    // Row-block parallel scan: each chunk keeps its own top-k, chunks
    // merge under a lock, and the final selection re-applies the same
    // total order — so the result is identical for any thread count.
    std::mutex mu;
    ParallelFor(0, n, kParallelScanGrain, [&](size_t begin, size_t end) {
      TopK local(shortlist);
      scan(begin, end, &local);
      std::lock_guard<std::mutex> lock(mu);
      best.insert(best.end(), local.heap.begin(), local.heap.end());
    });
  } else {
    TopK top(shortlist);
    scan(0, n, &top);
    best = std::move(top.heap);
  }
  std::sort(best.begin(), best.end(), TopK::Better);
  if (best.size() > shortlist) best.resize(shortlist);
  if (quantized) {
    // Rescoring contract: the shortlist re-ranks on the exact fp32
    // formula over dequantized rows, so returned similarities match
    // what an fp32 store would report for the same keys.
    std::vector<float> scratch;
    for (auto& [sim, id] : best) {
      sim = RescoredSim(query.data(), query_norm, id, scratch);
    }
    std::sort(best.begin(), best.end(), TopK::Better);
  }
  if (best.size() > k) best.resize(k);

  AUTODC_OBS_INC("embedding.nearest.exact");
  std::vector<Neighbor> out;
  out.reserve(best.size());
  for (const auto& [sim, id] : best) {
    out.push_back(Neighbor{keys_[id], sim});
  }
  return out;
}

std::vector<Neighbor> EmbeddingStore::AnnNearest(
    const std::vector<float>& query, size_t k,
    const std::vector<size_t>& exclude_ids) const {
  // Degenerate queries (dim mismatch, zero norm) have no graph
  // geometry to navigate; keep the exact path's semantics for them.
  if (query.size() != dim()) return ExactNearest(query, k, exclude_ids);
  double query_norm_sq = nn::kernels::SumSqF32(query.data(), query.size());
  if (query_norm_sq <= 0.0) return ExactNearest(query, k, exclude_ids);

  const AnnState* st = ann_.load(std::memory_order_acquire);
  // Quantized graphs over-fetch a little so fp32 rescoring can repair
  // rank swaps the quantized distances introduced near the boundary.
  size_t extra = quant() != nn::kernels::Quant::kFp32 ? 8 : 0;
  std::vector<ann::ScoredId> hits =
      st->index->Search(query.data(), k + exclude_ids.size() + extra);

  // Re-score survivors with the exact path's formula so similarity
  // values agree bit-for-bit with an exact scan returning the same key.
  double query_norm = std::sqrt(query_norm_sq);
  std::vector<float> scratch;
  std::vector<std::pair<double, size_t>> best;
  best.reserve(hits.size());
  for (const ann::ScoredId& hit : hits) {
    if (IsExcluded(exclude_ids, hit.id)) continue;
    best.emplace_back(RescoredSim(query.data(), query_norm, hit.id, scratch),
                      hit.id);
  }
  std::sort(best.begin(), best.end(), TopK::Better);
  if (best.size() > k) best.resize(k);

  AUTODC_OBS_INC("embedding.nearest.ann");
  std::vector<Neighbor> out;
  out.reserve(best.size());
  for (const auto& [sim, id] : best) {
    out.push_back(Neighbor{keys_[id], sim});
  }
  return out;
}

bool EmbeddingStore::UseAnnFor(size_t k, size_t num_excluded) const {
  size_t n = keys_.size();
  if (n == 0 || k == 0) return false;
  // Exact-scan fallback for small result margins: when the caller asks
  // for a sizable fraction of the store, the scan is both faster and
  // exact.
  if ((k + num_excluded) * 4 >= n) return false;
  if (const AnnState* st = ann_.load(std::memory_order_acquire)) {
    return !st->stale;
  }
  // Lazy env-driven build: AUTODC_ANN=1 turns large stores over to the
  // index the first time they are queried.
  if (n < kAnnAutoMinSize || !ann::AnnEnvEnabled()) return false;
  std::lock_guard<std::mutex> lock(AnnBuildMutex());
  if (ann_.load(std::memory_order_acquire) == nullptr) {
    (void)BuildAnn(ann::ConfigFromEnv());
  }
  const AnnState* st = ann_.load(std::memory_order_acquire);
  return st != nullptr && !st->stale;
}

Status EmbeddingStore::BuildAnn(const ann::HnswConfig& config) const {
  if (dim() == 0) {
    return Status::FailedPrecondition(
        "cannot build ANN index: store dimensionality unknown (empty store "
        "constructed without a dim)");
  }
  auto st = std::make_unique<AnnState>();
  st->config = config;
  st->index = std::make_unique<ann::HnswIndex>(&rows_, config);
  st->index->Build();
  delete ann_.exchange(st.release(), std::memory_order_acq_rel);
  AUTODC_OBS_GAUGE_SET("embedding.store.bytes",
                       static_cast<int64_t>(ResidentBytes()));
  return Status::OK();
}

Status EmbeddingStore::EnableAnn() { return EnableAnn(ann::ConfigFromEnv()); }

Status EmbeddingStore::EnableAnn(const ann::HnswConfig& config) {
  return BuildAnn(config);
}

Status EmbeddingStore::RebuildAnn() {
  const AnnState* st = ann_.load(std::memory_order_acquire);
  if (st == nullptr) {
    return Status::FailedPrecondition(
        "RebuildAnn: no ANN index was ever built for this store (call "
        "EnableAnn first)");
  }
  if (!st->stale) return Status::OK();
  // The stored config is copied out before BuildAnn deletes the old
  // state on publication.
  ann::HnswConfig config = st->config;
  return BuildAnn(config);
}

void EmbeddingStore::DisableAnn() {
  delete ann_.exchange(nullptr, std::memory_order_acq_rel);
}

bool EmbeddingStore::AnnActive() const {
  const AnnState* st = ann_.load(std::memory_order_acquire);
  return st != nullptr && !st->stale;
}

std::vector<Neighbor> EmbeddingStore::NearestToVector(
    const std::vector<float>& query, size_t k,
    const std::vector<std::string>& exclude) const {
  // Resolve exclusions to row ids once, up front; keys not in the store
  // fall away here instead of being probed per candidate.
  std::vector<size_t> exclude_ids;
  exclude_ids.reserve(exclude.size());
  for (const std::string& key : exclude) {
    auto it = index_.find(key);
    if (it != index_.end()) exclude_ids.push_back(it->second);
  }
  std::sort(exclude_ids.begin(), exclude_ids.end());
  exclude_ids.erase(std::unique(exclude_ids.begin(), exclude_ids.end()),
                    exclude_ids.end());
  if (UseAnnFor(k, exclude_ids.size())) {
    return AnnNearest(query, k, exclude_ids);
  }
  return ExactNearest(query, k, exclude_ids);
}

Result<std::vector<Neighbor>> EmbeddingStore::Nearest(const std::string& key,
                                                      size_t k) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("no embedding for '" + key + "'");
  }
  // A local fp32 copy (dequantized below fp32) avoids growing the Find()
  // cache for a transient use.
  std::vector<float> q(dim());
  rows_.ToF32(it->second, q.data());
  return NearestToVector(q, k, {key});
}

Result<double> EmbeddingStore::Similarity(const std::string& a,
                                          const std::string& b) const {
  auto ia = index_.find(a);
  auto ib = index_.find(b);
  if (ia == index_.end()) {
    return Status::NotFound("no embedding for '" + a + "'");
  }
  if (ib == index_.end()) {
    return Status::NotFound("no embedding for '" + b + "'");
  }
  return rows_.CosineBetween(ia->second, ib->second);
}

Result<std::vector<Neighbor>> EmbeddingStore::Analogy(const std::string& a,
                                                      const std::string& b,
                                                      const std::string& c,
                                                      size_t k) const {
  auto ia = index_.find(a);
  auto ib = index_.find(b);
  auto ic = index_.find(c);
  if (ia == index_.end() || ib == index_.end() || ic == index_.end()) {
    return Status::NotFound("analogy term missing from store");
  }
  std::vector<float> ta, tb, tc;
  const float* pa = rows_.F32(ia->second, &ta);
  const float* pb = rows_.F32(ib->second, &tb);
  const float* pc = rows_.F32(ic->second, &tc);
  std::vector<float> q(dim());
  for (size_t i = 0; i < q.size(); ++i) {
    q[i] = pb[i] - pa[i] + pc[i];
  }
  return NearestToVector(q, k, {a, b, c});
}

void EmbeddingStore::CenterAndNormalize() {
  size_t n = keys_.size();
  size_t dim = this->dim();
  if (n == 0 || dim == 0) return;
  std::vector<double> mean(dim, 0.0);
  std::vector<float> scratch;
  for (size_t r = 0; r < n; ++r) {
    const float* v = rows_.F32(r, &scratch);
    for (size_t i = 0; i < dim; ++i) mean[i] += v[i];
  }
  for (double& m : mean) m /= static_cast<double>(n);
  // Each row is centered and normalized in fp32, then written back
  // (requantized with fresh params for its new range below fp32).
  for (size_t r = 0; r < n; ++r) {
    std::vector<float> v(dim);
    rows_.ToF32(r, v.data());
    double norm = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      v[i] = static_cast<float>(v[i] - mean[i]);
      norm += static_cast<double>(v[i]) * v[i];
    }
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (size_t i = 0; i < dim; ++i) {
        v[i] = static_cast<float>(v[i] / norm);
      }
    }
    rows_.Set(r, std::move(v));
  }
  if (quant() != nn::kernels::Quant::kFp32) {
    // Keep pointers handed out by Find() tracking the new geometry.
    std::lock_guard<std::mutex> lock(dequant_mu_);
    for (auto& [id, row] : dequant_cache_) {
      rows_.ToF32(id, row.data());
    }
  }
  if (AnnState* st = ann_.load(std::memory_order_acquire)) st->stale = true;
}

std::vector<float> EmbeddingStore::AverageOf(
    const std::vector<std::string>& keys) const {
  std::vector<float> avg(dim(), 0.0f);
  std::vector<float> scratch;
  size_t found = 0;
  for (const std::string& key : keys) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    const float* v = rows_.F32(it->second, &scratch);
    nn::kernels::AxpyF32(1.0f, v, avg.data(), avg.size());
    ++found;
  }
  if (found > 0) {
    for (float& x : avg) x /= static_cast<float>(found);
  }
  return avg;
}

}  // namespace autodc::embedding
