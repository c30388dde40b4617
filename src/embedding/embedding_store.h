#ifndef AUTODC_EMBEDDING_EMBEDDING_STORE_H_
#define AUTODC_EMBEDDING_EMBEDDING_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ann/row_store.h"
#include "src/common/result.h"
#include "src/nn/kernels.h"

namespace autodc::ann {
struct HnswConfig;
}  // namespace autodc::ann

namespace autodc::embedding {

/// A scored neighbour returned by similarity search.
struct Neighbor {
  std::string key;
  double similarity = 0.0;
};

/// Immutable-ish map from string keys (words, cells, "column:value" node
/// labels) to dense vectors, with cosine nearest-neighbour search and the
/// vector-arithmetic analogy queries of Sec. 2.2 (king - man + woman ≈
/// queen).
///
/// Retrieval has two paths. The default is the exact scan: top-k
/// selection over every row (parallelized across row blocks for large
/// stores), bit-identical in scores to the seed implementation. Calling
/// EnableAnn() — or setting AUTODC_ANN=1, which builds the index lazily
/// on the first large-store query — routes NearestToVector through an
/// HNSW graph index (src/ann) instead: approximate results, sub-linear
/// query time. Mutating a vector that is already indexed (overwrite or
/// CenterAndNormalize) invalidates the index; queries fall back to the
/// exact scan until EnableAnn() is called again (appending new keys via
/// Add keeps the index live — they are inserted incrementally).
///
/// Storage precision (DESIGN.md §11): rows live in one ann::RowStore,
/// which the HNSW index borrows rather than copies. With
/// AUTODC_EMB_QUANT=int8 (or int8sym / bf16) — or the explicit quant
/// constructor — rows are quantized on insert and the fp32 copies are
/// dropped, roughly halving (bf16) or quartering (int8) row-storage
/// bytes. Exact scans and HNSW graph hops then score on the quantized
/// rows directly, and the top-k
/// shortlist is re-scored in fp32 over the dequantized rows, so the
/// similarities returned stay on the exact-path formula. Find() on a
/// quantized store dequantizes the row on first access into a per-row
/// cache (pointers stay stable for the store's lifetime). The default
/// fp32 mode is bit-identical to the unquantized store.
class EmbeddingStore {
 public:
  EmbeddingStore() : EmbeddingStore(0) {}
  explicit EmbeddingStore(size_t dim)
      : EmbeddingStore(dim, nn::kernels::QuantFromEnv()) {}
  EmbeddingStore(size_t dim, nn::kernels::Quant quant) : rows_(dim, quant) {}
  ~EmbeddingStore();

  /// Copies duplicate the vectors but not the ANN index (the copy
  /// rebuilds on demand); moves carry the index along, re-pointed at the
  /// moved rows.
  EmbeddingStore(const EmbeddingStore& other);
  EmbeddingStore& operator=(const EmbeddingStore& other);
  EmbeddingStore(EmbeddingStore&& other) noexcept;
  EmbeddingStore& operator=(EmbeddingStore&& other) noexcept;

  /// Inserts or overwrites a vector (must match the store dimensionality;
  /// the first Add fixes it when constructed with dim 0).
  Status Add(const std::string& key, std::vector<float> vector);

  /// Vector for key, or nullptr. On a quantized store this dequantizes
  /// on first access and caches the fp32 row (thread-safe; the pointer
  /// stays valid and tracks later overwrites of the key).
  const std::vector<float>* Find(const std::string& key) const;

  bool Contains(const std::string& key) const {
    return index_.count(key) > 0;
  }
  size_t size() const { return keys_.size(); }
  size_t dim() const { return rows_.dim(); }
  const std::vector<std::string>& keys() const { return keys_; }
  /// Row storage precision.
  nn::kernels::Quant quant() const { return rows_.quant(); }
  /// Heap bytes of row storage + cached norms/params (keys and the key
  /// index excluded — they are identical across modes). The memory half
  /// of the quantization bench gate; published as the
  /// embedding.store.bytes gauge when an ANN index is built (the index's
  /// own ann.bytes gauge counts only its graph).
  size_t ResidentBytes() const;

  /// k nearest neighbours of `query` by cosine similarity, excluding the
  /// keys listed in `exclude`. Exact by default; approximate when the
  /// ANN index is active (see class comment).
  std::vector<Neighbor> NearestToVector(
      const std::vector<float>& query, size_t k,
      const std::vector<std::string>& exclude = {}) const;

  /// k nearest neighbours of an existing key (itself excluded).
  Result<std::vector<Neighbor>> Nearest(const std::string& key,
                                        size_t k) const;

  /// Cosine similarity between two stored keys; error if either missing.
  Result<double> Similarity(const std::string& a, const std::string& b) const;

  /// Solves a : b :: c : ? via the offset method — returns the nearest
  /// key to (b - a + c), excluding a, b, c.
  Result<std::vector<Neighbor>> Analogy(const std::string& a,
                                        const std::string& b,
                                        const std::string& c,
                                        size_t k = 3) const;

  /// Mean vector of the keys that exist in the store; zero vector if none
  /// do. Used by coherent-group matching and query embedding.
  std::vector<float> AverageOf(const std::vector<std::string>& keys) const;

  /// Common-component removal: subtracts the store-wide mean vector from
  /// every embedding, then L2-normalizes each. Small-corpus embeddings
  /// share a large common direction that crushes all cosine similarities
  /// toward 1; removing it restores discriminative geometry (the SIF
  /// "common component" trick). Invalidates a live ANN index.
  void CenterAndNormalize();

  /// Builds (or rebuilds) the HNSW index over the current contents and
  /// routes subsequent NearestToVector calls through it. The graph links
  /// the store's own rows, in the store's precision. The no-config
  /// overload takes defaults + AUTODC_ANN_EF_SEARCH from the
  /// environment.
  Status EnableAnn();
  Status EnableAnn(const ann::HnswConfig& config);

  /// Re-freshens a stale index in place: when an overwrite or
  /// CenterAndNormalize has invalidated the index, rebuilds it with the
  /// config it was originally built with (no-op when the index is still
  /// fresh). Unlike the lazy AUTODC_ANN path — which only ever builds a
  /// *first* index — this is the recovery call for long-running owners
  /// (the serve-layer session refresh): without it a store that took one
  /// in-place update silently serves exact-scan latency forever.
  /// FailedPrecondition when no index was ever built.
  Status RebuildAnn();

  /// Drops the index; queries return to the exact scan.
  void DisableAnn();

  /// True when the index is built and fresh (queries take the ANN path).
  bool AnnActive() const;

 private:
  struct AnnState;  // holds the index + lazy-build lock (see .cc)

  /// Exact top-k scan; `exclude_ids` are row ids, sorted ascending.
  std::vector<Neighbor> ExactNearest(
      const std::vector<float>& query, size_t k,
      const std::vector<size_t>& exclude_ids) const;
  std::vector<Neighbor> AnnNearest(const std::vector<float>& query, size_t k,
                                   const std::vector<size_t>& exclude_ids)
      const;
  /// Routes a query: lazily builds the index when AUTODC_ANN asks for
  /// it, and decides between the ANN path and the exact fallback.
  bool UseAnnFor(size_t k, size_t num_excluded) const;
  /// Builds and publishes a fresh index (const: the lazy env path runs
  /// under a query; publication is atomic).
  Status BuildAnn(const ann::HnswConfig& config) const;

  /// Exact-formula similarity against row `id`: fp32 dot over the
  /// dequantized row (via `scratch` on quantized stores). This is the
  /// rescoring contract — ANN hits and quantized-scan shortlists both
  /// come back through here so returned similarities are comparable
  /// across modes and paths.
  double RescoredSim(const float* query, double query_norm, size_t id,
                     std::vector<float>& scratch) const;

  // Row storage (vectors, int8 params/sums, norms); the ANN index is a
  // graph over these same rows. Row id == position in keys_.
  ann::RowStore rows_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::string> keys_;
  // Find() on a quantized store returns pointers into this per-row
  // dequant cache; unordered_map's node-based storage keeps mapped
  // vectors stable across rehash, and overwrites refresh entries in
  // place so held pointers track the latest value.
  mutable std::mutex dequant_mu_;
  mutable std::unordered_map<size_t, std::vector<float>> dequant_cache_;
  // Mutable + atomic: the AUTODC_ANN lazy build happens under a const
  // query, guarded by a build mutex and published with a release store,
  // so concurrent readers either see no index (exact scan) or a fully
  // built one — never a partial build. Owned; freed in the destructor.
  mutable std::atomic<AnnState*> ann_{nullptr};
};

}  // namespace autodc::embedding

#endif  // AUTODC_EMBEDDING_EMBEDDING_STORE_H_
