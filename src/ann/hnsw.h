#ifndef AUTODC_ANN_HNSW_H_
#define AUTODC_ANN_HNSW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/ann/row_store.h"

// Sub-linear nearest-neighbour retrieval (ROADMAP item 3): an HNSW
// graph index over the rows of a borrowed RowStore, scored by cosine
// similarity through the store's dot dispatch and cached inverse norms.
// The index holds only the graph, so a store and its index keep one
// copy of each vector. Every retrieval-shaped consumer (LSH/kNN
// blocking, semantic schema matching, table search, analogy/synthesis
// lookup) can route through this instead of the O(n·dim) exact scan.
//
// Determinism contract: a node's level depends only on (seed, node id),
// never on insertion order or thread count. Bulk builds insert a
// sequential prefix one-by-one, then proceed in fixed-size batches:
// each batch searches the FROZEN pre-batch graph for candidate
// neighbours in parallel (pure reads), and links serially in id order.
// Chunking never feeds back into results, so an index built from the
// same (rows, config) is identical for any thread count, and
// searches over it are reproducible bit-for-bit.
namespace autodc::ann {

struct HnswConfig {
  /// Max out-degree per node on levels > 0; level 0 allows 2*M.
  size_t M = 16;
  /// Beam width while inserting (recall/build-time trade-off).
  size_t ef_construction = 200;
  /// Default beam width while searching; raised per query when the
  /// caller asks for more than ef_search results.
  size_t ef_search = 64;
  /// Level-assignment seed (mixed with the node id, see LevelFor).
  uint64_t seed = 42;
  /// Bulk-build batch: candidate search parallelizes within a batch.
  /// Fixed independently of thread count so builds are reproducible.
  size_t batch_size = 256;
  /// Nodes inserted strictly one-by-one before batching starts, so
  /// early batches search a well-connected graph.
  size_t sequential_prefix = 1024;
};

/// HnswConfig with M / ef_construction / ef_search overridden by
/// AUTODC_ANN_M / AUTODC_ANN_EF_CONSTRUCTION / AUTODC_ANN_EF_SEARCH
/// (range-checked; out-of-range values warn and keep the default, per
/// the env.h contract). Row precision is the RowStore's, which callers
/// resolve with nn::kernels::QuantFromEnv().
HnswConfig ConfigFromEnv();

/// True when AUTODC_ANN requests the index path (flag semantics of
/// EnvFlag; unset/empty means off — exact scans stay the default).
bool AnnEnvEnabled();

/// One search hit: row id in insertion order plus cosine similarity.
struct ScoredId {
  size_t id = 0;
  double similarity = 0.0;
};

class HnswIndex {
 public:
  /// A graph over `rows`, which must outlive the index (or be re-pointed
  /// with set_rows when its owner moves). Index ids are row ids: the
  /// graph links rows 0..size()-1 of the store.
  explicit HnswIndex(const RowStore* rows, const HnswConfig& config = {});

  /// Incremental insert (the streaming-arc path): links stored row
  /// size() — the first row not yet in the graph — and returns its id.
  /// Not thread-safe; callers serialize Add against Add/Build/Search.
  size_t Add();

  /// Bulk insert: links every stored row past size() with the
  /// batched-parallel scheme described above. Equivalent to calling
  /// Add per row when the graph stays within sequential_prefix.
  void Build();

  /// Top-k by cosine similarity, best first (ties broken by lower id).
  /// `query` holds the row store's dim() floats and is converted to
  /// the row precision once. `ef` overrides config().ef_search when
  /// nonzero; the effective beam is always at least k. Read-only and
  /// safe to call concurrently from many threads once construction is
  /// done.
  /// Below fp32 the similarities are quantized-row cosines; callers
  /// that need exact scores re-score their top-k in fp32
  /// (EmbeddingStore does this automatically).
  std::vector<ScoredId> Search(const float* query, size_t k,
                               size_t ef = 0) const;

  size_t size() const { return levels_.size(); }
  /// Re-points the index at `rows` after the store holding its rows
  /// moved; the rows must be the same ones the graph was built over.
  void set_rows(const RowStore* rows) { rows_ = rows; }
  const HnswConfig& config() const { return config_; }
  /// Highest populated level (-1 while empty).
  int max_level() const { return max_level_; }
  /// Directed edge count over all levels (O(n) walk; used by gauges).
  size_t num_edges() const;
  /// Heap bytes held by the graph structure (O(n) walk). Row bytes are
  /// the RowStore's (RowStore::resident_bytes).
  size_t resident_bytes() const;

  /// Publishes ann.nodes / ann.edges / ann.max_level / ann.bytes gauges.
  void PublishStats() const;

 private:
  using Id = uint32_t;

  /// (similarity, id) with a total order: higher similarity first,
  /// lower id on ties — the tie-break that makes every heap and sort
  /// in the index deterministic.
  struct Candidate {
    double sim;
    Id id;
  };

  /// Search candidates found for one node per level, computed against
  /// the frozen graph during a bulk-build batch.
  struct PendingLink {
    std::vector<std::vector<Candidate>> per_level;  // [level] best-first
  };

  int LevelFor(size_t id) const;
  double SimTo(const RowView& q, Id id, size_t* evals) const {
    ++*evals;
    return rows_->Cosine(q, id);
  }

  /// Adds graph state (level, empty links) for the next stored row.
  Id AppendNode();
  /// Greedy single-entry descent from `from_level` down to just above
  /// `to_level`.
  Id GreedyDescend(const RowView& q, Id entry, int from_level, int to_level,
                   size_t* evals) const;
  /// Beam search at one level; returns up to ef candidates, best first.
  std::vector<Candidate> SearchLayer(const RowView& q, Id entry, int level,
                                     size_t ef, size_t* evals) const;
  /// The select-neighbours diversity heuristic (HNSW Algorithm 4), with
  /// pruned-candidate backfill to keep degrees full.
  std::vector<Id> SelectNeighbors(const std::vector<Candidate>& cands,
                                  size_t m, size_t* evals) const;
  /// Candidate search phase of one insert against the current graph
  /// (read-only; what bulk-build batches run in parallel).
  PendingLink FindCandidates(Id id, size_t* evals) const;
  /// Link phase: wires `id` into the graph from its candidate lists,
  /// prunes over-full neighbours, and updates the entry point.
  void LinkNode(Id id, PendingLink&& pending, size_t* evals);

  const RowStore* rows_;
  HnswConfig config_;
  double level_mult_;  // 1 / ln(M)
  std::vector<int> levels_;
  /// links_[node][level] -> neighbour ids (level 0 capped at 2M, else M).
  std::vector<std::vector<std::vector<Id>>> links_;
  Id entry_ = 0;
  int max_level_ = -1;
};

}  // namespace autodc::ann

#endif  // AUTODC_ANN_HNSW_H_
