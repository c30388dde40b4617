#include "src/ann/hnsw.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>

#include "src/common/env.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace autodc::ann {

namespace {

/// Epoch-stamped visited set, reused across queries per thread so a
/// search costs no allocation or memset in steady state. Shared by all
/// indexes on a thread (sized to the largest seen); stamps from one
/// query can never leak into another because the epoch advances first.
struct VisitedSet {
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;

  void Begin(size_t n) {
    if (stamp.size() < n) stamp.resize(n, 0);
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
  }
  bool TestAndSet(uint32_t id) {
    if (stamp[id] == epoch) return true;
    stamp[id] = epoch;
    return false;
  }
};

thread_local VisitedSet t_visited;

}  // namespace

HnswConfig ConfigFromEnv() {
  HnswConfig config;
  config.M = EnvSizeT("AUTODC_ANN_M", config.M, 2, 256);
  config.ef_construction = EnvSizeT("AUTODC_ANN_EF_CONSTRUCTION",
                                    config.ef_construction, 1, 1 << 20);
  config.ef_search =
      EnvSizeT("AUTODC_ANN_EF_SEARCH", config.ef_search, 1, 1 << 20);
  return config;
}

bool AnnEnvEnabled() { return EnvFlag("AUTODC_ANN", false); }

HnswIndex::HnswIndex(const RowStore* rows, const HnswConfig& config)
    : rows_(rows), config_(config) {
  if (config_.M < 2) config_.M = 2;
  if (config_.ef_construction < config_.M) config_.ef_construction = config_.M;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.sequential_prefix == 0) config_.sequential_prefix = 1;
  level_mult_ = 1.0 / std::log(static_cast<double>(config_.M));
}

int HnswIndex::LevelFor(size_t id) const {
  // The level is a pure function of (seed, id): golden-ratio mixing
  // into an Rng draw, so bulk and incremental builds — and any insert
  // interleaving — assign identical levels.
  Rng rng(config_.seed ^ ((id + 1) * 0x9E3779B97F4A7C15ULL));
  double u = rng.Uniform();
  if (u < 1e-300) u = 1e-300;
  int level = static_cast<int>(-std::log(u) * level_mult_);
  return std::min(level, 30);
}

HnswIndex::Id HnswIndex::AppendNode() {
  Id id = static_cast<Id>(size());
  int level = LevelFor(id);
  levels_.push_back(level);
  links_.emplace_back(static_cast<size_t>(level) + 1);
  for (int lev = 0; lev <= level; ++lev) {
    links_.back()[lev].reserve((lev == 0 ? 2 * config_.M : config_.M) + 1);
  }
  return id;
}

HnswIndex::Id HnswIndex::GreedyDescend(const RowView& q, Id entry,
                                       int from_level, int to_level,
                                       size_t* evals) const {
  Id cur = entry;
  double best = SimTo(q, cur, evals);
  for (int lev = from_level; lev > to_level; --lev) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (Id nb : links_[cur][lev]) {
        double s = SimTo(q, nb, evals);
        // Strictly increasing (sim, -id) keeps the walk terminating
        // and the chosen node independent of neighbour-list order.
        if (s > best || (s == best && nb < cur)) {
          best = s;
          cur = nb;
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(
    const RowView& q, Id entry, int level, size_t ef, size_t* evals) const {
  auto closer = [](const Candidate& a, const Candidate& b) {
    return a.sim > b.sim || (a.sim == b.sim && a.id < b.id);
  };
  // Frontier: closest unexpanded first. Results: worst kept on top so
  // it pops first once the beam is full.
  auto frontier_order = [&](const Candidate& a, const Candidate& b) {
    return closer(b, a);
  };
  std::priority_queue<Candidate, std::vector<Candidate>,
                      decltype(frontier_order)>
      frontier(frontier_order);
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(closer)>
      results(closer);

  VisitedSet& visited = t_visited;
  visited.Begin(size());
  visited.TestAndSet(entry);
  Candidate first{SimTo(q, entry, evals), entry};
  frontier.push(first);
  results.push(first);

  while (!frontier.empty()) {
    Candidate c = frontier.top();
    if (results.size() >= ef && c.sim < results.top().sim) break;
    frontier.pop();
    for (Id nb : links_[c.id][level]) {
      if (visited.TestAndSet(nb)) continue;
      double s = SimTo(q, nb, evals);
      if (results.size() < ef || s > results.top().sim ||
          (s == results.top().sim && nb < results.top().id)) {
        frontier.push(Candidate{s, nb});
        results.push(Candidate{s, nb});
        if (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<Candidate> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // best first
  return out;
}

std::vector<HnswIndex::Id> HnswIndex::SelectNeighbors(
    const std::vector<Candidate>& cands, size_t m, size_t* evals) const {
  std::vector<Id> out;
  if (cands.size() <= m) {
    out.reserve(cands.size());
    for (const Candidate& c : cands) out.push_back(c.id);
    return out;
  }
  out.reserve(m);
  // Diversity heuristic: keep a candidate only if it is closer to the
  // query than to every already-selected neighbour, so the kept edges
  // spread across directions instead of clustering. Pruned candidates
  // backfill remaining slots (hnswlib's keep-pruned-connections) to
  // hold degrees — and graph connectivity — up on clustered data.
  std::vector<Candidate> pruned;
  for (const Candidate& c : cands) {
    if (out.size() >= m) break;
    bool diverse = true;
    for (Id s : out) {
      if (SimTo(rows_->Row(c.id), s, evals) > c.sim) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      out.push_back(c.id);
    } else {
      pruned.push_back(c);
    }
  }
  for (size_t i = 0; i < pruned.size() && out.size() < m; ++i) {
    out.push_back(pruned[i].id);
  }
  return out;
}

HnswIndex::PendingLink HnswIndex::FindCandidates(Id id, size_t* evals) const {
  PendingLink pending;
  if (max_level_ < 0) return pending;  // first node: nothing to search
  RowView q = rows_->Row(id);
  int level = levels_[id];
  int top = std::min(level, max_level_);
  pending.per_level.resize(static_cast<size_t>(top) + 1);
  Id ep = entry_;
  if (max_level_ > level) {
    ep = GreedyDescend(q, entry_, max_level_, level, evals);
  }
  for (int lev = top; lev >= 0; --lev) {
    std::vector<Candidate> found =
        SearchLayer(q, ep, lev, config_.ef_construction, evals);
    ep = found.front().id;
    pending.per_level[static_cast<size_t>(lev)] = std::move(found);
  }
  return pending;
}

void HnswIndex::LinkNode(Id id, PendingLink&& pending, size_t* evals) {
  int level = levels_[id];
  if (max_level_ < 0) {
    entry_ = id;
    max_level_ = level;
    return;
  }
  for (int lev = static_cast<int>(pending.per_level.size()) - 1; lev >= 0;
       --lev) {
    std::vector<Candidate>& cands = pending.per_level[static_cast<size_t>(lev)];
    if (cands.empty()) continue;
    size_t m = lev == 0 ? 2 * config_.M : config_.M;
    std::vector<Id> neighbors = SelectNeighbors(cands, m, evals);
    links_[id][static_cast<size_t>(lev)] = neighbors;
    for (Id nb : neighbors) {
      std::vector<Id>& nb_links = links_[nb][static_cast<size_t>(lev)];
      nb_links.push_back(id);
      if (nb_links.size() <= m) continue;
      // Over-full neighbour: re-select its list with the same heuristic
      // over fresh similarities (best-first, deterministic tie-break).
      std::vector<Candidate> nb_cands;
      nb_cands.reserve(nb_links.size());
      RowView nb_row = rows_->Row(nb);
      for (Id other : nb_links) {
        nb_cands.push_back(Candidate{SimTo(nb_row, other, evals), other});
      }
      std::sort(nb_cands.begin(), nb_cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.sim > b.sim || (a.sim == b.sim && a.id < b.id);
                });
      nb_links = SelectNeighbors(nb_cands, m, evals);
    }
  }
  if (level > max_level_) {
    entry_ = id;
    max_level_ = level;
  }
}

size_t HnswIndex::Add() {
  size_t evals = 0;
  Id id = AppendNode();
  PendingLink pending = FindCandidates(id, &evals);
  LinkNode(id, std::move(pending), &evals);
  AUTODC_OBS_INC("ann.inserts");
  AUTODC_OBS_COUNT("ann.distance_evals", evals);
  return id;
}

void HnswIndex::Build() {
  AUTODC_OBS_SPAN(build_span, "ann.build");
  size_t start = size();
  while (size() < rows_->size()) AppendNode();
  size_t end = size();

  // Sequential prefix: grow the graph one node at a time until it is
  // connected enough for frozen-graph batch searches to find good
  // neighbourhoods.
  size_t i = start;
  size_t evals = 0;
  for (; i < end && i < config_.sequential_prefix; ++i) {
    Id id = static_cast<Id>(i);
    LinkNode(id, FindCandidates(id, &evals), &evals);
  }

  // Batched phase. Candidate search only reads the pre-batch graph, so
  // it parallelizes freely and results are independent of chunking;
  // linking then runs serially in id order. Batch boundaries are fixed
  // by config, never by thread count.
  while (i < end) {
    size_t batch_end = std::min(i + config_.batch_size, end);
    std::vector<PendingLink> found(batch_end - i);
    ParallelFor(i, batch_end, 1, [&](size_t b, size_t e) {
      size_t local_evals = 0;
      for (size_t j = b; j < e; ++j) {
        found[j - i] = FindCandidates(static_cast<Id>(j), &local_evals);
      }
      AUTODC_OBS_COUNT("ann.distance_evals", local_evals);
    });
    for (size_t j = i; j < batch_end; ++j) {
      LinkNode(static_cast<Id>(j), std::move(found[j - i]), &evals);
    }
    i = batch_end;
  }
  AUTODC_OBS_COUNT("ann.inserts", end - start);
  AUTODC_OBS_COUNT("ann.distance_evals", evals);
  PublishStats();
}

std::vector<ScoredId> HnswIndex::Search(const float* query, size_t k,
                                        size_t ef) const {
  std::vector<ScoredId> out;
  if (size() == 0 || k == 0) return out;
#ifndef AUTODC_DISABLE_OBS
  auto t0 = std::chrono::steady_clock::now();
#endif
  size_t evals = 0;
  // Convert the query once; every graph hop then scores the stored rows
  // in their own precision.
  PreparedQuery prepared = rows_->Prepare(query);
  const RowView& q = prepared.view();
  size_t beam = std::max(ef != 0 ? ef : config_.ef_search, k);
  Id ep = entry_;
  if (max_level_ > 0) {
    ep = GreedyDescend(q, entry_, max_level_, 0, &evals);
  }
  std::vector<Candidate> found = SearchLayer(q, ep, 0, beam, &evals);
  size_t take = std::min(k, found.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(ScoredId{found[i].id, found[i].sim});
  }
  AUTODC_OBS_INC("ann.searches");
  AUTODC_OBS_COUNT("ann.distance_evals", evals);
#ifndef AUTODC_DISABLE_OBS
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  AUTODC_OBS_HIST("ann.search_ms", elapsed_ms);
#endif
  return out;
}

size_t HnswIndex::num_edges() const {
  size_t edges = 0;
  for (const auto& node : links_) {
    for (const auto& level : node) edges += level.size();
  }
  return edges;
}

size_t HnswIndex::resident_bytes() const {
  size_t bytes = levels_.capacity() * sizeof(int) +
                 links_.capacity() * sizeof(std::vector<std::vector<Id>>);
  for (const auto& node : links_) {
    bytes += node.capacity() * sizeof(std::vector<Id>);
    for (const auto& level : node) bytes += level.capacity() * sizeof(Id);
  }
  return bytes;
}

void HnswIndex::PublishStats() const {
  AUTODC_OBS_GAUGE_SET("ann.nodes", static_cast<double>(size()));
  AUTODC_OBS_GAUGE_SET("ann.edges", static_cast<double>(num_edges()));
  AUTODC_OBS_GAUGE_SET("ann.max_level", static_cast<double>(max_level_));
  AUTODC_OBS_GAUGE_SET("ann.bytes", static_cast<double>(resident_bytes()));
}

}  // namespace autodc::ann
