// serve_score and serve_mixed_rw: two closed-loop clients, one tenant
// each, submit 64-request windows to a CurationServer at library
// defaults and wait for each window before sending the next.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/cleaning/encoding.h"
#include "src/cleaning/imputation.h"
#include "src/data/table_file.h"
#include "src/embedding/embedding_store.h"
#include "src/obs/live.h"
#include "src/obs/metrics.h"
#include "src/serve/fingerprint.h"

namespace perfbench {

using namespace autodc;  // NOLINT
using serve::RequestKind;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeStatus;

namespace {

// Repeated set-ups per run; setup_s is their median.
constexpr int kScoreSetupReps = 5;
constexpr int kMixedSetupReps = 3;
constexpr size_t kWriteEvery = 64;   // writer's windows between writes
constexpr size_t kMinWindows = 1000; // p99 needs 10 samples beyond it
constexpr size_t kSampleCap = 4096;  // oracle sample per client
constexpr double kMaxLoadSeconds = 60.0;  // per load phase

using Sample = std::vector<std::pair<ServeRequest, ServeResponse>>;

struct Dataset {
  data::Table table;  ///< as generated; the session owns its own copy
  std::string path;   ///< ADCT file (serve_mixed_rw)
  uint64_t session = 0;
};

struct Served {
  std::unique_ptr<serve::CurationServer> server;
  std::vector<Dataset> data;
};

struct CellWrite {
  size_t row = 0;
  size_t col = 0;
  data::Value value;
};

struct LoadResult {
  std::vector<double> window_ms;
  std::vector<double> write_ms;
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  uint64_t writes = 0;
  uint64_t write_failures = 0;
  uint64_t mismatches = 0;
  uint64_t oracle_checked = 0;
  double wall_s = 0.0;
};

[[noreturn]] void Fatal(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

size_t NumericColumn(const data::Table& t) {
  cleaning::TableEncoder enc;
  enc.Fit(t);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (enc.IsNumeric(c)) return c;
  }
  Fatal("catalog", Status::Internal("no numeric column"));
}

// Inputs and server for one run; deterministic in the seed.
Served SetUp(const Options& opt, bool mixed) {
  Served s;
  s.server = std::make_unique<serve::CurationServer>();
  size_t n = mixed ? 2 : 1;
  for (size_t i = 0; i < n; ++i) {
    Dataset d;
    d.table = MakeCatalog(mixed ? 1200 : 240,
                          opt.seed + (mixed ? 200 + i : 100));
    if (mixed) {
      d.path = opt.workdir + "/serve_mixed_rw_" + std::to_string(i) + ".adct";
      Status st = data::WriteTableFile(d.table, d.path);
      if (!st.ok()) Fatal("WriteTableFile", st);
    }
    Result<uint64_t> fp = mixed ? s.server->OpenSession(d.path)
                                : s.server->OpenSessionFromTable(d.table);
    if (!fp.ok()) Fatal("OpenSession", fp.status());
    d.session = fp.ValueOrDie();
    s.data.push_back(std::move(d));
  }
  return s;
}

// The per-layer replica of OpenSession: each public call it makes,
// timed on its own.
void TimeSetupLayers(const Options& opt, Served* s, SpanRecorder* rec) {
  const serve::SessionConfig& scfg = s->server->config().session;
  for (const Dataset& d : s->data) {
    data::Table table = d.table;
    uint64_t fp = 0;
    if (!d.path.empty()) {
      std::string path = opt.workdir + "/replica.adct";
      {
        ScopedSpan span(rec, "data.write_adct_ms");
        Status st = data::WriteTableFile(d.table, path);
        if (!st.ok()) Fatal("WriteTableFile", st);
      }
      {
        ScopedSpan span(rec, "serve.fingerprint_ms");
        fp = serve::FingerprintFile(path).ValueOrDie();
      }
      ScopedSpan span(rec, "data.open_adct_ms");
      auto opened = data::OpenTableFile(path);
      if (!opened.ok()) Fatal("OpenTableFile", opened.status());
      table = std::move(opened).ValueOrDie();
    } else {
      ScopedSpan span(rec, "serve.fingerprint_ms");
      fp = serve::FingerprintTable(table);
    }
    ScopedSpan span(rec, "serve.session.build_ms");
    auto session = serve::Session::Build(std::move(table), fp, scfg);
    if (!session.ok()) Fatal("Session::Build", session.status());
  }
}

// Closed-loop load from two clients until `seconds` have passed and
// enough windows completed for a p99. Client 0 of serve_mixed_rw also
// writes a cell and refreshes its session every kWriteEvery windows.
LoadResult RunLoad(Served* s, const WindowSpec specs[2], uint64_t seed,
                   double seconds, bool writer, std::vector<CellWrite>* log,
                   SpanRecorder* recs[2]) {
  struct Client {
    LoadResult r;
    Sample sample;
  };
  Client clients[2];
  std::atomic<bool> stop{false};
  std::atomic<size_t> windows{0};
  serve::CurationServer* server = s->server.get();

  auto body = [&](size_t c) {
    Client& me = clients[c];
    const WindowSpec& spec = specs[c];
    Rng rng(seed * 2 + c);
    Rng pick(seed * 2 + c + 1000003);
    std::shared_ptr<serve::Session> session = server->FindSession(spec.session);
    const data::Table& table = s->data[c % s->data.size()].table;
    size_t since_write = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<ServeRequest> reqs = MakeWindow(spec, &rng);
      ScopedSpan span(recs ? recs[c] : nullptr, "serve.window");
      auto t0 = Clock::now();
      std::shared_ptr<serve::PendingBatch> pending = server->SubmitMany(reqs);
      const std::vector<ServeResponse>& resps = pending->Wait();
      me.r.window_ms.push_back(SecondsSince(t0) * 1e3);
      windows.fetch_add(1, std::memory_order_relaxed);
      for (const ServeResponse& resp : resps) {
        ++me.r.submitted;
        if (resp.status == ServeStatus::kOk) {
          ++me.r.ok;
        } else if (resp.status == ServeStatus::kError) {
          ++me.r.errors;
        } else {
          ++me.r.rejected;
        }
      }
      if (pick.Uniform() < 1.0 / 16 && me.sample.size() < kSampleCap) {
        size_t i = static_cast<size_t>(
            pick.UniformInt(0, static_cast<int64_t>(reqs.size()) - 1));
        me.sample.emplace_back(reqs[i], resps[i]);
      }
      if (!(writer && c == 0) || ++since_write < kWriteEvery) continue;
      since_write = 0;
      CellWrite w;
      w.row = static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(spec.rows) - 1));
      w.col = static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(spec.cols) - 1));
      w.value = table.at(static_cast<size_t>(pick.UniformInt(
                             0, static_cast<int64_t>(spec.rows) - 1)),
                         w.col);
      ScopedSpan wspan(recs ? recs[c] : nullptr, "serve.write");
      auto w0 = Clock::now();
      Status st = session->Update(w.row, w.col, w.value);
      if (st.ok()) st = server->RefreshSession(spec.session);
      me.r.write_ms.push_back(SecondsSince(w0) * 1e3);
      ++me.r.writes;
      if (!st.ok()) {
        ++me.r.write_failures;
        std::fprintf(stderr, "perfbench: write: %s\n", st.ToString().c_str());
      }
      log->push_back(std::move(w));
      // Responses served before this write need not match the new state.
      me.sample.clear();
    }
  };

  auto start = Clock::now();
  std::thread t0(body, 0);
  std::thread t1(body, 1);
  while ((SecondsSince(start) < seconds ||
          windows.load(std::memory_order_relaxed) < kMinWindows) &&
         SecondsSince(start) < kMaxLoadSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  t0.join();
  t1.join();

  LoadResult out;
  out.wall_s = SecondsSince(start);
  for (Client& c : clients) {
    LoadResult& r = c.r;
    out.window_ms.insert(out.window_ms.end(), r.window_ms.begin(),
                         r.window_ms.end());
    out.write_ms.insert(out.write_ms.end(), r.write_ms.begin(),
                        r.write_ms.end());
    out.submitted += r.submitted;
    out.ok += r.ok;
    out.rejected += r.rejected;
    out.errors += r.errors;
    out.writes += r.writes;
    out.write_failures += r.write_failures;
    out.mismatches += CountOracleMismatches(server, c.sample);
    out.oracle_checked += c.sample.size();
  }
  return out;
}

// Folds one load phase into the run's attempted/failed accounting.
void Account(const LoadResult& r, Report* report) {
  report->attempted += r.submitted + r.writes;
  uint64_t failed = r.rejected + r.errors + r.mismatches + r.write_failures;
  report->failed += failed;
  if (failed > 0) {
    report->Fail(std::to_string(r.rejected) + " rejected, " +
                 std::to_string(r.errors) + " errors, " +
                 std::to_string(r.mismatches) + " oracle mismatches, " +
                 std::to_string(r.write_failures) + " failed writes");
  }
}

// One line per load phase, with the sample count behind each figure.
void PrintLoad(const char* phase, const LoadResult& r) {
  double p99 = TailSupported(r.window_ms.size(), 0.99)
                   ? Percentile(r.window_ms, 0.99)
                   : std::nan("");
  std::printf(
      "%s: windows=%zu window_p50_ms=%.4f window_p99_ms=%.4f rps=%.1f "
      "writes=%llu write_p50_ms=%.3f oracle_checked=%llu "
      "oracle_mismatches=%llu rejected=%llu errors=%llu wall_s=%.2f\n",
      phase, r.window_ms.size(), Median(r.window_ms), p99,
      static_cast<double>(r.ok) / r.wall_s,
      static_cast<unsigned long long>(r.writes),
      r.write_ms.empty() ? 0.0 : Median(r.write_ms),
      static_cast<unsigned long long>(r.oracle_checked),
      static_cast<unsigned long long>(r.mismatches),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.errors), r.wall_s);
}

// Median microseconds of one sequential request, over `calls` requests.
double ProbeUs(serve::CurationServer* server, const WindowSpec& spec,
               RequestKind kind, size_t calls, Rng* rng, SpanRecorder* rec,
               const char* name) {
  ScopedSpan span(rec, name);
  std::vector<double> us;
  for (size_t i = 0; i < calls; ++i) {
    ServeRequest r;
    r.kind = kind;
    r.session = spec.session;
    r.tenant = spec.tenant;
    r.row_a = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(spec.rows) - 1));
    r.row_b = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(spec.rows) - 1));
    r.col = kind == RequestKind::kOutlierCheck
                ? spec.numeric_col
                : static_cast<size_t>(
                      rng->UniformInt(0, static_cast<int64_t>(spec.cols) - 1));
    r.k = 5;
    auto t0 = Clock::now();
    ServeResponse resp = server->ExecuteSequential(r);
    us.push_back(SecondsSince(t0) * 1e6);
    if (resp.status != ServeStatus::kOk) {
      Fatal(name, Status::Internal(resp.message));
    }
  }
  return Median(us);
}

// Direct calls into the session layer, and a replica of Refresh()'s
// parts. Returns false when a replica disagrees with the server.
bool TimeSessionLayers(Served* s, const WindowSpec& spec,
                       const std::vector<CellWrite>& log, uint64_t seed,
                       SpanRecorder* rec, Report* report) {
  serve::CurationServer* server = s->server.get();
  Rng rng(seed + 77);
  bool ok = true;
  report->Set("serve.session.score_pair_us",
              ProbeUs(server, spec, RequestKind::kScorePair, 2000, &rng, rec,
                      "serve.session.score_pair"),
              "us");
  report->Set("serve.session.impute_us",
              ProbeUs(server, spec, RequestKind::kImpute, 300, &rng, rec,
                      "serve.session.impute"),
              "us");
  report->Set("serve.session.outlier_check_us",
              ProbeUs(server, spec, RequestKind::kOutlierCheck, 2000, &rng,
                      rec, "serve.session.outlier_check"),
              "us");
  report->Set("serve.session.nearest_rows_us",
              ProbeUs(server, spec, RequestKind::kNearestRows, 1000, &rng,
                      rec, "serve.session.nearest_rows"),
              "us");

  // One batched forward over batch_max score requests, per request, and
  // held byte-identical to the sequential path.
  std::shared_ptr<serve::Session> session = server->FindSession(spec.session);
  size_t batch = server->config().batch_max;
  WindowSpec score = spec;
  score.mixed = false;
  score.size = batch;
  std::vector<double> batch_us;
  {
    ScopedSpan span(rec, "serve.session.score_batch");
    for (int i = 0; i < 200; ++i) {
      std::vector<ServeRequest> reqs = MakeWindow(score, &rng);
      std::vector<const ServeRequest*> ptrs;
      for (const ServeRequest& r : reqs) ptrs.push_back(&r);
      auto t0 = Clock::now();
      std::vector<ServeResponse> out = session->ExecuteBatch(ptrs);
      batch_us.push_back(SecondsSince(t0) * 1e6 / static_cast<double>(batch));
      for (size_t j = 0; j < reqs.size(); ++j) {
        if (!(out[j] == server->ExecuteSequential(reqs[j]))) ok = false;
      }
    }
  }
  report->Set("serve.session.score_batch_us", Median(batch_us), "us");

  std::vector<double> refresh_ms;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(rec, "serve.session.refresh");
    auto t0 = Clock::now();
    Status st = server->RefreshSession(spec.session);
    refresh_ms.push_back(SecondsSince(t0) * 1e3);
    if (!st.ok()) Fatal("RefreshSession", st);
  }
  report->Set("serve.session.refresh_ms", Median(refresh_ms), "ms");

  // Refresh() rebuilt from outside: the encoder fit at build time
  // re-encodes the updated table, the row store is overwritten and its
  // ANN index rebuilt, and the KNN imputer re-fit.
  const Dataset& d = s->data.front();
  data::Table table = d.table;
  if (!d.path.empty()) {
    table = data::OpenTableFile(d.path).ValueOrDie();
  }
  cleaning::TableEncoder enc;
  enc.Fit(table);
  std::vector<std::vector<float>> encoded = enc.EncodeAll(table);
  embedding::EmbeddingStore store(enc.dim());
  for (size_t i = 0; i < encoded.size(); ++i) {
    (void)store.Add("row:" + std::to_string(i), encoded[i]);
  }
  (void)store.EnableAnn();
  for (const CellWrite& w : log) table.Set(w.row, w.col, w.value);
  {
    ScopedSpan span(rec, "cleaning.encode_all_ms");
    encoded = enc.EncodeAll(table);
  }
  {
    ScopedSpan span(rec, "embedding.store_add_ms");
    for (size_t i = 0; i < encoded.size(); ++i) {
      (void)store.Add("row:" + std::to_string(i), encoded[i]);
    }
  }
  {
    ScopedSpan span(rec, "ann.rebuild_ms");
    (void)store.RebuildAnn();
  }
  {
    ScopedSpan span(rec, "cleaning.knn_fit_ms");
    cleaning::KnnImputer knn(server->config().session.knn_k);
    knn.Fit(table);
  }
  for (const char* name : {"cleaning.encode_all_ms", "embedding.store_add_ms",
                           "ann.rebuild_ms", "cleaning.knn_fit_ms"}) {
    report->Set(name, rec->TotalMs(name), "ms");
  }
  report->Set("embedding.resident_bytes",
              static_cast<double>(store.ResidentBytes()), "bytes");

  // The replica's neighbours must be the session's.
  for (int i = 0; i < 50; ++i) {
    ServeRequest r;
    r.kind = RequestKind::kNearestRows;
    r.session = spec.session;
    r.row_a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(spec.rows) - 1));
    r.k = 5;
    ServeResponse resp = server->ExecuteSequential(r);
    auto mine = store.Nearest("row:" + std::to_string(r.row_a), r.k);
    if (!mine.ok() || mine.ValueOrDie().size() != resp.neighbors.size()) {
      ok = false;
      continue;
    }
    for (size_t j = 0; j < resp.neighbors.size(); ++j) {
      const embedding::Neighbor& nb = mine.ValueOrDie()[j];
      if (nb.key != "row:" + std::to_string(resp.neighbors[j].row) ||
          nb.similarity != resp.neighbors[j].similarity) {
        ok = false;
      }
    }
  }
  return ok;
}

// Quantile of the values a registry histogram recorded since `q` was
// constructed.
double SinceQuantile(obs::SlidingQuantile* q, double p) {
  double v = q->Quantile(p);
  return std::isnan(v) ? 0.0 : v;
}

}  // namespace

std::vector<ServeRequest> MakeWindow(const WindowSpec& spec, Rng* rng) {
  auto row = [&] {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(spec.rows) - 1));
  };
  std::vector<ServeRequest> reqs(spec.size);
  for (size_t i = 0; i < spec.size; ++i) {
    ServeRequest& r = reqs[i];
    r.session = spec.session;
    r.tenant = spec.tenant;
    r.kind = spec.mixed ? static_cast<RequestKind>(i % 4)
                        : RequestKind::kScorePair;
    r.row_a = row();
    switch (r.kind) {
      case RequestKind::kScorePair:
        r.row_b = row();
        break;
      case RequestKind::kImpute:
        r.col = static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(spec.cols) - 1));
        break;
      case RequestKind::kOutlierCheck:
        r.col = spec.numeric_col;
        break;
      case RequestKind::kNearestRows:
        r.k = 5;
        break;
    }
  }
  if (spec.mixed) {
    for (size_t i = reqs.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(reqs[i - 1], reqs[j]);
    }
  }
  return reqs;
}

size_t CountOracleMismatches(serve::CurationServer* server,
                             const Sample& sample) {
  size_t bad = 0;
  for (const auto& [req, resp] : sample) {
    if (!(server->ExecuteSequential(req) == resp)) ++bad;
  }
  return bad;
}

void RunServe(const Options& opt, Report* report) {
  bool mixed = opt.workload == "serve_mixed_rw";
  std::vector<double> setup_s;
  Served s;
  for (int i = 0; i < (mixed ? kMixedSetupReps : kScoreSetupReps); ++i) {
    s = Served();  // the previous server stops before the next set-up
    auto t0 = Clock::now();
    s = SetUp(opt, mixed);
    setup_s.push_back(SecondsSince(t0));
  }
  WindowSpec specs[2];
  for (size_t c = 0; c < 2; ++c) {
    const Dataset& d = s.data[c % s.data.size()];
    specs[c].session = d.session;
    specs[c].tenant = "tenant" + std::to_string(c);
    specs[c].rows = d.table.num_rows();
    specs[c].cols = d.table.num_columns();
    specs[c].numeric_col = NumericColumn(d.table);
    specs[c].mixed = mixed;
  }
  std::vector<CellWrite> log;

  if (!opt.trace) {
    LoadResult r = RunLoad(&s, specs, opt.seed, opt.seconds, mixed, &log,
                           nullptr);
    PrintLoad(opt.workload.c_str(), r);
    Account(r, report);
    // A client-visible operation is a window or, on serve_mixed_rw, a
    // write. Counting writes makes a slower refresh raise the mean even
    // though the other tenant speeds up while it runs alone.
    std::vector<double> ops = r.window_ms;
    ops.insert(ops.end(), r.write_ms.begin(), r.write_ms.end());
    report->Set("op_mean_ms", Mean(ops), "ms");
    report->Set("throughput_per_s", static_cast<double>(r.ok) / r.wall_s,
                "1/s");
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  SpanRecorder main_rec;
  TimeSetupLayers(opt, &s, &main_rec);
  for (const char* name : {"data.write_adct_ms", "data.open_adct_ms",
                           "serve.fingerprint_ms", "serve.session.build_ms"}) {
    report->Set(name, main_rec.TotalMs(name), "ms");
  }

  // Half the time untraced, half with a span around every window and
  // write; the ratio of mean window latencies is the tracing overhead.
  LoadResult plain = RunLoad(&s, specs, opt.seed, opt.seconds / 2, mixed,
                             &log, nullptr);
  PrintLoad("untraced", plain);
  Account(plain, report);

  auto& reg = obs::MetricsRegistry::Global();
  obs::SlidingQuantile latency(reg.GetHistogram("serve.latency_us"), 1);
  obs::SlidingQuantile wait(reg.GetHistogram("serve.queue.wait_us"), 1);
  serve::CurationServer::Stats before = s.server->stats();
  SpanRecorder client_recs[2];
  SpanRecorder* recs[2] = {&client_recs[0], &client_recs[1]};
  LoadResult traced = RunLoad(&s, specs, opt.seed + 1, opt.seconds / 2, mixed,
                              &log, recs);
  PrintLoad("traced", traced);
  Account(traced, report);
  latency.Tick();
  wait.Tick();
  serve::CurationServer::Stats after = s.server->stats();
  serve::CurationServer::DebugSnapshot snap = s.server->GetDebugSnapshot();

  report->Set("serve.server.latency_p50_us", SinceQuantile(&latency, 0.5),
              "us");
  report->Set("serve.server.latency_p99_us", SinceQuantile(&latency, 0.99),
              "us");
  report->Set("serve.server.queue_wait_p50_us", SinceQuantile(&wait, 0.5),
              "us");
  report->Set("serve.server.queue_wait_p99_us", SinceQuantile(&wait, 0.99),
              "us");
  uint64_t batches = after.batches - before.batches;
  report->Set("serve.server.batches", static_cast<double>(batches), "count");
  report->Set("serve.server.mean_batch",
              batches == 0 ? 0.0
                           : static_cast<double>(after.completed -
                                                 before.completed) /
                                 static_cast<double>(batches),
              "count");
  report->Set("serve.server.rejects",
              static_cast<double>(
                  after.rejected_queue_full + after.rejected_tenant_cap -
                  before.rejected_queue_full - before.rejected_tenant_cap),
              "count");
  report->Set("serve.cache.hits", static_cast<double>(snap.session_hits),
              "count");
  report->Set("serve.cache.misses", static_cast<double>(snap.session_misses),
              "count");
  report->Set("serve.cache.evictions",
              static_cast<double>(snap.session_evictions), "count");
  report->Set("serve.window_p50_ms", Median(traced.window_ms), "ms");
  if (TailSupported(traced.window_ms.size(), 0.99)) {
    report->Set("serve.window_p99_ms", Percentile(traced.window_ms, 0.99),
                "ms");
  }
  if (!traced.write_ms.empty()) {
    report->Set("serve.write_p50_ms", Median(traced.write_ms), "ms");
  }
  // Means, not medians: the writer's pauses make the window latencies
  // bimodal, and a median near the split jumps between the modes.
  report->Set("obs.trace_overhead_frac",
              Mean(traced.window_ms) / Mean(plain.window_ms), "ratio");

  bool replica_ok =
      TimeSessionLayers(&s, specs[0], log, opt.seed, &main_rec, report);
  report->Set("core.replica_ok", replica_ok ? 1.0 : 0.0, "count");
  if (!replica_ok) {
    std::fprintf(stderr, "perfbench: session replica differs from server\n");
  }
  WriteChromeTrace(opt.workdir + "/trace_" + opt.workload + ".json",
                   {&main_rec, recs[0], recs[1]});
}

}  // namespace perfbench
