// perfbench_runner: runs one benchmark workload in this process and
// prints its result as the last stdout line. run.py builds it, clears
// inherited AUTODC_* knobs, pins AUTODC_NUM_THREADS, and launches it:
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/ann/hnsw.h"
#include "src/common/parallel.h"
#include "src/nn/kernels.h"

extern char** environ;

namespace {

using perfbench::Options;

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = val;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      opt->trace = std::strcmp(val, "1") == 0;
    } else if (key == "--workdir") {
      opt->workdir = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && opt->seconds > 0 &&
         (opt->workload == "pipeline_fig1" || opt->workload == "serve_score" ||
          opt->workload == "serve_mixed_rw");
}

// The resolved configuration a number was produced under.
void PrintEnvironment(const Options& opt) {
  autodc::serve::ServeConfig sc = autodc::serve::ServeConfigFromEnv();
  std::printf(
      "environment: workload=%s seed=%llu seconds=%g trace=%d "
      "num_threads=%zu nproc=%u isa=%s ann_env=%d serve.threads=%zu "
      "serve.queue_cap=%zu serve.batch_max=%zu serve.batch_wait_us=%zu "
      "serve.tenant_cap=%zu serve.sessions=%zu serve.trace_sample=%g\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, autodc::NumThreads(),
      std::thread::hardware_concurrency(),
      autodc::nn::kernels::ActiveIsaName(),
      autodc::ann::AnnEnvEnabled() ? 1 : 0, sc.threads, sc.queue_cap,
      sc.batch_max, sc.batch_wait_us, sc.tenant_inflight_cap,
      sc.session_capacity, sc.trace_sample);
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AUTODC_", 7) == 0) {
      std::printf("environment: %s\n", *e);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload "
                 "pipeline_fig1|serve_score|serve_mixed_rw --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  PrintEnvironment(opt);
  perfbench::Report report;
  if (opt.workload == "pipeline_fig1") {
    perfbench::RunPipelineFig1(opt, &report);
  } else {
    perfbench::RunServe(opt, &report);
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
