// bdbench: the repository's end-to-end benchmark program.
//
//   bdbench --workload cell-1t|cell-mt|serve-mix --seed N --seconds S
//           --trace 0|1 [--profile paper|tiny] [--work-dir DIR]
//           [--build-info JSON]
//   bdbench vet --what cell|serve-preactresnet|serve-vgg --seed N
//
// perfbench/run.py builds this binary and is the entry point; see
// perfbench/README.md.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/gate.h"
#include "workloads.h"

namespace {

using namespace bdbench;

/// Trains one candidate at 1 thread and prints whether it qualifies for
/// a pool (see pools.cpp).
int vet(const std::string& what, std::uint64_t seed) {
  set_runtime_threads(1);
  CellSpec spec;
  spec.seed = seed;
  Tracer off(false);
  if (what == "cell") {
    const CellOutcome c = run_cell(spec, off, "vet");
    bool ok = c.baseline.asr >= 90.0;
    std::cout << "VET cell " << seed << " asr " << num(c.baseline.asr) << " pruned";
    for (const TrialOutcome& t : c.trials) {
      ok = ok && t.info.pruned_units >= 1;
      std::cout << " " << t.info.pruned_units;
    }
    std::cout << " cell_s " << num(c.cell_s) << " pass " << ok << "\n";
    return 0;
  }
  if (what == "serve-preactresnet" || what == "serve-vgg") {
    spec.arch = what.substr(6);
    const auto bd = bd::eval::prepare_backdoored_model("cifar", spec.arch, spec.attack,
                                                       cell_scale(spec), seed);
    std::cout << "VET " << what << " " << seed << " asr " << num(bd.baseline.asr)
              << " pass " << (bd.baseline.asr >= 90.0) << "\n";
    return 0;
  }
  throw std::invalid_argument("vet: unknown --what " + what);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string build_info = "{}";
  std::string vet_what;
  bool vet_mode = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "vet") {
        vet_mode = true;
      } else if (a == "--workload") {
        opts.workload = value();
      } else if (a == "--seed") {
        opts.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (a == "--trace") {
        opts.trace = value() != "0";
      } else if (a == "--profile") {
        opts.profile = value();
      } else if (a == "--work-dir") {
        opts.work_dir = value();
      } else if (a == "--build-info") {
        build_info = value();
      } else if (a == "--what") {
        vet_what = value();
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    // The repository's own probes stay off: every number comes from the
    // benchmark's timers around public calls.
    bd::obs::set_metrics_enabled(false);
    bd::obs::set_trace_enabled(false);
    if (vet_mode) return vet(vet_what, opts.seed);
    if (opts.workload == "cell-1t" || opts.workload == "cell-mt") {
      return run_cell_workload(opts, build_info);
    }
    if (opts.workload == "serve-mix") return run_serve_mix(opts, build_info);
    throw std::invalid_argument("unknown --workload '" + opts.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "bdbench: " << e.what() << "\n";
    return 2;
  }
}
