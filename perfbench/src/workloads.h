// The three workloads (cell-1t, cell-mt, serve-mix) and the pieces they
// share: the pinned cell specification, the library and span-decomposed
// ways of running a cell, the per-layer probes, and an in-process serve
// daemon reached over TCP loopback.
#pragma once

#include <cstdint>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "eval/runner.h"

namespace bd::serve {
class SocketServer;
}

namespace bdbench {

/// Implant gate: every backbone a workload measures a defense on must
/// reach this baseline attack success rate (percent).
constexpr double kImplantAsrPercent = 80.0;

/// Everything that identifies one cell (and one serve backbone). The
/// budget fields are the serve job overrides of default_scale("cifar"), so
/// a cell can also be submitted to the daemon unchanged.
struct CellSpec {
  std::string arch = "preactresnet";
  std::string attack = "bpp";
  std::int64_t train_per_class = 40;
  std::int64_t test_per_class = 20;
  std::int64_t attack_epochs = 3;
  std::int64_t width = 8;
  std::int64_t prune_rounds = 5;
  std::int64_t finetune_epochs = 3;
  std::int64_t spc = 10;
  std::uint64_t seed = 0;
  /// Gate thresholds (the tiny self-test profile cannot implant, so it
  /// sets both to 0 and smoke-tests only the mechanics).
  double implant_asr = kImplantAsrPercent;
  std::int64_t min_pruned = 1;
};

/// The experiment scale of `spec`, computed by serve::job_scale so the
/// library path and the served path run the identical configuration.
bd::eval::ExperimentScale cell_scale(const CellSpec& spec);
/// Defense trials per cell, as in the quick-mode paper tables.
constexpr int kTrialsPerCell = 2;
/// Seed of defense trial `trial`; trial 0 follows the serve daemon's
/// convention, so a served job reproduces it.
std::uint64_t trial_seed(const CellSpec& spec, int trial);
/// The "job" object of a serve submit request for `spec`.
std::string job_json(const CellSpec& spec, const std::string& defense,
                     const std::string& out_path, const std::string& client_id);

/// The cell pinned by `profile` for `seed` (see pools.cpp).
CellSpec pinned_cell(const std::string& profile, std::uint64_t seed);
/// The serve-mix backbone of `arch` at pool position `index`.
CellSpec serve_backbone(const std::string& profile, const std::string& arch,
                        std::uint64_t index);

/// A backdoored backbone plus the poisoned set it was trained on (kept so
/// the per-batch probe runs on the cell's own data).
struct Prepared {
  bd::eval::BackdooredModel bd;
  bd::data::ImageDataset poisoned;
  double train_seconds = 0.0;
};

/// prepare_backdoored_model, decomposed into its public calls with one
/// span per call (bit-identical result; the digest checks it).
std::unique_ptr<Prepared> prepare_traced(const CellSpec& spec, Tracer& tracer);

struct TrialOutcome {
  bd::eval::BackdoorMetrics metrics;
  bd::defense::DefenseResult info;
  std::string digest;  // FNV-1a over metrics, pruned count and final state
  double defense_s = 0.0;
};

struct CellOutcome {
  bd::eval::BackdoorMetrics baseline;
  std::vector<TrialOutcome> trials;
  std::string digest;  // FNV-1a over the baseline and every trial's digest
  double cell_s = 0.0, cpu_s = 0.0;
};

/// One cell: a backbone and kTrialsPerCell Grad-Prune trials on it. With
/// tracing off it calls eval::prepare_backdoored_model and
/// eval::run_sanitization (the body of run_defense_trial, keeping the
/// model for the digest); with tracing on it runs the decomposed
/// equivalents under spans. `prepared_out` (optional) receives the
/// backbone of a traced cell.
CellOutcome run_cell(const CellSpec& spec, Tracer& tracer,
                     const std::string& unit,
                     std::unique_ptr<Prepared>* prepared_out = nullptr);

/// One Grad-Prune trial on an existing backbone.
TrialOutcome run_defense(const CellSpec& spec, const bd::eval::BackdooredModel& bd,
                         int trial, Tracer& tracer);

/// Gate verdicts for one cell ("" when it passes).
std::string gate_failure(const CellSpec& spec, const CellOutcome& cell);

/// Per-layer probes on a prepared backbone: per-batch build / forward /
/// backward / optimizer step over one epoch of the cell's own data, the
/// same epoch through train_classifier, inference, exact MAC count, arena
/// statistics, one score_filters call and checkpoint I/O.
void probe_layers(const CellSpec& spec, const Prepared& prepared,
                  const std::string& work_dir, Report& report);

/// A SocketServer on 127.0.0.1:<ephemeral> run on its own thread.
class LocalServer {
 public:
  LocalServer(std::size_t workers, const std::string& journal_path);
  ~LocalServer();
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;
  int port() const { return port_; }
  /// Drains the queue, stops the daemon and joins its thread.
  void stop();

 private:
  std::unique_ptr<bd::serve::SocketServer> server_;
  std::mutex error_mutex_;
  std::string error_;  // why run() threw, guarded by error_mutex_
  std::atomic<bool> exited_{false};
  std::thread thread_;
  int port_ = 0;
};

/// Submit + wait one job through the wire; returns the terminal job
/// record. `rtt_ms` (optional) collects no-work ping round trips issued
/// while the job runs.
JVal serve_one(WireClient& client, const std::string& tenant,
               const std::string& job, double* submit_ms,
               std::vector<double>* rtt_ms);

int run_cell_workload(const Options& opts, const std::string& build_info);
int run_serve_mix(const Options& opts, const std::string& build_info);

}  // namespace bdbench
