// Table/figure harness shared by the bench binaries.
//
// Each paper table is (dataset, architecture) x attacks x SPC x defenses;
// each figure is the per-trial (ASR, ACC) / (ASR, RA) scatter of the same
// runs. run_table() prints rows in the paper's format (mean ± std over
// trials) plus optional scatter series.
//
// One item executor, two drivers. run_table() derives the canonical work
// list — each attack's baseline item, then that attack's cells, with
// every seed pre-drawn — and one per-item function runs any item: a
// journaled item is read back into its result slot; otherwise the attack
// is prepared (lazily, cached for the most recent attack, so an attack
// whose items are all journaled is never retrained), the cell runs or
// inherits a failed preparation, and the result is appended to the
// journal before the next item starts.
//
//   * Local driver (default): runs every item in order, then renders the
//     table, the degraded summary and the scatter from the result slots.
//   * Shard-worker driver (BDPROTO_SHARD_LEDGER set, or spec.shard filled
//     in): claims items through the crash-resilient lease ledger
//     (shard/ledger.h) and prints worker stats instead of the table. The
//     coordinator's merge pass — a local resume run — renders the table,
//     byte-identically to a single-process run.
//
// Crash resumability: with BDPROTO_JOURNAL=<path> every completed item is
// appended to a JSONL journal keyed by a stable config hash. With
// BDPROTO_RESUME=1 (always on for shard workers) journaled items are
// restored instead of rerun, so a restarted run prints a table
// byte-identical to an uninterrupted one.
//
// Supervised execution: attack preparations, defense trials and journal
// appends run under robust::Supervisor (BDPROTO_DEADLINE / BDPROTO_STALL /
// BDPROTO_RETRIES). A cell whose retry budget is exhausted — or whose
// config or lease is quarantined — is printed as `degraded` in its metric
// columns with the failure reason summarized after the table, while every
// other cell completes; degraded cells journal and resume like healthy
// ones.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "eval/runner.h"
#include "shard/worker.h"

namespace bd::eval {

struct TableSpec {
  std::string title;
  std::string dataset;  // cifar | gtsrb
  std::string arch;     // preactresnet | vgg | efficientnet | mobilenet
  std::vector<std::string> attacks;
  std::vector<std::string> defenses;
  /// Also print per-trial scatter points (figure reproduction).
  bool scatter = false;
  /// Journal file for crash resumability; empty defers to BDPROTO_JOURNAL
  /// (journaling disabled when neither is set).
  std::string journal_path;
  /// Skip journal-completed cells; unset defers to BDPROTO_RESUME. Shard
  /// workers always resume.
  std::optional<bool> resume;
  /// Scale override for tests; unset uses default_scale(dataset).
  std::optional<ExperimentScale> scale;
  /// Run as a shard worker with this config; unset defers to the
  /// BDPROTO_SHARD_* env (shard::shard_config_from_env()).
  std::optional<shard::ShardConfig> shard;
};

struct TableRun {
  std::vector<SettingResult> settings;  // per (attack, spc, defense)
  std::vector<std::pair<std::string, BackdoorMetrics>> baselines;
  std::size_t resumed_cells = 0;   // setting cells restored from the journal
  std::size_t degraded_cells = 0;  // cells (incl. baselines) that failed
  /// Set in shard-worker mode (settings/baselines stay empty there: the
  /// results live in the journal for the coordinator's merge pass).
  std::optional<shard::WorkerStats> worker_stats;
};

/// Runs the sweep and prints the table (and scatter series) to stdout; in
/// shard-worker mode, runs the claimed items and prints worker stats.
TableRun run_table(const TableSpec& spec);

}  // namespace bd::eval
