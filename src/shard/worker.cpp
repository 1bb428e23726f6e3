#include "shard/worker.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "robust/supervisor.h"
#include "util/env.h"
#include "util/logging.h"

namespace bd::shard {

namespace {
using WorkerLock =
    std::unique_lock<runtime::OrderedMutex<runtime::LockRank::kShardWorker>>;
}

std::optional<ShardConfig> shard_config_from_env() {
  const std::string ledger = env_string("BDPROTO_SHARD_LEDGER").value_or("");
  if (ledger.empty()) return std::nullopt;
  ShardConfig config;
  config.ledger_path = ledger;
  config.worker_id = env_string("BDPROTO_SHARD_WORKER").value_or("w1");
  config.lease_ttl_seconds =
      env_double("BDPROTO_SHARD_TTL").value_or(config.lease_ttl_seconds);
  return config;
}

WorkerSession::WorkerSession(const ShardConfig& config)
    : config_(config), ledger_(config.ledger_path) {
  heartbeat_ = std::thread([this] { heartbeat_main(); });
}

WorkerSession::~WorkerSession() {
  {
    WorkerLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
}

void WorkerSession::set_held_key(const std::string& key) {
  {
    WorkerLock lock(mutex_);
    held_key_ = key;
  }
  cv_.notify_all();
}

void WorkerSession::heartbeat_main() {
  // Beat well inside the TTL so one missed beat (scheduling hiccup,
  // fsync stall) never expires a live lease.
  const auto interval = std::chrono::milliseconds(
      std::max<std::int64_t>(config_.ttl_ms() / 4, 10));
  WorkerLock lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock, interval);
    if (stop_) break;
    if (held_key_.empty()) continue;
    LedgerRecord beat;
    beat.op = LedgerOp::kHeartbeat;
    beat.key = held_key_;
    beat.worker = config_.worker_id;
    beat.ts_ms = now_ms();
    // Worker mutex (rank 42) is held across the ledger append (rank 44):
    // ascending, and it keeps the beat's key stable against a concurrent
    // done/claim transition on the main thread.
    ledger_.append(beat);
    BD_OBS_COUNT("shard.heartbeats", 1);
  }
}

WorkerStats WorkerSession::run_all(const std::vector<std::string>& keys,
                                   const RunCell& run_cell,
                                   const QuarantineCell& quarantine_cell) {
  WorkerStats stats;
  auto& faults = robust::FaultInjector::instance();
  const std::int64_t ttl_ms = config_.ttl_ms();
  const int quarantine_strikes =
      robust::Supervisor::instance().config().quarantine_strikes;
  const auto idle = std::chrono::duration<double>(
      std::max(config_.poll_interval_seconds, 0.001));

  for (;;) {
    ledger_.poll();
    bool all_done = true;
    std::size_t pick = keys.size();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (ledger_.done(keys[i])) continue;
      all_done = false;
      if (ledger_.claimable(keys[i], ttl_ms)) {
        pick = i;
        break;
      }
    }
    if (all_done) break;
    if (pick == keys.size()) {
      // Every remaining cell is leased to a live worker: idle until one
      // finishes or an abandoned lease expires.
      std::this_thread::sleep_for(idle);
      continue;
    }

    const std::string& key = keys[pick];
    const int strikes = ledger_.strikes(key, ttl_ms);
    bool stole = false;
    if (!ledger_.try_claim(key, config_.worker_id, ttl_ms, &stole)) {
      continue;  // raced out: rescan
    }
    ++stats.claimed;
    if (stole) ++stats.stolen;
    set_held_key(key);

    // Chaos hook: a SIGKILL here models a worker dying mid-cell — the
    // claim is durable, the done record will never come, and the lease
    // must expire and be stolen.
    faults.fire_crash_worker("shard cell " + key);

    LedgerRecord done;
    done.op = LedgerOp::kDone;
    done.key = key;
    done.worker = config_.worker_id;
    try {
      if (strikes >= quarantine_strikes) {
        const std::string reason =
            "quarantined after " + std::to_string(strikes) +
            " lost leases (workers died or abandoned mid-cell)";
        BD_LOG(Warn) << "shard: " << config_.worker_id << " cell " << key
                     << ": " << reason;
        quarantine_cell(pick, reason);
        done.note = "quarantined";
        ++stats.quarantined;
      } else {
        BD_OBS_SPAN("shard.cell");
        run_cell(pick);
        ++stats.completed;
      }
    } catch (...) {
      // Give the lease back so another worker retries immediately
      // instead of waiting out the TTL; the failure still propagates
      // and ends this worker.
      LedgerRecord abandon;
      abandon.op = LedgerOp::kAbandon;
      abandon.key = key;
      abandon.worker = config_.worker_id;
      abandon.ts_ms = now_ms();
      abandon.note = "cell execution failed";
      ledger_.append(abandon);
      set_held_key("");
      throw;
    }
    done.ts_ms = now_ms();
    ledger_.append(done);
    BD_OBS_COUNT("shard.cells_done", 1);
    set_held_key("");
  }
  return stats;
}

}  // namespace bd::shard
