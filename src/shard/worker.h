// Shard worker: one process's claim → run → done loop.
//
// A worker is handed the table's full cell list in canonical order (every
// worker derives the identical list from the identical spec + seed) and
// repeatedly claims the first claimable cell through the lease ledger.
// While a cell runs, a background thread heartbeats the lease; a worker
// that is SIGKILLed, hung, or OOM'd simply stops heartbeating, its lease
// expires after the TTL, and any surviving worker steals the cell — so a
// dead worker costs at most its in-flight cell. A cell whose successive
// holders keep dying accumulates strikes in the ledger; once they reach
// robust::Supervisor's quarantine_strikes (default 3; the shard layer has
// no threshold of its own) the next claimer records the cell as degraded
// instead of executing it: the supervisor's quarantine policy, lifted
// across process boundaries.
//
// Worker mode is activated per process by the coordinator via env:
//   BDPROTO_SHARD_LEDGER  lease ledger path (presence enables the mode)
//   BDPROTO_SHARD_WORKER  this worker's id ("w1", "w2", ...)
//   BDPROTO_SHARD_TTL     lease TTL in seconds (default 5)
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "runtime/ordered_mutex.h"
#include "shard/ledger.h"

namespace bd::shard {

struct ShardConfig {
  std::string ledger_path;
  std::string worker_id;
  double lease_ttl_seconds = 5.0;
  /// Idle re-scan interval while other workers hold the remaining cells.
  double poll_interval_seconds = 0.05;

  std::int64_t ttl_ms() const {
    return static_cast<std::int64_t>(lease_ttl_seconds * 1000.0);
  }
};

/// Worker config from the BDPROTO_SHARD_* env, or nullopt when this
/// process is not a shard worker (empty/unset ledger path).
std::optional<ShardConfig> shard_config_from_env();

struct WorkerStats {
  std::int64_t claimed = 0;      // cells this worker won a lease on
  std::int64_t stolen = 0;       // of those, leases taken from dead holders
  std::int64_t completed = 0;    // cells executed to a durable result
  std::int64_t quarantined = 0;  // cells recorded degraded on strikes
};

class WorkerSession {
 public:
  explicit WorkerSession(const ShardConfig& config);
  ~WorkerSession();
  WorkerSession(const WorkerSession&) = delete;
  WorkerSession& operator=(const WorkerSession&) = delete;

  /// Executes cell `index`; must make the result durable (journal append)
  /// before returning — the session writes the done record right after.
  using RunCell = std::function<void(std::size_t index)>;
  /// Records a degraded result for cell `index` (quarantined: `reason`).
  using QuarantineCell =
      std::function<void(std::size_t index, const std::string& reason)>;

  /// Claims and runs cells until every key in `keys` has a done record in
  /// the ledger (whether written by this worker or another). Exceptions
  /// from run_cell abandon the lease (so another worker can retry the
  /// cell immediately) and propagate.
  WorkerStats run_all(const std::vector<std::string>& keys,
                      const RunCell& run_cell,
                      const QuarantineCell& quarantine_cell);

  const ShardConfig& config() const { return config_; }
  LeaseLedger& ledger() { return ledger_; }

 private:
  void heartbeat_main();
  void set_held_key(const std::string& key);

  ShardConfig config_;
  LeaseLedger ledger_;
  mutable runtime::OrderedMutex<runtime::LockRank::kShardWorker> mutex_;
  std::condition_variable_any cv_;
  std::string held_key_;  // lease being heartbeat ("" = none)
  bool stop_ = false;
  std::thread heartbeat_;
};

}  // namespace bd::shard
