// Experiment-scale configuration sourced from the environment.
//
// Every experiment binary honours:
//   BDPROTO_MODE=quick|full   (default quick)  - quick shrinks dataset sizes
//                                                and epoch counts so the full
//                                                bench suite runs on one core.
//   BDPROTO_TRIALS=<n>        - overrides trials per setting.
//   BDPROTO_SEED=<n>          - base seed for the whole experiment.
//   BDPROTO_THREADS=<n>       - worker threads for the bd::runtime parallel
//                               engine (default: hardware_concurrency;
//                               1 forces the legacy serial path; clamped
//                               to >= 1).
//
// Supervised execution (see robust/supervisor.h):
//   BDPROTO_DEADLINE=<secs>   - per-attempt wall-clock budget (0/unset: off)
//   BDPROTO_STALL=<secs>      - heartbeat staleness budget (default: the
//                               deadline)
//   BDPROTO_RETRIES=<n>       - retries after a failed attempt (default 2)
//   BDPROTO_FAULTS=<spec>     - deterministic fault injection, e.g.
//                               "hang@2,io_fail@3" (robust/fault_injector.h)
//
// Crash-resumable journaling (see robust/journal.h):
//   BDPROTO_JOURNAL=<path>    - append completed cells to a JSONL journal
//   BDPROTO_RESUME=1          - skip cells already in the journal
//   BDPROTO_JOURNAL_FSYNC=1   - fsync journal/ledger appends (durability
//                               over throughput; default off)
//
// Serve clients (see serve/client.h; the daemon side is configured by the
// `bdctl serve` flags --listen, --conn-cap, --read-deadline and
// --write-deadline):
//   BDPROTO_CONNECT_TIMEOUT=<secs> - client connect budget (default 5)
//   BDPROTO_IO_TIMEOUT=<secs>   - client per-send/recv budget (default 30)
//   BDPROTO_CLIENT_DEADLINE=<secs> - client overall budget for one
//                                 retried request incl. backoff sleeps
//                                 (default 120)
//   BDPROTO_RETRY_BUDGET=<n>    - client retries after the first attempt
//                                 (default 4; retried submits need a
//                                 job.client_id to stay idempotent)
//
// Sharded execution (see shard/worker.h; normally set by `bdctl shard
// run` rather than by hand):
//   BDPROTO_SHARD_LEDGER=<path> - run as a shard worker against this
//                                 lease ledger (empty/unset: normal run)
//   BDPROTO_SHARD_WORKER=<id>   - worker id in ledger records (default w1)
//   BDPROTO_SHARD_TTL=<secs>    - lease expiry; a dead worker's cell is
//                                 stealable this long after its last
//                                 heartbeat (default 5)
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace bd {

enum class RunMode { kQuick, kFull };

/// Current run mode (reads BDPROTO_MODE once; defaults to quick).
RunMode run_mode();

/// True when run_mode() == kFull.
bool full_mode();

/// Environment override helpers.
std::optional<std::string> env_string(const std::string& name);
std::optional<std::int64_t> env_int(const std::string& name);
std::optional<double> env_double(const std::string& name);

/// Trials per experiment setting: BDPROTO_TRIALS if set, otherwise
/// `full_default` in full mode and `quick_default` in quick mode.
int trial_count(int quick_default, int full_default);

/// Base seed for experiments: BDPROTO_SEED if set, otherwise 1234.
std::uint64_t base_seed();

/// Engine thread count: BDPROTO_THREADS if set (clamped to >= 1), otherwise
/// hardware_concurrency (or 1 when that is unknown). Read once and cached;
/// tests override via bd::runtime::set_thread_count() instead of the env.
int thread_count();

/// Picks a scale-dependent value: quick-mode value vs full-mode value.
template <typename T>
T scaled(T quick_value, T full_value) {
  return full_mode() ? full_value : quick_value;
}

}  // namespace bd
