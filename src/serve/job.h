// Sanitization jobs: the request schema, its validation, backbone cache
// keying, lifecycle states and the journal encoding that makes a restarted
// daemon report (or resume) in-flight jobs deterministically.
//
// Backbone cache keying: every field of a JobSpec that shapes the trained
// backbone (dataset, arch, attack, seed, data sizes, attack-training
// budget, width) is folded into a canonical signature string and hashed
// with the PR 2 FNV-1a stable hash — the same mechanism that keys the run
// journal, so cache keys are stable across processes and platforms. Jobs
// that supply a poisoned checkpoint additionally fold in the checkpoint's
// content identity (entry names/shapes + content CRC) so two different
// weight files never collide on one cache entry. `bdctl verify` prints the
// same checkpoint key, letting operators correlate daemon cache traffic
// with files on disk.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "eval/runner.h"
#include "nn/checkpoint.h"
#include "robust/journal.h"
#include "util/json.h"

namespace bd::serve {

/// Invalid request content (unknown enum value, out-of-range budget,
/// unreadable checkpoint). The protocol layer maps it to a structured
/// `bad_request` error; it never escapes the daemon.
class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One sanitization request: which backdoored backbone to (re)use, which
/// defense to run against it, and the clean-data budget. Zero-valued
/// budget fields defer to default_scale(dataset).
struct JobSpec {
  std::string tenant = "default";
  /// Optional client-supplied idempotency key ("client_id" in the submit
  /// request). A resubmit with the same (tenant, client_id) returns the
  /// existing job instead of enqueueing a duplicate — journaled, so the
  /// dedup survives a daemon restart. Empty = no dedup.
  std::string client_job_id;
  std::string dataset = "cifar";
  std::string arch = "preactresnet";
  std::string attack = "badnet";
  std::string defense = "gradprune";
  std::int64_t spc = 10;
  std::uint64_t seed = 1234;
  // Backbone/defense budget overrides (0 = scale default).
  std::int64_t width = 0;
  std::int64_t attack_epochs = 0;
  std::int64_t prune_rounds = 0;
  std::int64_t finetune_epochs = 0;
  std::int64_t train_per_class = 0;
  std::int64_t test_per_class = 0;
  /// Optional poisoned checkpoint whose weights replace the synthetic
  /// backbone's trained state (the "here is a poisoned checkpoint" mode).
  std::string model_path;
  /// Optional path the sanitized checkpoint is written to on success.
  std::string out_path;
};

/// Parses and validates the "job" object of a submit request; `tenant` is
/// the (already validated) top-level tenant. Throws BadRequest.
JobSpec parse_job_spec(const Json& job, const std::string& tenant);

/// Validates a tenant name (non-empty, <= 64 chars, [A-Za-z0-9._-]).
/// Throws BadRequest.
void validate_tenant(const std::string& tenant);

/// The experiment scale a job runs at: default_scale(dataset) with the
/// spec's non-zero budget overrides applied and trials forced to 1.
eval::ExperimentScale job_scale(const JobSpec& spec);

/// Canonical signature of everything that shapes the trained backbone.
std::string backbone_signature(const JobSpec& spec);

/// FNV-1a cache key for the backbone LRU. For specs with a model_path the
/// checkpoint is inspected (throws BadRequest when missing/corrupt) and
/// its content key is folded in.
std::string backbone_cache_key(const JobSpec& spec);

/// Content identity of a checkpoint file: FNV-1a over the entry names,
/// shapes and the content CRC. Printed by `bdctl verify` and folded into
/// backbone_cache_key() for checkpoint-backed jobs.
std::string checkpoint_cache_key(const nn::CheckpointInfo& info);

enum class JobState {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  /// Journaled as queued/running by a previous daemon incarnation that
  /// never got to finish it (reported on restart unless resumed).
  kInterrupted,
};

const char* job_state_name(JobState state);
/// False (leaving `out` untouched) on an unknown name.
bool parse_job_state(const std::string& name, JobState& out);
bool job_state_terminal(JobState state);

/// Everything the daemon knows about one job; journaled on every state
/// transition under key "job|<id>" (the latest record wins on reload).
struct JobRecord {
  std::string id;  // zero-padded ("j000042") so map order == submit order
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::string cache_key;  // backbone LRU key
  bool cache_hit = false;
  std::int64_t attempts = 0;
  std::string error;  // failure/cancellation/interruption reason
  bool have_metrics = false;
  eval::BackdoorMetrics metrics;
  double seconds = 0.0;  // defense wall-clock
  std::int64_t pruned_units = 0;
};

robust::JournalFields encode_job(const JobRecord& record);
/// Tolerant decode (missing fields keep their defaults); `key` must be the
/// journal key the fields were stored under ("job|<id>").
JobRecord decode_job(const std::string& key,
                     const robust::JournalFields& fields);

/// Job as a JSON object for status/jobs responses.
std::string job_json(const JobRecord& record);

}  // namespace bd::serve
