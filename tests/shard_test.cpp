// Sharded-execution tests: lease ledger edge cases (torn final line,
// duplicate claims racing under the fcntl lock, expiry → steal), the
// multi-writer run journal, cross-process quarantine strikes, and the
// headline crash-resilience property — a worker SIGKILLed at every cell
// boundary of a mini-table never changes the merged output by a byte.
//
// Fork discipline: the test pins the thread pool to one thread before any
// fork so no pool threads (and no locks they might hold) exist in the
// children; children redirect stdout/stderr and _exit.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eval/table_bench.h"
#include "robust/fault_injector.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "runtime/thread_pool.h"
#include "shard/coordinator.h"
#include "shard/ledger.h"
#include "shard/lease.h"
#include "shard/worker.h"

namespace bd {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/bd_shard_test_" + name + "_" +
              std::to_string(::getpid())) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

shard::LedgerRecord make_record(shard::LedgerOp op, const std::string& key,
                                const std::string& worker) {
  shard::LedgerRecord r;
  r.op = op;
  r.key = key;
  r.worker = worker;
  r.ts_ms = shard::now_ms();
  return r;
}

// ---------------------------------------------------------------------------
// Lease state machine
// ---------------------------------------------------------------------------

TEST(LeaseTable, ClaimDoneLifecycle) {
  shard::LeaseTable table;
  EXPECT_TRUE(table.claimable("a", 1000, 100));  // never mentioned
  table.apply(make_record(shard::LedgerOp::kClaim, "a", "w1"));
  const shard::LeaseState* state = table.find("a");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->phase, shard::LeaseState::Phase::kLeased);
  EXPECT_EQ(state->holder, "w1");
  table.apply(make_record(shard::LedgerOp::kDone, "a", "w1"));
  EXPECT_TRUE(table.done("a"));
  EXPECT_FALSE(table.claimable("a", shard::now_ms() + 1000000, 1));
}

TEST(LeaseTable, ExpiredLeaseIsClaimableAndStrikes) {
  shard::LeaseTable table;
  shard::LedgerRecord claim =
      make_record(shard::LedgerOp::kClaim, "a", "w1");
  claim.ts_ms = 1000;
  table.apply(claim);
  EXPECT_FALSE(table.claimable("a", 1050, 100));  // lease fresh
  EXPECT_EQ(table.strikes("a", 1050, 100), 0);
  EXPECT_TRUE(table.claimable("a", 1200, 100));  // heartbeat stale
  EXPECT_EQ(table.strikes("a", 1200, 100), 1);   // expired holder counts

  // Heartbeats extend the lease; a stranger's heartbeat does not.
  shard::LedgerRecord beat =
      make_record(shard::LedgerOp::kHeartbeat, "a", "w1");
  beat.ts_ms = 1300;
  table.apply(beat);
  EXPECT_FALSE(table.claimable("a", 1350, 100));
  shard::LedgerRecord stranger =
      make_record(shard::LedgerOp::kHeartbeat, "a", "w9");
  stranger.ts_ms = 5000;
  table.apply(stranger);
  EXPECT_EQ(table.find("a")->last_beat_ms, 1300);
}

TEST(LeaseTable, AbandonReopensAndCountsStrikes) {
  shard::LeaseTable table;
  table.apply(make_record(shard::LedgerOp::kClaim, "a", "w1"));
  table.apply(make_record(shard::LedgerOp::kAbandon, "a", "w1"));
  EXPECT_EQ(table.find("a")->phase, shard::LeaseState::Phase::kOpen);
  EXPECT_TRUE(table.claimable("a", shard::now_ms(), 100000));
  EXPECT_EQ(table.strikes("a", shard::now_ms(), 100000), 1);

  shard::LedgerRecord steal = make_record(shard::LedgerOp::kClaim, "a", "w2");
  steal.steal = true;
  table.apply(steal);
  table.apply(make_record(shard::LedgerOp::kAbandon, "a", "w2"));
  EXPECT_EQ(table.strikes("a", shard::now_ms(), 100000), 3);  // steal + 2 abandons
}

TEST(LeaseTable, RecordsAgainstDoneCellIgnored) {
  shard::LeaseTable table;
  table.apply(make_record(shard::LedgerOp::kClaim, "a", "w1"));
  table.apply(make_record(shard::LedgerOp::kDone, "a", "w1"));
  // A raced-out holder's late records must not resurrect the cell.
  table.apply(make_record(shard::LedgerOp::kClaim, "a", "w2"));
  table.apply(make_record(shard::LedgerOp::kAbandon, "a", "w2"));
  EXPECT_TRUE(table.done("a"));
  EXPECT_EQ(table.find("a")->done_worker, "w1");
}

TEST(LeaseTable, RecordFieldsRoundTrip) {
  shard::LedgerRecord r = make_record(shard::LedgerOp::kClaim, "cell7", "w3");
  r.steal = true;
  r.note = "stolen from w1";
  shard::LedgerRecord back;
  ASSERT_TRUE(
      shard::record_from_fields("cell7", shard::record_to_fields(r), back));
  EXPECT_EQ(back.op, shard::LedgerOp::kClaim);
  EXPECT_EQ(back.worker, "w3");
  EXPECT_EQ(back.ts_ms, r.ts_ms);
  EXPECT_TRUE(back.steal);
  EXPECT_EQ(back.note, "stolen from w1");

  shard::LedgerRecord bad;
  EXPECT_FALSE(shard::record_from_fields(
      "k", {{"op", "launder"}, {"worker", "w1"}, {"ts", "0"}}, bad));
  EXPECT_FALSE(shard::record_from_fields("k", {{"worker", "w1"}}, bad));
}

// ---------------------------------------------------------------------------
// Lease ledger file behavior
// ---------------------------------------------------------------------------

TEST(LeaseLedger, PersistsAndReplays) {
  TempFile file("replay");
  {
    shard::LeaseLedger ledger(file.path());
    ledger.append(make_record(shard::LedgerOp::kClaim, "a", "w1"));
    ledger.append(make_record(shard::LedgerOp::kDone, "a", "w1"));
    ledger.append(make_record(shard::LedgerOp::kClaim, "b", "w1"));
  }
  shard::LeaseLedger reopened(file.path());
  EXPECT_TRUE(reopened.done("a"));
  EXPECT_FALSE(reopened.done("b"));
  const shard::LedgerSummary s = reopened.summarize(1000000);
  EXPECT_EQ(s.cells, 2u);
  EXPECT_EQ(s.done, 1u);
  EXPECT_EQ(s.claims_by_worker.at("w1"), 2);
}

TEST(LeaseLedger, TornFinalLineStaysPendingUntilTerminated) {
  TempFile file("torn");
  {
    shard::LeaseLedger ledger(file.path());
    ledger.append(make_record(shard::LedgerOp::kClaim, "a", "w1"));
  }
  // Simulate a writer killed mid-append: half a record, no newline.
  std::string content = slurp(file.path());
  content += "{\"key\":\"b\",\"fields\":{\"op\":\"cl";
  spit(file.path(), content);

  shard::LeaseLedger ledger(file.path());
  EXPECT_EQ(ledger.summarize(1000000).cells, 1u);
  const shard::LedgerInspection inspection =
      shard::inspect_ledger(file.path());
  EXPECT_TRUE(inspection.torn_tail);
  EXPECT_EQ(inspection.records, 1u);

  // Another writer appends after the torn tail: the fused line is skipped
  // with a warning, the fresh record lands. Self-healing, not fatal.
  shard::LeaseLedger writer(file.path());
  writer.append(make_record(shard::LedgerOp::kClaim, "c", "w2"));
  const shard::LedgerInspection healed = shard::inspect_ledger(file.path());
  EXPECT_EQ(healed.malformed, 1u);
  EXPECT_FALSE(healed.table.claimable("c", shard::now_ms(), 1000000));
}

TEST(LeaseLedger, PollSeesOtherProcessAppends) {
  TempFile file("poll");
  shard::LeaseLedger reader(file.path());
  shard::LeaseLedger writer(file.path());  // stands in for another process
  writer.append(make_record(shard::LedgerOp::kClaim, "a", "w2"));
  writer.append(make_record(shard::LedgerOp::kDone, "a", "w2"));
  EXPECT_FALSE(reader.done("a"));  // not yet polled
  reader.poll();
  EXPECT_TRUE(reader.done("a"));
}

TEST(LeaseLedger, TryClaimRefusesHeldAndStealsExpired) {
  TempFile file("steal");
  shard::LeaseLedger w1(file.path());
  shard::LeaseLedger w2(file.path());

  bool stole = true;
  ASSERT_TRUE(w1.try_claim("a", "w1", /*ttl_ms=*/50, &stole));
  EXPECT_FALSE(stole);
  EXPECT_FALSE(w2.try_claim("a", "w2", 50, &stole));  // held, fresh

  // No heartbeats arrive (the holder is "dead"): after the TTL the lease
  // is stealable and the claim carries the steal flag.
  ::usleep(80 * 1000);
  ASSERT_TRUE(w2.try_claim("a", "w2", 50, &stole));
  EXPECT_TRUE(stole);
  EXPECT_EQ(w2.strikes("a", 50), 1);

  w2.append(make_record(shard::LedgerOp::kDone, "a", "w2"));
  w1.poll();
  EXPECT_TRUE(w1.done("a"));
  EXPECT_FALSE(w1.try_claim("a", "w1", 50, &stole));  // done is terminal
}

// Duplicate claims racing from separate processes: fcntl locks are
// per-process, so only a real fork exercises the claim serialization.
TEST(LeaseLedger, ForkedClaimRaceAdmitsExactlyOneWinner) {
  runtime::set_thread_count(1);
  TempFile file("race");
  {
    shard::LeaseLedger init(file.path());  // create the file
  }

  constexpr int kRacers = 4;
  std::vector<pid_t> children;
  for (int i = 0; i < kRacers; ++i) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: claim the same key as fast as possible, then exit with a
      // code encoding whether the claim was won.
      int won = 0;
      {
        shard::LeaseLedger ledger(file.path());
        bool stole = false;
        won = ledger.try_claim("contested", "w" + std::to_string(i + 1),
                               /*ttl_ms=*/60 * 1000, &stole)
                  ? 1
                  : 0;
      }
      ::_exit(won);
    }
    children.push_back(pid);
  }
  int winners = 0;
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    winners += WEXITSTATUS(status);
  }
  EXPECT_EQ(winners, 1);

  const shard::LedgerInspection inspection =
      shard::inspect_ledger(file.path());
  const shard::LeaseState* state = inspection.table.find("contested");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->claims, 1);
  EXPECT_EQ(state->steals, 0);
}

// ---------------------------------------------------------------------------
// Multi-writer run journal (satellite: O_APPEND + single write per entry)
// ---------------------------------------------------------------------------

TEST(JournalMultiWriter, ConcurrentAppendsFromForksAllSurvive) {
  runtime::set_thread_count(1);
  TempFile file("journal_mw");
  constexpr int kWriters = 4;
  constexpr int kEntries = 25;

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      robust::RunJournal journal(file.path());
      for (int i = 0; i < kEntries; ++i) {
        journal.record(
            "w" + std::to_string(w) + "_" + std::to_string(i),
            {{"writer", std::to_string(w)}, {"seq", std::to_string(i)}});
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // Every line parses (no interleaved partial lines) and every entry from
  // every writer is present.
  robust::RunJournal merged(file.path());
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kWriters * kEntries));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kEntries; ++i) {
      const robust::JournalFields* fields =
          merged.find("w" + std::to_string(w) + "_" + std::to_string(i));
      ASSERT_NE(fields, nullptr);
      EXPECT_EQ(fields->at("seq"), std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded table execution
// ---------------------------------------------------------------------------

eval::ExperimentScale micro_scale() {
  eval::ExperimentScale s;
  s.data.height = s.data.width = 8;
  s.data.train_per_class = 8;
  s.data.test_per_class = 2;
  s.attack_train.epochs = 1;
  s.base_width = 8;
  s.spc_settings = {2, 5};
  s.trials = 1;
  s.defense_max_epochs = 2;
  s.prune_max_rounds = 3;
  s.anp_iterations = 2;
  s.nad_teacher_epochs = 1;
  s.nad_distill_epochs = 1;
  return s;
}

eval::TableSpec mini_spec(const std::string& journal) {
  eval::TableSpec spec;
  spec.title = "shard mini";
  spec.dataset = "cifar";
  spec.arch = "preactresnet";
  spec.attacks = {"badnet"};
  spec.defenses = {"ft", "clp", "gradprune"};
  spec.scale = micro_scale();  // 2 SPC x 3 defenses = 6 cells + baseline
  spec.journal_path = journal;
  spec.resume = false;
  return spec;
}

shard::ShardConfig worker_config(const std::string& ledger,
                                 const std::string& id, double ttl) {
  shard::ShardConfig config;
  config.ledger_path = ledger;
  config.worker_id = id;
  config.lease_ttl_seconds = ttl;
  config.poll_interval_seconds = 0.01;
  return config;
}

/// Forks a shard worker over `spec`; stdout/stderr go to /dev/null. The
/// optional fault spec arms the injector in the child only.
pid_t fork_worker(const eval::TableSpec& spec,
                  const shard::ShardConfig& config,
                  const std::string& fault_spec = "") {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int null_fd = ::open("/dev/null", O_WRONLY);
  if (null_fd >= 0) {
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    if (null_fd > STDERR_FILENO) ::close(null_fd);
  }
  if (!fault_spec.empty()) {
    robust::FaultInjector::instance().configure(fault_spec);
  }
  eval::TableSpec child_spec = spec;
  child_spec.shard = config;
  int rc = 0;
  try {
    eval::run_table(child_spec);
  } catch (...) {
    rc = 1;
  }
  ::_exit(rc);
}

/// Renders the merged table from the journal (resume run, sharding off)
/// and returns stdout with the timing footer stripped.
std::string merged_output(const eval::TableSpec& spec) {
  eval::TableSpec merge_spec = spec;
  merge_spec.resume = true;
  ::testing::internal::CaptureStdout();
  eval::run_table(merge_spec);
  const std::string out = ::testing::internal::GetCapturedStdout();
  std::string stripped;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t end = out.find('\n', pos);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(pos, end - pos);
    if (line.rfind("total:", 0) != 0) {
      stripped += line;
      stripped += '\n';
    }
    pos = end + 1;
  }
  return stripped;
}

class ShardTable : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::set_thread_count(1);
    robust::FaultInjector::instance().reset();
  }
  void TearDown() override { robust::FaultInjector::instance().reset(); }
};

TEST_F(ShardTable, SingleWorkerMatchesUnshardedRun) {
  TempFile ref_journal("ref_journal");
  const std::string reference = merged_output(mini_spec(ref_journal.path()));
  ASSERT_NE(reference.find("Baseline"), std::string::npos);

  TempFile journal("single_journal");
  TempFile ledger("single_ledger");
  const eval::TableSpec spec = mini_spec(journal.path());
  eval::TableSpec worker_spec = spec;
  worker_spec.shard = worker_config(ledger.path(), "w1", 5.0);
  ::testing::internal::CaptureStdout();
  const eval::TableRun run = eval::run_table(worker_spec);
  const std::string worker_out = ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(run.worker_stats.has_value());
  EXPECT_EQ(run.worker_stats->claimed, 7);  // baseline + 6 cells
  EXPECT_EQ(run.worker_stats->stolen, 0);
  EXPECT_NE(worker_out.find("shard worker w1:"), std::string::npos);
  EXPECT_EQ(run.settings.size(), 0u);  // worker mode prints no table

  EXPECT_EQ(merged_output(spec), reference);
}

TEST_F(ShardTable, WorkerOverJournaledTableRetrainsNothing) {
  // A local run journals all 7 items; a worker on a fresh ledger then
  // claims each one and must restore it from the journal. Preparations,
  // trials and journal appends all run under the supervisor, so an
  // unchanged run count means nothing was retrained or re-journaled.
  TempFile journal("journaled_journal");
  TempFile ledger("journaled_ledger");
  const eval::TableSpec spec = mini_spec(journal.path());
  const std::string local = merged_output(spec);

  auto& supervisor = robust::Supervisor::instance();
  const std::int64_t runs_before = supervisor.stats().runs;
  eval::TableSpec worker_spec = spec;
  worker_spec.shard = worker_config(ledger.path(), "w1", 5.0);
  ::testing::internal::CaptureStdout();
  const eval::TableRun run = eval::run_table(worker_spec);
  ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(run.worker_stats.has_value());
  EXPECT_EQ(run.worker_stats->claimed, 7);
  EXPECT_EQ(supervisor.stats().runs, runs_before);

  EXPECT_EQ(merged_output(spec), local);
}

TEST_F(ShardTable, WorkerKilledAtEveryCellBoundaryNeverChangesOutput) {
  TempFile ref_journal("chaos_ref_journal");
  const std::string reference =
      merged_output(mini_spec(ref_journal.path()));

  // 7 work items (baseline + 6 cells): kill the first worker on its n-th
  // claim for every n, let a second worker steal and finish, and demand a
  // byte-identical merged table every time.
  for (int n = 1; n <= 7; ++n) {
    TempFile journal("chaos_journal_" + std::to_string(n));
    TempFile ledger("chaos_ledger_" + std::to_string(n));
    const eval::TableSpec spec = mini_spec(journal.path());
    const double ttl = 0.3;

    const pid_t victim =
        fork_worker(spec, worker_config(ledger.path(), "w1", ttl),
                    "crash_worker@" + std::to_string(n));
    ASSERT_GE(victim, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status)) << "kill point " << n;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // Survivor: steals the orphaned lease after the TTL and finishes.
    eval::TableSpec survivor_spec = spec;
    survivor_spec.shard = worker_config(ledger.path(), "w2", ttl);
    ::testing::internal::CaptureStdout();
    const eval::TableRun survivor = eval::run_table(survivor_spec);
    ::testing::internal::GetCapturedStdout();
    ASSERT_TRUE(survivor.worker_stats.has_value());
    EXPECT_EQ(survivor.worker_stats->stolen, 1) << "kill point " << n;

    const shard::LedgerInspection inspection =
        shard::inspect_ledger(ledger.path());
    const shard::LedgerSummary summary =
        inspection.table.summarize(shard::now_ms(),
                                   static_cast<std::int64_t>(ttl * 1000));
    EXPECT_EQ(summary.steals, 1u) << "kill point " << n;
    EXPECT_EQ(summary.done, 7u) << "kill point " << n;
    EXPECT_EQ(summary.leased, 0u) << "kill point " << n;

    EXPECT_EQ(merged_output(spec), reference) << "kill point " << n;
  }
}

TEST_F(ShardTable, QuarantineAfterRepeatedLostLeases) {
  TempFile journal("quarantine_journal");
  TempFile ledger("quarantine_ledger");
  const eval::TableSpec spec = mini_spec(journal.path());

  // Kill a fresh worker on its first claim three times: the first victim
  // claims the cell, the next two steal it and die too. Three strikes.
  const double ttl = 0.2;
  for (int round = 0; round < 3; ++round) {
    const pid_t victim = fork_worker(
        spec, worker_config(ledger.path(), "v" + std::to_string(round), ttl),
        "crash_worker@1");
    ASSERT_GE(victim, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status));
    ::usleep(250 * 1000);  // let the lease expire before the next victim
  }

  eval::TableSpec survivor_spec = spec;
  survivor_spec.shard = worker_config(ledger.path(), "surv", ttl);
  ::testing::internal::CaptureStdout();
  const eval::TableRun survivor = eval::run_table(survivor_spec);
  ::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(survivor.worker_stats.has_value());
  EXPECT_EQ(survivor.worker_stats->quarantined, 1);
  EXPECT_EQ(survivor.worker_stats->stolen, 1);  // took over the 3rd victim's lease

  // The merged table renders the quarantined cell as degraded.
  const std::string merged = merged_output(spec);
  EXPECT_NE(merged.find("degraded"), std::string::npos);
  EXPECT_NE(merged.find("quarantined after 3 lost leases"),
            std::string::npos);
}

}  // namespace
}  // namespace bd
