#include "eval/table_bench.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/registry.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace bd::eval {

namespace {

std::string join_doubles(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += exact_double(v[i]);
  }
  return out;
}

std::vector<double> split_doubles(const std::string& s) {
  std::vector<double> out;
  const char* p = s.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) break;  // no progress: malformed tail
    out.push_back(v);
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

std::string join_ints(const std::vector<std::int64_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

std::vector<std::int64_t> split_ints(const std::string& s) {
  std::vector<std::int64_t> out;
  const char* p = s.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const std::int64_t v = std::strtoll(p, &end, 10);
    if (end == p) break;  // no progress: malformed tail
    out.push_back(v);
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

std::string field(const robust::JournalFields& fields, const char* name) {
  const auto it = fields.find(name);
  return it == fields.end() ? std::string() : it->second;
}

/// Canonical description of everything that shapes a cell's numbers: the
/// journal key must change whenever any of this does, so a resumed run
/// never reuses results computed under different settings.
std::string scale_signature(const TableSpec& spec,
                            const ExperimentScale& s) {
  std::string sig = spec.dataset + '|' + spec.arch + '|' +
                    std::to_string(base_seed());
  const auto add_i = [&sig](std::int64_t v) {
    sig += '|';
    sig += std::to_string(v);
  };
  const auto add_d = [&sig](double v) {
    sig += '|';
    sig += exact_double(v);
  };
  add_i(s.data.height);
  add_i(s.data.width);
  add_i(s.data.train_per_class);
  add_i(s.data.test_per_class);
  add_i(s.attack_train.epochs);
  add_i(s.attack_train.batch_size);
  add_d(s.attack_train.lr);
  add_d(s.attack_train.momentum);
  add_d(s.attack_train.weight_decay);
  add_d(s.attack_train.lr_decay);
  add_i(s.base_width);
  add_i(s.trials);
  add_i(s.defense_max_epochs);
  add_i(s.prune_max_rounds);
  add_i(s.anp_iterations);
  add_i(s.nad_teacher_epochs);
  add_i(s.nad_distill_epochs);
  for (const auto spc : s.spc_settings) add_i(spc);
  return sig;
}

/// Baseline cell as journaled: metrics plus the supervisor's verdict on
/// the attack preparation that produced them.
struct BaselineRecord {
  BackdoorMetrics metrics;
  bool degraded = false;
  std::string error;
  std::int64_t attempts = 0;
};

robust::JournalFields encode_baseline(const std::string& attack,
                                      const BaselineRecord& r) {
  robust::JournalFields f{{"cell", "baseline"},
                          {"attack", attack},
                          {"acc", exact_double(r.metrics.acc)},
                          {"asr", exact_double(r.metrics.asr)},
                          {"ra", exact_double(r.metrics.ra)},
                          {"attempts", std::to_string(r.attempts)}};
  if (r.degraded) {
    f["degraded"] = "1";
    f["error"] = r.error;
  }
  return f;
}

BaselineRecord decode_baseline(const robust::JournalFields& f) {
  BaselineRecord r;
  r.metrics.acc = std::strtod(field(f, "acc").c_str(), nullptr);
  r.metrics.asr = std::strtod(field(f, "asr").c_str(), nullptr);
  r.metrics.ra = std::strtod(field(f, "ra").c_str(), nullptr);
  r.attempts = std::strtoll(field(f, "attempts").c_str(), nullptr, 10);
  r.degraded = field(f, "degraded") == "1";
  r.error = field(f, "error");
  return r;
}

robust::JournalFields encode_setting(const SettingResult& s) {
  robust::JournalFields f{{"cell", "setting"},
                          {"attack", s.attack},
                          {"defense", s.defense},
                          {"spc", std::to_string(s.spc)},
                          {"acc", join_doubles(s.acc)},
                          {"asr", join_doubles(s.asr)},
                          {"ra", join_doubles(s.ra)},
                          {"seconds", join_doubles(s.seconds)},
                          {"pruned", join_ints(s.pruned)},
                          {"recoveries", join_ints(s.recoveries)},
                          {"attempts", std::to_string(s.attempts)}};
  if (s.degraded) {
    f["degraded"] = "1";
    f["error"] = s.failure;
  }
  return f;
}

SettingResult decode_setting(const robust::JournalFields& f) {
  SettingResult s;
  s.attack = field(f, "attack");
  s.defense = field(f, "defense");
  s.spc = std::strtoll(field(f, "spc").c_str(), nullptr, 10);
  s.acc = split_doubles(field(f, "acc"));
  s.asr = split_doubles(field(f, "asr"));
  s.ra = split_doubles(field(f, "ra"));
  s.seconds = split_doubles(field(f, "seconds"));
  s.pruned = split_ints(field(f, "pruned"));
  s.recoveries = split_ints(field(f, "recoveries"));
  s.attempts = std::strtoll(field(f, "attempts").c_str(), nullptr, 10);
  s.degraded = field(f, "degraded") == "1";
  s.failure = field(f, "error");
  return s;
}

/// One (SPC, defense) cell with its pre-drawn seed and journal key.
struct Cell {
  std::int64_t spc;
  std::string defense;
  std::uint64_t seed;
  std::string key;
};

/// Everything one attack contributes to the table, in canonical order.
struct AttackPlan {
  std::string attack;
  std::uint64_t model_seed;
  std::string base_key;
  std::vector<Cell> cells;
};

/// Derives the full cell plan. Seeds are drawn up front in the order an
/// uninterrupted run would draw them, so skipping completed cells — or
/// splitting the plan across shard workers — never shifts the seeds of
/// the remaining ones. Every process running the same spec derives the
/// identical plan; the keys double as lease-ledger work items.
std::vector<AttackPlan> build_plan(const TableSpec& spec,
                                   const ExperimentScale& scale,
                                   const std::string& sig,
                                   std::uint64_t seed) {
  std::vector<AttackPlan> plan;
  plan.reserve(spec.attacks.size());
  for (const auto& attack : spec.attacks) {
    Rng seeder(seed ^ std::hash<std::string>{}(attack + spec.arch));
    AttackPlan ap;
    ap.attack = attack;
    ap.model_seed = seeder.next_u64();
    for (const auto spc : scale.spc_settings) {
      for (const auto& defense : spec.defenses) {
        ap.cells.push_back({spc, defense, seeder.next_u64(),
                            robust::stable_hash_hex(
                                "cell|" + sig + '|' + attack + '|' + defense +
                                '|' + std::to_string(spc))});
      }
    }
    ap.base_key = robust::stable_hash_hex("baseline|" + sig + '|' + attack);
    plan.push_back(std::move(ap));
  }
  return plan;
}

/// A setting cell that did not run: its attack's preparation failed, or
/// its lease was quarantined. Journaled and rendered like any other cell.
SettingResult degraded_setting(const std::string& attack, const Cell& cell,
                               const std::string& reason) {
  SettingResult s;
  s.attack = attack;
  s.defense = cell.defense;
  s.spc = cell.spc;
  s.degraded = true;
  s.failure = reason;
  return s;
}

}  // namespace

TableRun run_table(const TableSpec& spec) {
  BD_OBS_SPAN("bench.table");
  Stopwatch watch;
  const ExperimentScale scale =
      spec.scale ? *spec.scale : default_scale(spec.dataset);
  const std::uint64_t seed = base_seed();

  std::string journal_path = spec.journal_path;
  if (journal_path.empty()) {
    journal_path = env_string("BDPROTO_JOURNAL").value_or("");
  }
  const std::optional<shard::ShardConfig> shard_config =
      spec.shard.has_value() ? spec.shard : shard::shard_config_from_env();
  // A shard worker always resumes: it must skip items that a resumed run
  // or a peer that died before its done record landed already journaled.
  const bool resume =
      shard_config.has_value() ||
      spec.resume.value_or(env_int("BDPROTO_RESUME").value_or(0) != 0);
  robust::RunJournal journal = journal_path.empty()
                                   ? robust::RunJournal()
                                   : robust::RunJournal(journal_path);
  if (shard_config.has_value() && !journal.enabled()) {
    throw std::runtime_error(
        "shard worker needs a journal (BDPROTO_JOURNAL): cell results must "
        "be durable for the coordinator's merge pass");
  }
  if (resume && !journal.enabled()) {
    BD_LOG(Warn) << "BDPROTO_RESUME is set but no journal is configured "
                    "(set BDPROTO_JOURNAL); running from scratch";
  }
  if (resume && journal.size() > 0) {
    BD_LOG(Info) << "resuming from journal '" << journal.path() << "' ("
                 << journal.size() << " completed cells)";
  }
  const std::string sig = scale_signature(spec, scale);
  const std::vector<AttackPlan> plan = build_plan(spec, scale, sig, seed);

  // Canonical work list: each attack's baseline item, then its cells, so
  // the expensive preparation tends to be needed (and cached) first. The
  // keys double as lease-ledger work items.
  struct Item {
    std::size_t attack;
    const Cell* cell;          // nullptr: the attack's baseline
    BaselineRecord baseline;   // result slot of a baseline item
    SettingResult setting;     // result slot of a cell item
  };
  std::vector<Item> items;
  std::vector<std::string> keys;
  for (std::size_t a = 0; a < plan.size(); ++a) {
    items.push_back({a, nullptr, {}, {}});
    keys.push_back(plan[a].base_key);
    for (const Cell& cell : plan[a].cells) {
      items.push_back({a, &cell, {}, {}});
      keys.push_back(cell.key);
    }
  }

  auto& faults = robust::FaultInjector::instance();
  auto& supervisor = robust::Supervisor::instance();
  TableRun run;

  // Journal appends are supervised too (retries ride out transient I/O
  // failures), but a permanently unwritable journal is fatal: continuing
  // would silently break the resume contract.
  const auto record = [&](std::size_t index) {
    if (!journal.enabled()) return;
    const Item& item = items[index];
    const robust::JournalFields fields =
        item.cell != nullptr
            ? encode_setting(item.setting)
            : encode_baseline(plan[item.attack].attack, item.baseline);
    const robust::RunReport report = supervisor.run(
        "journal|" + journal.path(),
        [&] { journal.record(keys[index], fields); });
    if (!report.ok()) {
      throw std::runtime_error("journal '" + journal.path() +
                               "': append failed permanently: " +
                               report.failure);
    }
  };

  // A journaled item is read back into its result slot instead of rerun.
  const auto restore = [&](std::size_t index) {
    const robust::JournalFields* cached =
        resume ? journal.find(keys[index]) : nullptr;
    if (cached == nullptr) return false;
    Item& item = items[index];
    if (item.cell == nullptr) {
      item.baseline = decode_baseline(*cached);
    } else {
      item.setting = decode_setting(*cached);
      ++run.resumed_cells;
      BD_OBS_COUNT("bench.cells_resumed", 1);
    }
    return true;
  };

  // Lazy per-attack preparation, cached for the most recent attack only
  // (backdoored models are big; canonical order keeps switches rare). An
  // attack whose items are all journaled is never retrained.
  std::size_t prepared = plan.size();  // none yet
  std::optional<BackdooredModel> bd;
  BaselineRecord verdict;  // the preparation's baseline cell
  const auto prepare = [&](std::size_t a) {
    if (prepared == a) return;
    const AttackPlan& ap = plan[a];
    BD_OBS_SPAN("bench.attack_prepare");
    const robust::RunReport prep =
        supervisor.run("prepare|" + ap.attack + "|" + spec.arch, [&] {
          bd.reset();
          bd.emplace(prepare_backdoored_model(spec.dataset, spec.arch,
                                              ap.attack, scale,
                                              ap.model_seed));
        });
    verdict = BaselineRecord{};
    verdict.attempts = prep.attempts;
    if (prep.ok()) {
      verdict.metrics = bd->baseline;
    } else {
      bd.reset();
      verdict.degraded = true;
      verdict.error = "attack preparation failed: " + prep.failure;
      BD_LOG(Warn) << ap.attack << ": " << verdict.error
                   << "; every cell of this attack degrades";
    }
    prepared = a;
  };

  const auto run_item = [&](std::size_t index) {
    if (restore(index)) return;
    Item& item = items[index];
    const std::string& attack = plan[item.attack].attack;
    prepare(item.attack);
    if (item.cell == nullptr) {
      item.baseline = verdict;
      record(index);
      return;
    }
    const Cell& cell = *item.cell;
    if (!bd.has_value()) {
      // The attack preparation degraded permanently: every cell that
      // depends on it inherits the failure instead of running.
      item.setting = degraded_setting(attack, cell, verdict.error);
      record(index);
      return;
    }
    BD_OBS_SPAN_ARG("bench.cell", cell.spc);
    BD_OBS_COUNT("bench.cells_run", 1);
    Stopwatch cell_watch;
    item.setting = run_setting(*bd, cell.defense, cell.spc, scale, cell.seed);
    BD_OBS_OBSERVE("bench.cell_seconds", cell_watch.seconds(),
                   ::bd::obs::seconds_buckets());
    record(index);
    // The journal entry above is flushed; a kill here loses nothing.
    faults.fire_crash("bench cell " + attack + "/" + cell.defense +
                      "/spc=" + std::to_string(cell.spc));
  };

  if (shard_config.has_value()) {
    // Worker driver: claim items through the lease ledger and journal each
    // result. No table: the coordinator's merge pass (a resume run with
    // sharding off) renders it from the journal.
    BD_OBS_SPAN("bench.shard_worker");
    const auto quarantine_item = [&](std::size_t index,
                                     const std::string& reason) {
      if (restore(index)) return;
      Item& item = items[index];
      if (item.cell == nullptr) {
        item.baseline = BaselineRecord{};
        item.baseline.degraded = true;
        item.baseline.error = reason;
      } else {
        item.setting =
            degraded_setting(plan[item.attack].attack, *item.cell, reason);
      }
      record(index);
    };
    shard::WorkerSession session(*shard_config);
    const shard::WorkerStats stats =
        session.run_all(keys, run_item, quarantine_item);
    std::printf("shard worker %s: claimed=%lld stolen=%lld completed=%lld "
                "quarantined=%lld resumed=%zu\n",
                shard_config->worker_id.c_str(),
                static_cast<long long>(stats.claimed),
                static_cast<long long>(stats.stolen),
                static_cast<long long>(stats.completed),
                static_cast<long long>(stats.quarantined), run.resumed_cells);
    run.worker_stats = stats;
    return run;
  }

  // Local driver: run every item in order, then render from the slots.
  std::printf("== %s ==\n", spec.title.c_str());
  std::printf("dataset=%s arch=%s mode=%s trials=%d spc={", spec.dataset.c_str(),
              spec.arch.c_str(), full_mode() ? "full" : "quick", scale.trials);
  for (std::size_t i = 0; i < scale.spc_settings.size(); ++i) {
    std::printf("%s%lld", i ? "," : "",
                static_cast<long long>(scale.spc_settings[i]));
  }
  std::printf("}\n\n");
  for (std::size_t i = 0; i < items.size(); ++i) run_item(i);

  TextTable table({"Attack", "SPC", "Defense", "ACC", "ASR", "RA"});
  std::vector<std::string> degraded_lines;  // summary printed after the table
  for (Item& item : items) {
    const std::string& attack = plan[item.attack].attack;
    if (item.cell == nullptr) {
      const BaselineRecord& baseline = item.baseline;
      run.baselines.emplace_back(attack, baseline.metrics);
      if (baseline.degraded) {
        degraded_lines.push_back(attack + "/baseline: " + baseline.error +
                                 " (attempts=" +
                                 std::to_string(baseline.attempts) + ")");
        table.add_row(
            {attack, "-", "Baseline", "degraded", "degraded", "degraded"});
      } else {
        char acc_buf[32], asr_buf[32], ra_buf[32];
        std::snprintf(acc_buf, sizeof(acc_buf), "%.2f", baseline.metrics.acc);
        std::snprintf(asr_buf, sizeof(asr_buf), "%.2f", baseline.metrics.asr);
        std::snprintf(ra_buf, sizeof(ra_buf), "%.2f", baseline.metrics.ra);
        table.add_row({attack, "-", "Baseline", acc_buf, asr_buf, ra_buf});
      }
      continue;
    }
    const Cell& cell = *item.cell;
    SettingResult& setting = item.setting;
    if (setting.degraded) {
      degraded_lines.push_back(
          attack + "/" + cell.defense + "/spc=" + std::to_string(cell.spc) +
          ": " + setting.failure +
          " (attempts=" + std::to_string(setting.attempts) + ")");
    }
    table.add_row({attack, std::to_string(cell.spc),
                   core::defense_display_name(cell.defense),
                   setting.degraded ? "degraded"
                                    : mean_std_string(setting.acc),
                   setting.degraded ? "degraded"
                                    : mean_std_string(setting.asr),
                   setting.degraded ? "degraded"
                                    : mean_std_string(setting.ra)});
    run.settings.push_back(std::move(setting));
  }

  run.degraded_cells = degraded_lines.size();
  std::printf("%s\n", table.to_string().c_str());
  if (!degraded_lines.empty()) {
    std::printf("degraded cells: %zu\n", degraded_lines.size());
    for (const auto& line : degraded_lines) {
      std::printf("  %s\n", line.c_str());
    }
    std::printf("\n");
  }

  if (spec.scatter) {
    // Figure series: one (ASR, ACC) and (ASR, RA) point per trial.
    std::printf("# scatter: defense,attack,spc,trial,asr,acc,ra\n");
    for (const auto& s : run.settings) {
      for (std::size_t t = 0; t < s.asr.size(); ++t) {
        std::printf("scatter,%s,%s,%lld,%zu,%.2f,%.2f,%.2f\n",
                    s.defense.c_str(), s.attack.c_str(),
                    static_cast<long long>(s.spc), t + 1, s.asr[t], s.acc[t],
                    s.ra[t]);
      }
    }
    std::printf("\n");
  }

  std::printf("total: %.1fs\n\n", watch.seconds());
  return run;
}

}  // namespace bd::eval
