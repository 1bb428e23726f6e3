// serve-mix: a closed-loop load generator against the sanitization daemon
// over TCP loopback.
//
// One SocketServer (host_cpus() workers, runtime threads = 1) runs in this
// process; `conns` client threads each bind one tenant and keep
// kOutstanding jobs in flight, so the FairQueue holds a backlog while no
// tenant exceeds the default quota. The job stream is drawn from the seed:
// most jobs reuse two implant-checked backbones (preactresnet and vgg) and
// are cache hits that only defend; a few bring a fresh backbone and train;
// some write a checkpoint. Every backbone is implant-checked in-process
// during set-up (the same prepare_backdoored_model call the daemon makes,
// so the check sees the exact weights the daemon serves).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>

#include "util/rng.h"
#include "workloads.h"

namespace bdbench {

namespace {

constexpr std::size_t kOutstanding = 2;  // jobs in flight per connection
constexpr int kMisses = 4;               // fresh backbones per run

struct StreamJob {
  CellSpec spec;        // backbone + spc
  std::string backbone;  // "A", "B" or "miss-<i>"
  std::string defense;
  bool write_checkpoint = false;
  bool miss = false;
};

/// The seeded job stream: blocks of the same 12-job mix (per hit
/// backbone: Grad-Prune at SPC 2 and 10 twice each, CLP at SPC 2 and 10
/// once each; three of the twelve write a checkpoint), each block in a
/// seeded order, with the kMisses fresh-backbone jobs at fixed early
/// positions. The mix is the same for every seed; the seed picks the
/// backbones and the order. The first block covers every (backbone,
/// defense, spc) combination, so the digest covers the same set on every
/// run.
std::vector<StreamJob> make_stream(const std::vector<CellSpec>& hits,
                                   const std::vector<CellSpec>& misses,
                                   std::uint64_t seed, std::size_t length) {
  bd::Rng rng(seed ^ 0x5E12F3ULL);
  std::vector<StreamJob> block;
  for (std::size_t b = 0; b < hits.size(); ++b) {
    const std::string label(1, static_cast<char>('A' + b));
    for (const auto& [defense, spc, copies] :
         {std::tuple{"gradprune", 2, 2}, std::tuple{"gradprune", 10, 2},
          std::tuple{"clp", 2, 1}, std::tuple{"clp", 10, 1}}) {
      for (int k = 0; k < copies; ++k) {
        StreamJob j;
        j.spec = hits[b];
        j.spec.spc = spc;
        j.backbone = label;
        j.defense = defense;
        block.push_back(j);
      }
    }
  }
  const auto shuffle = [&rng](std::vector<StreamJob>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.next_u64() % i]);
    }
  };
  std::vector<StreamJob> stream;
  while (stream.size() < length) {
    std::vector<StreamJob> next = block;
    for (std::size_t k = 0; k < 3; ++k) next[k].write_checkpoint = true;
    shuffle(next);
    stream.insert(stream.end(), next.begin(), next.end());
  }
  for (std::size_t i = 0; i < misses.size(); ++i) {
    StreamJob j;
    j.spec = misses[i];
    j.spec.spc = 10;
    j.backbone = "miss-" + std::to_string(i);
    j.defense = "gradprune";
    j.miss = true;
    j.write_checkpoint = i == 0;
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(4 + 6 * i), j);
  }
  stream.resize(length);
  return stream;
}

std::string spec_key(const StreamJob& j) {
  return j.backbone + "|" + j.spec.arch + "|" + std::to_string(j.spec.seed) + "|" +
         j.defense + "|spc" + std::to_string(j.spec.spc);
}

struct Done {
  std::size_t stream_index = 0;
  JVal record;
  double latency_s = 0.0;
  Clock::time_point finished;
};

struct Gate {
  std::string name;
  CellSpec spec;
  double asr = 0.0;
  std::unique_ptr<Prepared> prepared;  // traced runs keep it for the probes
};

}  // namespace

int run_serve_mix(const Options& opts, const std::string& build_info) {
  Report report;
  const bool tiny = opts.profile == "tiny";
  const int nproc = host_cpus();
  const std::size_t workers = static_cast<std::size_t>(nproc);
  const int conns = std::max(1, std::min(3, nproc));
  Tracer tracer(opts.trace);

  const auto setup_start = Clock::now();
  const ThreadsInEffect in_effect = set_runtime_threads(1);
  report.info("provenance " + provenance_json(opts, in_effect.reported, in_effect.observed) +
              " build " + build_info);

  std::vector<Gate> gates;
  // The two hit backbones are the same on every seed (pool entry 0), so
  // the bulk of the work does not depend on the seed; the seed picks the
  // fresh backbones (pool entries 1..) and the order of the stream. Every
  // miss is a preactresnet in the pinned cell's configuration, so cell_s is
  // a median over like jobs.
  const std::vector<CellSpec> hits = {serve_backbone(opts.profile, "preactresnet", 0),
                                      serve_backbone(opts.profile, "vgg", 0)};
  std::vector<CellSpec> misses;
  for (int i = 0; i < kMisses; ++i) {
    misses.push_back(serve_backbone(opts.profile, "preactresnet",
                                    1 + (opts.seed + static_cast<std::uint64_t>(i)) % 15));
  }
  gates.push_back({"A", hits[0], 0.0, nullptr});
  gates.push_back({"B", hits[1], 0.0, nullptr});
  for (int i = 0; i < kMisses; ++i) {
    gates.push_back({"miss-" + std::to_string(i), misses[static_cast<std::size_t>(i)], 0.0, nullptr});
  }

  const std::string journal = opts.work_dir + "/serve-mix.journal";
  std::remove(journal.c_str());
  LocalServer server(workers, journal);
  WireClient client(server.port());

  // Set-up: implant-check every backbone in-process while the daemon warms
  // its cache with one cheap job per hit backbone.
  {
    std::vector<std::thread> pool;
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::string error;
    const int gate_threads = std::max(1, nproc - 1);
    for (int t = 0; t < gate_threads; ++t) {
      pool.emplace_back([&] {
        try {
          for (std::size_t g; (g = next.fetch_add(1)) < gates.size();) {
            Gate& gate = gates[g];
            if (tracer.enabled()) {
              SpanScope s(tracer, "gate", "gate-" + gate.name);
              gate.prepared = prepare_traced(gate.spec, tracer);
              gate.asr = gate.prepared->bd.baseline.asr;
            } else {
              gate.asr = bd::eval::prepare_backdoored_model("cifar", gate.spec.arch,
                                                            gate.spec.attack,
                                                            cell_scale(gate.spec),
                                                            gate.spec.seed)
                             .baseline.asr;
            }
          }
        } catch (const std::exception& e) {
          std::lock_guard lock(error_mutex);
          error = e.what();
        }
      });
    }
    for (std::size_t b = 0; b < hits.size(); ++b) {
      CellSpec warm = hits[b];
      warm.spc = 2;
      const JVal r = serve_one(client, "warmup", job_json(warm, "clp", "", ""), nullptr,
                               nullptr);
      if (r.str("state") != "done") report.fail("warmup", "warm-up job " + r.str("state"));
    }
    for (auto& t : pool) t.join();
    if (!error.empty()) throw std::runtime_error("gate training failed: " + error);
  }
  const double setup_s = seconds_since(setup_start);
  std::map<std::string, std::string> not_implanted;
  for (const Gate& g : gates) {
    report.info("backbone " + g.name + " " + g.spec.arch + " seed " +
                std::to_string(g.spec.seed) + " baseline ASR " + num(g.asr) +
                "% (gate " + num(g.spec.implant_asr) + "%)");
    if (g.asr < g.spec.implant_asr) {
      not_implanted[g.name] = "not-implanted (baseline ASR " + num(g.asr) + "% < " +
                              num(g.spec.implant_asr) + "%)";
    }
  }

  // The closed loop.
  const std::vector<StreamJob> stream = make_stream(hits, misses, opts.seed, 4096);
  std::atomic<std::size_t> next_job{0};
  std::mutex done_mutex;
  std::vector<Done> done;
  std::vector<std::string> refused;
  std::vector<double> submit_ms, rtt_ms;
  const auto loop_start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  std::vector<std::thread> load;
  std::string load_error;
  for (int c = 0; c < conns; ++c) {
    load.emplace_back([&, c] {
      const std::string tenant = "tenant-" + std::to_string(c);
      struct Pending {
        std::size_t index;
        std::string id;
        Clock::time_point submitted, accepted;
      };
      std::vector<Pending> pending;
      auto last_ping = Clock::now();
      try {
        for (;;) {
          while (pending.size() < kOutstanding && seconds_since(loop_start) < opts.seconds) {
            const std::size_t i = next_job.fetch_add(1);
            if (i >= stream.size()) break;
            const StreamJob& j = stream[i];
            const std::string out =
                j.write_checkpoint ? opts.work_dir + "/job-" + std::to_string(i) + ".ckpt" : "";
            const auto t0 = Clock::now();
            const JVal r = client.request(
                "{\"op\":\"submit\",\"tenant\":" + json_string(tenant) + ",\"job\":" +
                job_json(j.spec, j.defense, out, "mix-" + std::to_string(i)) + "}");
            const auto t1 = Clock::now();
            std::lock_guard lock(done_mutex);
            submit_ms.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e3);
            if (!r.flag("ok")) {
              refused.push_back("job " + std::to_string(i) + " refused: " + r.str("error"));
              continue;
            }
            pending.push_back({i, r.str("id"), t0, t1});
          }
          if (pending.empty()) break;
          // Observe whichever outstanding job finishes first: short
          // server-side waits on each in turn.
          bool finished = false;
          for (std::size_t p = 0; p < pending.size() && !finished; ++p) {
            const JVal w = client.request("{\"op\":\"wait\",\"id\":" +
                                          json_string(pending[p].id) + ",\"timeout\":0.02}");
            if (!w.flag("ok")) {
              if (w.str("error") != "wait_timeout") {
                throw std::runtime_error("wait failed: " + w.str("error"));
              }
              continue;
            }
            const auto now = Clock::now();
            const Pending job = pending[p];
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p));
            finished = true;
            const JVal* rec = w.get("job");
            const std::string unit = "job-" + std::to_string(job.index);
            const int span = tracer.record("job", unit, -1, job.submitted, now);
            tracer.record("serve.submit", unit, span, job.submitted, job.accepted);
            tracer.record("serve.in_daemon", unit, span, job.accepted, now);
            std::lock_guard lock(done_mutex);
            done.push_back({job.index, rec != nullptr ? *rec : w,
                            std::chrono::duration<double>(now - job.submitted).count(), now});
          }
          if (opts.trace && seconds_since(last_ping) > 0.25) {
            last_ping = Clock::now();
            (void)client.request("{\"op\":\"ping\"}");
            std::lock_guard lock(done_mutex);
            rtt_ms.push_back(seconds_since(last_ping) * 1e3);
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard lock(done_mutex);
        load_error = e.what();
      }
    });
  }
  for (auto& t : load) t.join();
  const double cpu_loop = process_cpu_seconds() - cpu0;
  Clock::time_point last = loop_start;
  for (const Done& d : done) last = std::max(last, d.finished);
  const double window = std::chrono::duration<double>(last - loop_start).count();
  server.stop();
  if (!load_error.empty()) report.fail("load", load_error);

  // Output checks and the digest over distinct job specs.
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.stream_index < b.stream_index; });
  std::map<std::string, std::string> by_spec;  // spec key -> metrics text
  std::vector<double> latency, miss_latency, hit_latency, non_defense;
  // Daemon-reported defense seconds of the hit jobs in the pinned cell's
  // configuration (backbone A, Grad-Prune, SPC 10): the same work on every
  // seed, where a mean over all jobs would follow the job mix.
  std::vector<double> cell_defense;
  std::int64_t failed = 0, cache_hits = 0;
  std::int64_t checkpoint_bytes = 0;
  for (const Done& d : done) {
    const StreamJob& j = stream[d.stream_index];
    const std::string unit = "job-" + std::to_string(d.stream_index);
    const std::string state = d.record.str("state");
    std::string why;
    if (state != "done") {
      why = "state " + state + " " + d.record.str("error");
    } else if (not_implanted.count(j.backbone)) {
      why = not_implanted[j.backbone];
    }
    const std::string metrics = num(d.record.number("acc", -1)) + "/" +
                                num(d.record.number("asr", -1)) + "/" +
                                num(d.record.number("ra", -1)) + " pruned " +
                                num(d.record.number("pruned", -1));
    const auto [it, inserted] = by_spec.emplace(spec_key(j), metrics);
    if (why.empty() && !inserted && it->second != metrics) {
      why = "metrics " + metrics + " differ from an identical job's " + it->second;
    }
    if (!why.empty()) {
      ++failed;
      report.fail(unit, why);
      continue;
    }
    latency.push_back(d.latency_s);
    if (j.backbone == "A" && j.defense == "gradprune" && j.spec.spc == 10) {
      cell_defense.push_back(d.record.number("seconds"));
    }
    non_defense.push_back(d.latency_s - d.record.number("seconds"));
    (j.miss ? miss_latency : hit_latency).push_back(d.latency_s);
    if (d.record.flag("cache_hit")) ++cache_hits;
    if (j.write_checkpoint) {
      const std::string path = opts.work_dir + "/job-" + std::to_string(d.stream_index) + ".ckpt";
      std::ifstream f(path, std::ios::binary | std::ios::ate);
      if (!f) {
        ++failed;
        report.fail(unit, "checkpoint " + path + " missing");
      } else {
        checkpoint_bytes = static_cast<std::int64_t>(f.tellg());
      }
      std::remove(path.c_str());
    }
  }
  for (const std::string& r : refused) {
    ++failed;
    report.fail("submit", r);
  }
  if (miss_latency.size() != static_cast<std::size_t>(kMisses)) {
    report.fail("stream", "only " + std::to_string(miss_latency.size()) + " of " +
                              std::to_string(kMisses) + " cache misses completed");
  }
  Fnv1a digest;
  for (const auto& [key, metrics] : by_spec) {
    digest.str(key);
    digest.str(metrics);
    report.info("job-spec " + key + " -> " + metrics);
  }
  report.info("digest serve-mix seed " + std::to_string(opts.seed) + " " + digest.hex() +
              " over " + std::to_string(by_spec.size()) + " distinct job specs");
  const auto attempted = static_cast<std::int64_t>(done.size() + refused.size());
  const auto n = static_cast<std::int64_t>(latency.size());

  if (!opts.trace) {
    const Tail tail = tail_with_beyond(latency);
    report.metric("setup_s", setup_s, "s", 1,
                  "implant checks + daemon start + cache warm-up");
    report.metric("cell_s", median(miss_latency), "s",
                  static_cast<std::int64_t>(miss_latency.size()),
                  "latency of a cache-miss job: a full served cell");
    report.metric("defense_s", median(cell_defense), "s",
                  static_cast<std::int64_t>(cell_defense.size()),
                  "daemon-reported seconds of a Grad-Prune SPC 10 job on backbone A");
    report.metric("jobs_per_min", window > 0 ? 60.0 * static_cast<double>(n) / window : 0.0,
                  "1/min", n);
    report.metric("job_p50_s", median(latency), "s", n, "submit to terminal");
    report.metric("job_tail_s", tail.value, "s", n,
                  "p" + num(tail.percentile) + " with " + std::to_string(tail.beyond) +
                      " jobs beyond");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    // Per-layer numbers: daemon-side from the loop, library-side from the
    // traced implant checks and in-process probes on backbone A.
    const Gate& a = gates[0];
    report.metric("runtime.threads", in_effect.observed, "count", 1,
                  "runtime reports " + std::to_string(in_effect.reported));
    report.metric("runtime.cpu_s", n > 0 ? cpu_loop / static_cast<double>(n) : 0.0, "s", n,
                  "process CPU seconds per job");
    std::vector<Span> spans = tracer.spans();
    const double epochs = static_cast<double>(cell_scale(a.spec).attack_train.epochs);
    std::vector<double> epoch_s, samples_s;
    for (const Gate& g : gates) {
      epoch_s.push_back(g.prepared->train_seconds / epochs);
      samples_s.push_back(static_cast<double>(g.prepared->poisoned.size()) * epochs /
                          g.prepared->train_seconds);
    }
    const auto gn = static_cast<std::int64_t>(gates.size());
    report.metric("data.synth_s", median(span_durations(spans, "data.synth")), "s", gn,
                  "implant-check trainings, run concurrently");
    report.metric("attack.poison_s", median(span_durations(spans, "attack.poison")), "s", gn);
    report.metric("eval.prepare_s", median(span_durations(spans, "prepare")), "s", gn);
    report.metric("eval.train_epoch_s", median(epoch_s), "s", gn);
    report.metric("eval.train_samples_per_s", median(samples_s), "1/s", gn);
    report.metric("eval.evaluate_s", median(span_durations(spans, "eval.evaluate")), "s", gn);

    // Reference trial on backbone A: untraced, then decomposed under spans.
    // Both must match each other and the daemon's job for the same spec.
    Tracer off(false);
    CellSpec ref_spec = a.spec;
    ref_spec.spc = 10;
    std::vector<double> plain_s, traced_s;
    TrialOutcome plain, traced;
    for (int rep = 0; rep < 2; ++rep) {
      plain = run_defense(ref_spec, a.prepared->bd, 0, off);
      {
        SpanScope s(tracer, "reference", "reference-A" + std::to_string(rep));
        traced = run_defense(ref_spec, a.prepared->bd, 0, tracer);
      }
      plain_s.push_back(plain.defense_s);
      traced_s.push_back(traced.defense_s);
      if (plain.digest != traced.digest) {
        ++failed;
        report.fail("reference-A", "traced digest " + traced.digest + " != " + plain.digest);
      }
    }
    StreamJob ref_job;
    ref_job.spec = ref_spec;
    ref_job.backbone = "A";
    ref_job.defense = "gradprune";
    const auto served = by_spec.find(spec_key(ref_job));
    const std::string lib = num(plain.metrics.acc) + "/" + num(plain.metrics.asr) + "/" +
                            num(plain.metrics.ra) + " pruned " +
                            num(static_cast<double>(plain.info.pruned_units));
    if (served != by_spec.end() && served->second != lib) {
      ++failed;
      report.fail("reference-A", "daemon " + served->second + " != library " + lib);
    }
    spans = tracer.spans();
    report.metric("defense.context_s", median(span_durations(spans, "defense.context")),
                  "s", 2);
    report.metric("core.gradprune_s", traced.info.seconds, "s", 1, "DefenseResult.seconds");
    report.metric("core.pruned_filters", static_cast<double>(traced.info.pruned_units),
                  "count", 1);
    report.metric("core.finetune_epochs", static_cast<double>(traced.info.finetune_epochs),
                  "count", 1);
    report.metric("obs.trace_overhead_pct",
                  100.0 * (median(traced_s) - median(plain_s)) / median(plain_s), "%", 2,
                  "traced vs untraced reference defense, probes excluded");
    probe_layers(ref_spec, *a.prepared, opts.work_dir, report);

    std::int64_t journal_lines = 0;
    {
      std::ifstream jf(journal);
      std::string line;
      while (std::getline(jf, line)) ++journal_lines;
    }
    report.metric("serve.submit_ms", median(submit_ms), "ms",
                  static_cast<std::int64_t>(submit_ms.size()));
    report.metric("serve.rtt_ms", median(rtt_ms), "ms",
                  static_cast<std::int64_t>(rtt_ms.size()), "ping under load");
    report.metric("serve.non_defense_s", median(non_defense), "s", n,
                  "latency minus the job's defense seconds");
    report.metric("serve.hit_job_s", median(hit_latency), "s",
                  static_cast<std::int64_t>(hit_latency.size()));
    report.metric("serve.miss_job_s", median(miss_latency), "s",
                  static_cast<std::int64_t>(miss_latency.size()));
    report.metric("serve.cache_hit_ratio",
                  n > 0 ? static_cast<double>(cache_hits) / static_cast<double>(n) : 0.0,
                  "ratio", n);
    report.metric("serve.rejected", static_cast<double>(refused.size()), "count", attempted);
    report.metric("serve.retries", static_cast<double>(client.retries()), "count", attempted);
    report.metric("robust.journal_lines", static_cast<double>(journal_lines), "count", 1);
    report.info("checkpoint bytes per written job " + std::to_string(checkpoint_bytes));

    std::vector<std::string> violations;
    const std::vector<TreeRow> rows = summarize_spans(spans, violations);
    for (const std::string& v : violations) {
      ++failed;
      report.fail("span-tree", v);
    }
    std::cout << format_tree(rows);
    const std::string span_file = opts.work_dir + "/spans-serve-mix.json";
    write_spans(span_file, spans, rows);
    report.info("spans written to " + span_file);
  }
  std::remove(journal.c_str());
  report.info("serve-mix " + std::to_string(conns) + " connections x " +
              std::to_string(kOutstanding) + " outstanding, " + std::to_string(workers) +
              " workers, " + std::to_string(n) + " jobs done in " + num(window) + " s" +
              (tiny ? " (tiny profile)" : ""));
  report.set_counts(std::max<std::int64_t>(attempted, 1),
                    failed + (attempted == 0 ? 1 : 0));
  report.print();
  return 0;
}

}  // namespace bdbench
