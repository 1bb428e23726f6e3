// The cell workloads (cell-1t, cell-mt) and the cell machinery shared with
// serve-mix: library and decomposed cells, per-layer probes, and the
// in-process daemon.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "attack/poison.h"
#include "attack/trigger.h"
#include "autograd/arena.h"
#include "autograd/graph.h"
#include "autograd/ops.h"
#include "core/grad_prune.h"
#include "data/synth.h"
#include "defense/defense.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "models/factory.h"
#include "nn/checkpoint.h"
#include "optim/optim.h"
#include "serve/job.h"
#include "serve/server.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace bdbench {

using bd::Rng;

bd::eval::ExperimentScale cell_scale(const CellSpec& spec) {
  bd::serve::JobSpec job;
  job.dataset = "cifar";
  job.arch = spec.arch;
  job.attack = spec.attack;
  job.spc = spec.spc;
  job.seed = spec.seed;
  job.width = spec.width;
  job.attack_epochs = spec.attack_epochs;
  job.prune_rounds = spec.prune_rounds;
  job.finetune_epochs = spec.finetune_epochs;
  job.train_per_class = spec.train_per_class;
  job.test_per_class = spec.test_per_class;
  return bd::serve::job_scale(job);
}

std::uint64_t trial_seed(const CellSpec& spec, int trial) {
  return (spec.seed ^ 0xBDC71EULL) + static_cast<std::uint64_t>(trial);
}

std::string job_json(const CellSpec& spec, const std::string& defense,
                     const std::string& out_path, const std::string& client_id) {
  std::ostringstream o;
  o << "{\"dataset\":\"cifar\",\"arch\":" << json_string(spec.arch)
    << ",\"attack\":" << json_string(spec.attack)
    << ",\"defense\":" << json_string(defense) << ",\"spc\":" << spec.spc
    << ",\"seed\":" << spec.seed << ",\"width\":" << spec.width
    << ",\"attack_epochs\":" << spec.attack_epochs
    << ",\"prune_rounds\":" << spec.prune_rounds
    << ",\"finetune_epochs\":" << spec.finetune_epochs
    << ",\"train_per_class\":" << spec.train_per_class
    << ",\"test_per_class\":" << spec.test_per_class;
  if (!out_path.empty()) o << ",\"out\":" << json_string(out_path);
  if (!client_id.empty()) o << ",\"client_id\":" << json_string(client_id);
  o << "}";
  return o.str();
}

std::unique_ptr<Prepared> prepare_traced(const CellSpec& spec, Tracer& tracer) {
  SpanScope prepare_span(tracer, "prepare");
  const bd::eval::ExperimentScale scale = cell_scale(spec);
  Rng rng(spec.seed);
  bd::data::TrainTest split = [&] {
    SpanScope s(tracer, "data.synth");
    return bd::data::make_synth_cifar(scale.data, rng);
  }();
  const bd::Shape image_shape = split.train.image_shape();
  const std::int64_t num_classes = split.train.num_classes();
  std::unique_ptr<bd::attack::TriggerApplier> trigger;
  {
    SpanScope s(tracer, "attack.trigger");
    trigger = bd::attack::make_trigger(spec.attack, image_shape);
  }
  auto out = std::make_unique<Prepared>(Prepared{bd::eval::BackdooredModel{"cifar",
                                         spec.attack,
                                         bd::models::ModelSpec{},
                                         {},
                                         std::move(trigger),
                                         std::move(split.train),
                                         std::move(split.test),
                                         bd::data::ImageDataset(image_shape, num_classes),
                                         bd::data::ImageDataset(image_shape, num_classes),
                                         bd::eval::BackdoorMetrics{},
                                         bd::robust::GuardReport{}},
               bd::data::ImageDataset(image_shape, num_classes)});
  bd::eval::BackdooredModel& bd = out->bd;
  bd.spec.arch = spec.arch;
  bd.spec.num_classes = bd.clean_train_pool.num_classes();
  bd.spec.in_channels = bd.clean_train_pool.image_shape()[0];
  bd.spec.base_width = scale.base_width;
  {
    SpanScope s(tracer, "attack.poison");
    const bd::attack::PoisonConfig poison_cfg;
    out->poisoned = bd::attack::poison_training_set(bd.clean_train_pool, *bd.trigger,
                                                   poison_cfg, rng);
    bd.asr_test = bd::attack::make_asr_test_set(bd.clean_test, *bd.trigger,
                                                poison_cfg.target_class);
    bd.ra_test = bd::attack::make_ra_test_set(bd.clean_test, *bd.trigger,
                                              poison_cfg.target_class);
  }
  std::unique_ptr<bd::models::Classifier> model;
  {
    SpanScope s(tracer, "models.make");
    model = bd::models::make_model(bd.spec, rng);
  }
  {
    SpanScope s(tracer, "eval.train");
    const bd::eval::TrainResult train =
        bd::eval::train_classifier(*model, out->poisoned, scale.attack_train, rng);
    bd.train_guard = train.guard;
    out->train_seconds = s.elapsed();
  }
  {
    SpanScope s(tracer, "nn.state_dict");
    bd.state = model->state_dict();
  }
  {
    SpanScope s(tracer, "eval.evaluate");
    bd.baseline = bd::eval::evaluate_backdoor(*model, bd.clean_test, bd.asr_test,
                                              bd.ra_test);
  }
  return out;
}

namespace {

std::string trial_digest(const bd::eval::BackdoorMetrics& metrics,
                         const bd::defense::DefenseResult& info,
                         const bd::models::Classifier& model) {
  Fnv1a h;
  for (const double v : {metrics.acc, metrics.asr, metrics.ra}) h.f64(v);
  h.i64(info.pruned_units);
  h.i64(info.finetune_epochs);
  for (const auto& [name, t] : model.state_dict()) {
    h.str(name);
    for (const std::int64_t d : t.shape()) h.i64(d);
    h.bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  return h.hex();
}

}  // namespace

TrialOutcome run_defense(const CellSpec& spec, const bd::eval::BackdooredModel& bd,
                         int trial, Tracer& tracer) {
  TrialOutcome out;
  const bd::eval::ExperimentScale scale = cell_scale(spec);
  SpanScope defense_span(tracer, "defense");
  std::unique_ptr<bd::models::Classifier> model;
  if (!tracer.enabled()) {
    bd::eval::SanitizeRequest req;
    req.defense = "gradprune";
    req.spc = spec.spc;
    req.seed = trial_seed(spec, trial);
    req.keep_model = true;
    bd::eval::SanitizeOutcome res = bd::eval::run_sanitization(bd, req, scale);
    out.metrics = res.metrics;
    out.info = res.info;
    model = std::move(res.model);
  } else {
    // run_sanitization for "gradprune", one public call per span.
    Rng rng(trial_seed(spec, trial));
    {
      SpanScope s(tracer, "models.instantiate");
      model = bd.instantiate(rng);
    }
    const bd::data::ImageDataset spc_set = [&] {
      SpanScope s(tracer, "data.sample_spc");
      return bd.clean_train_pool.sample_per_class(spec.spc, rng);
    }();
    const bd::defense::DefenseContext ctx = [&] {
      SpanScope s(tracer, "defense.context");
      return bd::defense::make_defense_context(spc_set, *bd.trigger, bd.spec, rng);
    }();
    {
      SpanScope s(tracer, "core.gradprune");
      bd::core::GradPruneConfig c;
      c.max_prune_rounds = scale.prune_max_rounds;
      c.finetune_max_epochs = scale.defense_max_epochs;
      bd::core::GradPruneDefense defense(c);
      out.info = defense.apply(*model, ctx);
    }
    {
      SpanScope s(tracer, "eval.evaluate");
      out.metrics = bd::eval::evaluate_backdoor(*model, bd.clean_test, bd.asr_test,
                                                bd.ra_test);
    }
  }
  {
    SpanScope s(tracer, "digest");
    out.digest = trial_digest(out.metrics, out.info, *model);
  }
  out.defense_s = defense_span.elapsed();
  return out;
}

CellOutcome run_cell(const CellSpec& spec, Tracer& tracer, const std::string& unit,
                     std::unique_ptr<Prepared>* prepared_out) {
  const double cpu0 = process_cpu_seconds();
  SpanScope cell_span(tracer, "cell", unit);
  CellOutcome out;
  const auto defend = [&](const bd::eval::BackdooredModel& bd) {
    out.baseline = bd.baseline;
    Fnv1a h;
    for (const double v : {bd.baseline.acc, bd.baseline.asr, bd.baseline.ra}) h.f64(v);
    for (int t = 0; t < kTrialsPerCell; ++t) {
      out.trials.push_back(run_defense(spec, bd, t, tracer));
      h.str(out.trials.back().digest);
    }
    out.digest = h.hex();
  };
  if (!tracer.enabled()) {
    defend(bd::eval::prepare_backdoored_model("cifar", spec.arch, spec.attack,
                                              cell_scale(spec), spec.seed));
  } else {
    std::unique_ptr<Prepared> prepared = prepare_traced(spec, tracer);
    defend(prepared->bd);
    if (prepared_out != nullptr) *prepared_out = std::move(prepared);
  }
  out.cell_s = cell_span.elapsed();
  out.cpu_s = process_cpu_seconds() - cpu0;
  return out;
}

std::string gate_failure(const CellSpec& spec, const CellOutcome& cell) {
  if (cell.baseline.asr < spec.implant_asr) {
    return "not-implanted (baseline ASR " + num(cell.baseline.asr) + "% < " +
           num(spec.implant_asr) + "%)";
  }
  for (std::size_t t = 0; t < cell.trials.size(); ++t) {
    const std::int64_t pruned = cell.trials[t].info.pruned_units;
    if (pruned < spec.min_pruned) {
      return "nothing-pruned (Grad-Prune trial " + std::to_string(t) + " kept " +
             std::to_string(pruned) + " filters)";
    }
  }
  return "";
}

// ---------------------------------------------------------------- probes

namespace {

/// Exact multiply-accumulate count of one training step (forward plus the
/// backward products that are needed) of the conv and matmul nodes
/// reachable from `root`, read from the build-time shapes of the graph.
std::int64_t train_step_macs(const bd::ag::NodePtr& root) {
  using bd::ag::OpKind;
  std::int64_t macs = 0;
  std::set<const bd::ag::Node*> seen;
  std::vector<const bd::ag::Node*> stack{root.get()};
  while (!stack.empty()) {
    const bd::ag::Node* n = stack.back();
    stack.pop_back();
    if (n == nullptr || !seen.insert(n).second) continue;
    for (const auto& in : n->inputs) stack.push_back(in.get());
    std::int64_t fwd = 0;
    if (n->kind == OpKind::kConv2d || n->kind == OpKind::kDepthwiseConv2d) {
      const bd::Shape& w = n->inputs.at(1)->shape;  // (out, in/groups, k, k)
      fwd = bd::shape_numel(n->shape) * w[1] * w[2] * w[3];
    } else if (n->kind == OpKind::kMatmul) {
      const bd::Shape& a = n->inputs.at(0)->shape;
      fwd = bd::shape_numel(n->shape) * a.back();
    } else {
      continue;
    }
    std::int64_t products = 1;
    for (std::size_t i = 0; i < 2; ++i) {
      if (n->inputs[i]->requires_grad) ++products;
    }
    macs += fwd * products;
  }
  return macs;
}

double file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

}  // namespace

void probe_layers(const CellSpec& spec, const Prepared& prepared,
                  const std::string& work_dir, Report& report) {
  const bd::eval::ExperimentScale scale = cell_scale(spec);
  const bd::eval::BackdooredModel& bd = prepared.bd;

  // One epoch of the attack-training loop on the cell's own poisoned set,
  // timed call by call: build (forward graph + loss, including the
  // mid-graph value() that training-mode BN forces), forward
  // materialization, backward, optimizer (zero_grad + step).
  Rng rng(spec.seed ^ 0x9E3779B9ULL);
  auto model = bd::models::make_model(bd.spec, rng);
  model->set_training(true);
  bd::optim::SgdOptions so;
  so.lr = scale.attack_train.lr;
  so.momentum = scale.attack_train.momentum;
  so.weight_decay = scale.attack_train.weight_decay;
  bd::optim::Sgd sgd(model->parameters(), so);
  bd::data::DataLoader loader(prepared.poisoned, scale.attack_train.batch_size, rng);
  std::vector<double> build, fwd, bwd, step;
  std::int64_t macs_total = 0, first_macs = 0;
  double step_seconds_total = 0.0;
  bd::ag::GradArena::local().reset_stats();
  bd::data::Batch batch;
  while (loader.next(batch)) {
    auto t0 = Clock::now();
    sgd.zero_grad();
    const double zero_s = seconds_since(t0);
    t0 = Clock::now();
    const bd::ag::Var logits = model->forward(bd::ag::Var(batch.images));
    bd::ag::Var loss = bd::ag::cross_entropy(logits, batch.labels);
    build.push_back(seconds_since(t0) * 1e3);
    const std::int64_t macs = train_step_macs(loss.node());
    if (first_macs == 0) first_macs = macs;
    t0 = Clock::now();
    (void)loss.value();
    fwd.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    loss.backward();
    bwd.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    sgd.step();
    step.push_back((seconds_since(t0) + zero_s) * 1e3);
    macs_total += macs;
    step_seconds_total +=
        (build.back() + fwd.back() + bwd.back() + step.back()) * 1e-3;
  }
  const bd::ag::ArenaStats arena = bd::ag::GradArena::local().stats();
  const auto n = static_cast<std::int64_t>(build.size());
  report.metric("autograd.build_ms", median(build), "ms", n);
  report.metric("autograd.fwd_ms", median(fwd), "ms", n);
  report.metric("autograd.bwd_ms", median(bwd), "ms", n);
  report.metric("optim.step_ms", median(step), "ms", n);
  report.metric("tensor.train_step_gmacs", static_cast<double>(first_macs) * 1e-9,
                "GMAC", 1, "conv+matmul, batch " +
                               std::to_string(scale.attack_train.batch_size));
  report.metric("tensor.achieved_gflops",
                2.0 * static_cast<double>(macs_total) * 1e-9 / step_seconds_total,
                "GFLOP/s", n);
  report.metric("autograd.arena_peak_bytes", static_cast<double>(arena.max_peak_bytes),
                "bytes", static_cast<std::int64_t>(arena.passes));
  report.metric("autograd.slot_allocs", static_cast<double>(arena.slot_allocs), "count",
                static_cast<std::int64_t>(arena.passes));
  // The same epoch through eval::train_classifier right after the probe,
  // so both see the same machine state.
  {
    Rng again(spec.seed ^ 0x9E3779B9ULL);
    auto fresh = bd::models::make_model(bd.spec, again);
    bd::eval::TrainConfig one = scale.attack_train;
    one.epochs = 1;
    const auto t0 = Clock::now();
    (void)bd::eval::train_classifier(*fresh, prepared.poisoned, one, again);
    const double epoch_s = seconds_since(t0);
    report.metric("eval.train_unattributed_pct",
                  100.0 * (epoch_s - step_seconds_total) / epoch_s, "%", n,
                  "train_classifier epoch minus the probe epoch's build+fwd+bwd+step");
  }

  // Inference on the trained backbone (eval mode, no grad).
  auto trained = bd.instantiate(rng);
  std::vector<double> infer;
  {
    bd::ag::NoGradGuard no_grad;
    Rng order(1);
    bd::data::DataLoader test(bd.clean_test, 64, order, /*shuffle=*/false);
    while (test.next(batch)) {
      const auto t0 = Clock::now();
      const bd::ag::Var logits = trained->forward(bd::ag::Var(batch.images));
      (void)logits.value();
      infer.push_back(seconds_since(t0) * 1e3);
    }
  }
  report.metric("models.infer_ms", median(infer), "ms",
                static_cast<std::int64_t>(infer.size()), "batch 64");

  // One score_filters call on the defender's unlearning set.
  {
    Rng trial(trial_seed(spec, 0));
    const auto spc_set = bd.clean_train_pool.sample_per_class(spec.spc, trial);
    const auto ctx = bd::defense::make_defense_context(spc_set, *bd.trigger, bd.spec, trial);
    std::vector<double> score;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      (void)bd::core::score_filters(*trained, ctx.backdoor_train, 32);
      score.push_back(seconds_since(t0) * 1e3);
    }
    report.metric("core.score_ms", median(score), "ms", 3);
  }

  // Durable checkpoint write and verified read of the backbone.
  const std::string path = work_dir + "/probe.ckpt";
  std::vector<double> save, load;
  for (int i = 0; i < 5; ++i) {
    auto t0 = Clock::now();
    bd::nn::save_checkpoint(*trained, path);
    save.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    bd::nn::load_checkpoint(*trained, path);
    load.push_back(seconds_since(t0) * 1e3);
  }
  report.metric("robust.checkpoint_save_ms", median(save), "ms", 5);
  report.metric("robust.checkpoint_load_ms", median(load), "ms", 5);
  report.metric("robust.checkpoint_bytes", file_bytes(path), "bytes", 1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- daemon

LocalServer::LocalServer(std::size_t workers, const std::string& journal_path) {
  bd::serve::ServerConfig config;
  config.socket_path = "";  // TCP only
  config.listen_address = "127.0.0.1:0";
  config.service.workers = workers;
  config.service.journal_path = journal_path;
  server_ = std::make_unique<bd::serve::SocketServer>(config);
  thread_ = std::thread([this] {
    try {
      server_->run();
    } catch (const std::exception& e) {
      std::lock_guard lock(error_mutex_);
      error_ = e.what();
    }
    exited_ = true;
  });
  for (int i = 0; i < 5000 && server_->tcp_port() == 0 && !exited_; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  port_ = server_->tcp_port();
  if (port_ == 0) {
    stop();
    std::lock_guard lock(error_mutex_);
    throw std::runtime_error("serve daemon did not start: " + error_);
  }
}

LocalServer::~LocalServer() { stop(); }

void LocalServer::stop() {
  if (!thread_.joinable()) return;
  server_->request_stop(bd::serve::StopMode::kDrain);
  thread_.join();
}

JVal serve_one(WireClient& client, const std::string& tenant, const std::string& job,
               double* submit_ms, std::vector<double>* rtt_ms) {
  auto t0 = Clock::now();
  const JVal sub = client.request("{\"op\":\"submit\",\"tenant\":" + json_string(tenant) +
                                  ",\"job\":" + job + "}");
  if (submit_ms != nullptr) *submit_ms = seconds_since(t0) * 1e3;
  if (!sub.flag("ok")) throw std::runtime_error("submit refused: " + sub.str("error"));
  const std::string id = sub.str("id");
  for (;;) {
    const JVal w = client.request("{\"op\":\"wait\",\"id\":" + json_string(id) +
                                  ",\"timeout\":0.05}");
    if (w.flag("ok")) {
      const JVal* j = w.get("job");
      return j != nullptr ? *j : w;
    }
    if (w.str("error") != "wait_timeout") {
      throw std::runtime_error("wait failed: " + w.str("error"));
    }
    if (rtt_ms != nullptr) {
      t0 = Clock::now();
      (void)client.request("{\"op\":\"ping\"}");
      rtt_ms->push_back(seconds_since(t0) * 1e3);
    }
  }
}

// ---------------------------------------------------------------- workload

namespace {

/// Set-up of a cell run: a fresh runtime pool at the workload's thread
/// count plus one warm-up training step, so the first cell starts warm.
double cell_setup(const CellSpec& spec, int threads) {
  const auto t0 = Clock::now();
  bd::runtime::set_thread_count(threads);
  Rng rng(spec.seed);
  bd::models::ModelSpec ms;
  ms.arch = spec.arch;
  ms.base_width = spec.width;
  auto model = bd::models::make_model(ms, rng);
  model->set_training(true);
  const auto scale = cell_scale(spec);
  const bd::Shape shape{scale.attack_train.batch_size, 3, scale.data.height,
                        scale.data.width};
  bd::ag::Var loss = bd::ag::cross_entropy(
      model->forward(bd::ag::Var(bd::Tensor::zeros(shape))),
      std::vector<std::int64_t>(static_cast<std::size_t>(shape[0]), 0));
  loss.backward();
  return seconds_since(t0);
}

}  // namespace

int run_cell_workload(const Options& opts, const std::string& build_info) {
  const bool mt = opts.workload == "cell-mt";
  const int threads = mt ? busy_threads() : 1;
  const CellSpec spec = pinned_cell(opts.profile, opts.seed);
  Report report;

  // One set-up takes about 0.1 s, so a single one mostly times the host.
  constexpr int kSetups = 15;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(cell_setup(spec, threads));
  const double setup_s = median(setups);
  const ThreadsInEffect in_effect = set_runtime_threads(threads);
  report.info("provenance " + provenance_json(opts, in_effect.reported, in_effect.observed) +
              " build " + build_info);
  report.info("cell arch=" + spec.arch + " attack=" + spec.attack +
              " train_per_class=" + std::to_string(spec.train_per_class) +
              " attack_epochs=" + std::to_string(spec.attack_epochs) +
              " spc=" + std::to_string(spec.spc) + " seed=" + std::to_string(spec.seed) +
              " implant_gate=ASR>=" + num(spec.implant_asr) + "%");

  Tracer off(false);
  Tracer tracer(opts.trace);
  std::vector<CellOutcome> timed, traced;
  std::string first_digest;
  std::int64_t attempted = 0, failed = 0;
  const auto check = [&](const CellOutcome& c, const std::string& unit) {
    ++attempted;
    std::string why = gate_failure(spec, c);
    if (why.empty() && !first_digest.empty() && c.digest != first_digest) {
      why = "digest " + c.digest + " != first cell's " + first_digest;
    }
    if (first_digest.empty()) first_digest = c.digest;
    std::string line = unit + " digest " + c.digest + " baseline ACC/ASR/RA " +
                       num(c.baseline.acc) + "/" + num(c.baseline.asr) + "/" +
                       num(c.baseline.ra);
    for (const TrialOutcome& t : c.trials) {
      line += " | trial ACC/ASR/RA " + num(t.metrics.acc) + "/" + num(t.metrics.asr) + "/" +
              num(t.metrics.ra) + " pruned " + std::to_string(t.info.pruned_units);
    }
    report.info(line + " | cell_s " + num(c.cell_s));
    if (!why.empty()) {
      ++failed;
      report.fail(unit, why);
    }
  };

  const auto start = Clock::now();
  std::unique_ptr<Prepared> prepared;
  do {
    const std::string id = std::to_string(timed.size());
    timed.push_back(run_cell(spec, off, "cell-" + id));
    check(timed.back(), "cell-" + id);
    if (opts.trace) {
      traced.push_back(run_cell(spec, tracer, "traced-" + id, &prepared));
      check(traced.back(), "traced-" + id);
    }
  } while (seconds_since(start) < opts.seconds);

  std::vector<double> cell_s, defense_s;
  for (const CellOutcome& c : timed) {
    cell_s.push_back(c.cell_s);
    for (const TrialOutcome& t : c.trials) defense_s.push_back(t.defense_s);
  }
  const auto n = static_cast<std::int64_t>(timed.size());

  if (!opts.trace) {
    const Tail tail = tail_with_beyond(cell_s);
    report.metric("setup_s", setup_s, "s", kSetups);
    report.metric("cell_s", median(cell_s), "s", n);
    report.metric("defense_s", median(defense_s), "s",
                  static_cast<std::int64_t>(defense_s.size()), "per Grad-Prune trial");
    // From the median cell, like cell_s: a mean over three or four cells
    // follows a single cell slowed by a neighbour on the host.
    report.metric("jobs_per_min", 60.0 / median(cell_s), "1/min", n,
                  "cells per minute at the median cell time");
    report.metric("job_p50_s", median(cell_s), "s", n, "a job is one cell");
    report.metric("job_tail_s", tail.value, "s", n,
                  "p" + num(tail.percentile) + " with " + std::to_string(tail.beyond) +
                      " cells beyond");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    const std::vector<Span> spans = tracer.spans();
    std::vector<std::string> violations;
    const std::vector<TreeRow> rows = summarize_spans(spans, violations);
    for (const std::string& v : violations) {
      ++failed;
      report.fail("span-tree", v);
    }
    std::cout << format_tree(rows);
    const std::string span_file = opts.work_dir + "/spans-" + opts.workload + ".json";
    write_spans(span_file, spans, rows);
    report.info("spans written to " + span_file);

    std::vector<double> tcell, tcpu, gp, pruned, ftep;
    for (const CellOutcome& c : traced) {
      tcell.push_back(c.cell_s);
      tcpu.push_back(c.cpu_s);
      for (const TrialOutcome& t : c.trials) {
        gp.push_back(t.info.seconds);
        pruned.push_back(static_cast<double>(t.info.pruned_units));
        ftep.push_back(static_cast<double>(t.info.finetune_epochs));
      }
    }
    const auto tn = static_cast<std::int64_t>(traced.size());
    const auto scale = cell_scale(spec);
    const double epochs = static_cast<double>(scale.attack_train.epochs);
    std::vector<double> epoch_s, samples_s;
    for (const double t : span_durations(spans, "eval.train")) {
      epoch_s.push_back(t / epochs);
      samples_s.push_back(static_cast<double>(prepared->poisoned.size()) * epochs / t);
    }
    report.metric("runtime.threads", in_effect.observed, "count", 1,
                  "threads that ran parallel_for chunks (runtime reports " +
                      std::to_string(in_effect.reported) + ")");
    report.metric("runtime.cpu_s", median(tcpu), "s", tn, "CPU seconds per cell");
    report.metric("data.synth_s", median(span_durations(spans, "data.synth")), "s", tn);
    report.metric("attack.poison_s", median(span_durations(spans, "attack.poison")), "s", tn);
    report.metric("eval.prepare_s", median(span_durations(spans, "prepare")), "s", tn);
    report.metric("eval.train_epoch_s", median(epoch_s), "s", tn);
    report.metric("eval.train_samples_per_s", median(samples_s), "1/s", tn);
    const auto trials = static_cast<std::int64_t>(gp.size());
    report.metric("eval.evaluate_s", median(span_durations(spans, "eval.evaluate")), "s",
                  tn + trials);
    report.metric("defense.context_s", median(span_durations(spans, "defense.context")),
                  "s", trials);
    report.metric("core.gradprune_s", median(gp), "s", trials, "DefenseResult.seconds");
    report.metric("core.pruned_filters", median(pruned), "count", trials);
    report.metric("core.finetune_epochs", median(ftep), "count", trials);
    report.metric("obs.trace_overhead_pct",
                  100.0 * (median(tcell) - median(cell_s)) / median(cell_s), "%", tn,
                  "traced vs untraced cell_s, probes excluded");
    probe_layers(spec, *prepared, opts.work_dir, report);

    // The same cell through the serve daemon over TCP: first a miss that
    // trains, then a hit that only defends and writes a checkpoint. The
    // served metrics must equal the library cell's.
    const std::string journal = opts.work_dir + "/cell-serve.journal";
    std::remove(journal.c_str());
    std::vector<double> rtt, submit, latency, non_defense;
    std::vector<JVal> served;
    {
      LocalServer server(1, journal);
      WireClient c(server.port());
      for (int k = 0; k < 2; ++k) {
        const std::string out = k == 1 ? opts.work_dir + "/cell-serve.ckpt" : "";
        double sub_ms = 0.0;
        const auto t0 = Clock::now();
        served.push_back(serve_one(c, "bench", job_json(spec, "gradprune", out, ""),
                                   &sub_ms, &rtt));
        latency.push_back(seconds_since(t0));
        submit.push_back(sub_ms);
        non_defense.push_back(latency.back() - served.back().number("seconds"));
      }
      server.stop();
      report.metric("serve.retries", static_cast<double>(c.retries()), "count", 2);
    }
    ++attempted;
    for (const JVal& j : served) {
      const bool same = j.str("state") == "done" &&
                        j.number("acc", -1) == timed.front().trials[0].metrics.acc &&
                        j.number("asr", -1) == timed.front().trials[0].metrics.asr &&
                        j.number("ra", -1) == timed.front().trials[0].metrics.ra &&
                        j.number("pruned", -1) ==
                            static_cast<double>(timed.front().trials[0].info.pruned_units);
      if (!same) {
        ++failed;
        report.fail("served-cell", "served job " + j.str("id") + " (" + j.str("state") +
                                       ") differs from the library cell");
        break;
      }
    }
    std::int64_t journal_lines = 0;
    {
      std::ifstream jf(journal);
      std::string line;
      while (std::getline(jf, line)) ++journal_lines;
    }
    report.metric("serve.submit_ms", median(submit), "ms", 2);
    report.metric("serve.rtt_ms", median(rtt), "ms", static_cast<std::int64_t>(rtt.size()),
                  "ping while the served cell runs");
    report.metric("serve.non_defense_s", median(non_defense), "s", 2);
    report.metric("serve.hit_job_s", latency[1], "s", 1);
    report.metric("serve.miss_job_s", latency[0], "s", 1);
    report.metric("serve.cache_hit_ratio",
                  (served[0].flag("cache_hit") ? 0.5 : 0.0) +
                      (served[1].flag("cache_hit") ? 0.5 : 0.0),
                  "ratio", 2);
    report.metric("serve.rejected", 0.0, "count", 2);
    report.metric("robust.journal_lines", static_cast<double>(journal_lines), "count", 1);
    std::remove(journal.c_str());
    std::remove((opts.work_dir + "/cell-serve.ckpt").c_str());

    if (mt) {
      // Thread-count invariance: the same cell at one runtime thread must
      // produce the same digest.
      set_runtime_threads(1);
      const CellOutcome ref = run_cell(spec, off, "reference-1t");
      set_runtime_threads(threads);
      ++attempted;
      report.info("reference-1t digest " + ref.digest);
      if (ref.digest != first_digest) {
        ++failed;
        report.fail("reference-1t", "digest " + ref.digest + " at 1 thread != " +
                                        first_digest + " at " + std::to_string(threads));
      }
    }
  }
  report.info("digest " + opts.workload + " seed " + std::to_string(opts.seed) + " " +
              first_digest);
  report.set_counts(attempted, failed);
  report.print();
  return 0;
}

}  // namespace bdbench
