#include "eval/trainer.h"

#include <limits>
#include <stdexcept>

#include "autograd/ops.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "optim/optim.h"
#include "robust/cancel.h"
#include "robust/fault_injector.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"

// Batch work (forward/backward kernels, metric evaluation) executes on the
// bd::runtime parallel engine; the loops below stay sequential because SGD
// steps and RNG draws are order-dependent. Results are bitwise identical
// for every BDPROTO_THREADS setting (see runtime/thread_pool.h) — the
// TrainGuard decisions depend only on those thread-invariant loss values,
// so recovery preserves the invariance.

namespace bd::eval {

namespace {

/// Per-batch divergence check shared by both loops. Computes the batch
/// loss (applying any armed `nan@n` fault), and either runs backward and
/// returns nullptr (healthy) or returns the reason the step must not be
/// applied. `batch_loss` always receives the observed loss.
const char* guarded_backward(robust::TrainGuard& guard, ag::Var& loss,
                             optim::Optimizer& opt, double& batch_loss) {
  batch_loss = static_cast<double>(loss.value()[0]);
  if (robust::FaultInjector::instance().fire_nan_loss()) {
    batch_loss = std::numeric_limits<double>::quiet_NaN();
  }
  if (const char* reason = guard.check_loss(batch_loss)) return reason;
  loss.backward();
  if (guard.enabled()) {
    if (const char* reason = guard.check_grad_norm(opt.grad_norm())) {
      return reason;
    }
  }
  return nullptr;
}

/// Handles a tripped guard: rolls the model back to `snapshot`, then
/// either records the exhausted retry budget (returns false: stop at the
/// snapshot) or backs the learning rate off and records the recovery
/// (returns true: retry the epoch). `prefix` names the loop in the log.
bool recover_from_trip(const char* prefix, const char* reason,
                       robust::TrainGuard& guard, models::Classifier& model,
                       const std::map<std::string, Tensor>& snapshot,
                       optim::Sgd& sgd, std::int64_t epoch, std::int64_t step,
                       double batch_loss) {
  model.load_state_dict(snapshot);
  if (!guard.can_recover()) {
    guard.record_exhausted();
    BD_LOG(Warn) << prefix << " guard: " << reason << " at epoch " << epoch
                 << " step " << step
                 << "; retry budget exhausted, stopping at last good "
                    "snapshot";
    return false;
  }
  sgd.options().lr *= static_cast<float>(guard.config().lr_backoff);
  guard.record_recovery(epoch, step, batch_loss, sgd.options().lr, reason);
  BD_LOG(Warn) << prefix << " guard: " << reason << " at epoch " << epoch
               << " step " << step << "; rolled back, retrying with lr="
               << sgd.options().lr;
  return true;
}

}  // namespace

TrainResult train_classifier(models::Classifier& model,
                             const data::ImageDataset& train,
                             const TrainConfig& config, Rng& rng) {
  if (train.empty()) {
    throw std::invalid_argument("train_classifier: empty training set");
  }
  BD_OBS_SPAN_ARG("train.run", config.epochs);
  model.set_training(true);
  if (config.verbose) {
    BD_LOG(Info) << "training on " << runtime::thread_count()
                 << " runtime thread(s)";
  }
  optim::SgdOptions opts;
  opts.lr = config.lr;
  opts.momentum = config.momentum;
  opts.weight_decay = config.weight_decay;
  optim::Sgd sgd(model.parameters(), opts);

  robust::TrainGuard guard(config.guard);
  std::map<std::string, Tensor> snapshot;
  if (guard.enabled()) snapshot = model.state_dict();

  TrainResult result;
  std::int64_t epoch = 0;
  bool stop = false;
  while (epoch < config.epochs && !stop) {
    BD_OBS_SPAN_ARG("train.epoch", epoch);
    data::DataLoader loader(train, config.batch_size, rng);
    data::Batch batch;
    double total = 0.0;
    std::int64_t seen = 0;
    std::int64_t step = 0;
    bool rolled_back = false;
    while (loader.next(batch)) {
      robust::poll_cancellation("train.batch");
      BD_OBS_SPAN_ARG("train.batch", step);
      BD_OBS_COUNT("train.batches", 1);
      BD_OBS_COUNT("train.samples", batch.size());
      data::augment_batch_inplace(batch, config.augment, rng);
      sgd.zero_grad();
      const ag::Var logits = model.forward(ag::Var(batch.images));
      ag::Var loss = ag::cross_entropy(logits, batch.labels);
      double batch_loss = 0.0;
      if (const char* reason = guarded_backward(guard, loss, sgd, batch_loss)) {
        rolled_back = recover_from_trip("train", reason, guard, model,
                                        snapshot, sgd, epoch, step, batch_loss);
        stop = !rolled_back;
        break;
      }
      {
        BD_OBS_SPAN("optim.step");
        sgd.step();
      }
      total += batch_loss * static_cast<double>(batch.size());
      seen += batch.size();
      ++step;
    }
    if (stop) break;
    if (rolled_back) continue;  // retry this epoch from the snapshot
    result.final_loss = total / static_cast<double>(seen);
    BD_OBS_GAUGE("train.epoch_loss", result.final_loss);
    if (config.verbose) {
      BD_LOG(Info) << "epoch " << (epoch + 1) << "/" << config.epochs
                   << " loss=" << result.final_loss
                   << " lr=" << sgd.options().lr;
    }
    sgd.options().lr *= config.lr_decay;
    if (guard.enabled()) snapshot = model.state_dict();
    ++epoch;
  }
  result.guard = guard.report();
  return result;
}

EarlyStopResult finetune_early_stopping(models::Classifier& model,
                                        const data::ImageDataset& train,
                                        const data::ImageDataset& val,
                                        const EarlyStopConfig& config,
                                        Rng& rng) {
  if (train.empty() || val.empty()) {
    throw std::invalid_argument("finetune_early_stopping: empty train or val");
  }
  BD_OBS_SPAN_ARG("finetune.run", config.max_epochs);
  optim::SgdOptions opts;
  opts.lr = config.lr;
  opts.momentum = config.momentum;
  opts.weight_decay = config.weight_decay;
  optim::Sgd sgd(model.parameters(), opts);

  robust::TrainGuard guard(config.guard);
  EarlyStopResult result;
  result.best_val_loss = dataset_loss(model, val);
  auto best_state = model.state_dict();
  std::map<std::string, Tensor> snapshot;
  if (guard.enabled()) snapshot = model.state_dict();
  std::int64_t epochs_without_improvement = 0;

  std::int64_t epoch = 0;
  bool stop = false;
  while (epoch < config.max_epochs && !stop) {
    BD_OBS_SPAN_ARG("finetune.epoch", epoch);
    model.set_training(true);
    data::DataLoader loader(train, config.batch_size, rng);
    data::Batch batch;
    std::int64_t step = 0;
    bool rolled_back = false;
    while (loader.next(batch)) {
      robust::poll_cancellation("finetune.batch");
      BD_OBS_SPAN_ARG("finetune.batch", step);
      BD_OBS_COUNT("finetune.batches", 1);
      sgd.zero_grad();
      const ag::Var logits = model.forward(ag::Var(batch.images));
      ag::Var loss = ag::cross_entropy(logits, batch.labels);
      double batch_loss = 0.0;
      if (const char* reason = guarded_backward(guard, loss, sgd, batch_loss)) {
        rolled_back = recover_from_trip("finetune", reason, guard, model,
                                        snapshot, sgd, epoch, step, batch_loss);
        stop = !rolled_back;
        break;
      }
      {
        BD_OBS_SPAN("optim.step");
        sgd.step();
      }
      if (config.post_step) config.post_step();
      ++step;
    }
    if (stop) break;
    if (rolled_back) continue;  // retry this epoch from the snapshot
    ++result.epochs_run;

    const double val_loss = dataset_loss(model, val);
    BD_OBS_GAUGE("finetune.val_loss", val_loss);
    if (config.verbose) {
      BD_LOG(Info) << "finetune epoch " << (epoch + 1)
                   << " val_loss=" << val_loss
                   << " best=" << result.best_val_loss;
    }
    if (val_loss < result.best_val_loss - 1e-6) {
      result.best_val_loss = val_loss;
      best_state = model.state_dict();
      epochs_without_improvement = 0;
    } else if (++epochs_without_improvement >= config.patience) {
      break;
    }
    if (guard.enabled()) snapshot = model.state_dict();
    ++epoch;
  }
  model.load_state_dict(best_state);
  model.set_training(false);
  result.guard = guard.report();
  return result;
}

data::ImageDataset concat(const data::ImageDataset& a,
                          const data::ImageDataset& b) {
  if (a.image_shape() != b.image_shape() ||
      a.num_classes() != b.num_classes()) {
    throw std::invalid_argument("concat: dataset metadata mismatch");
  }
  data::ImageDataset out(a.image_shape(), a.num_classes());
  out.reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.add(a.image(i), a.label(i));
  for (std::size_t i = 0; i < b.size(); ++i) out.add(b.image(i), b.label(i));
  return out;
}

}  // namespace bd::eval
