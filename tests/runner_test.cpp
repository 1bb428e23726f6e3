// Experiment-runner tests: scale configuration invariants and a miniature
// end-to-end run through prepare_backdoored_model / run_setting with a
// deliberately tiny custom scale.
#include <gtest/gtest.h>

#include <cstdlib>

#include "eval/runner.h"
#include "robust/fault_injector.h"
#include "robust/supervisor.h"
#include "util/env.h"

namespace bd::eval {
namespace {

ExperimentScale micro_scale() {
  ExperimentScale s;
  s.data.height = s.data.width = 8;
  s.data.train_per_class = 8;
  s.data.test_per_class = 2;
  s.attack_train.epochs = 1;
  s.base_width = 8;
  s.spc_settings = {2};
  s.trials = 1;
  s.defense_max_epochs = 2;
  s.prune_max_rounds = 3;
  s.anp_iterations = 2;
  s.nad_teacher_epochs = 1;
  s.nad_distill_epochs = 1;
  return s;
}

TEST(Scale, DefaultsAreInternallyConsistent) {
  for (const char* dataset : {"cifar", "gtsrb"}) {
    const ExperimentScale s = default_scale(dataset);
    EXPECT_GT(s.trials, 0);
    ASSERT_FALSE(s.spc_settings.empty());
    // The clean pool must be able to supply the largest SPC setting.
    EXPECT_GE(s.data.train_per_class, s.spc_settings.back());
    EXPECT_GT(s.attack_train.epochs, 0);
    EXPECT_GT(s.defense_max_epochs, 0);
  }
  EXPECT_THROW(default_scale("imagenet"), std::invalid_argument);
}

TEST(Scale, TrialsOverridableByEnv) {
  setenv("BDPROTO_TRIALS", "7", 1);
  EXPECT_EQ(default_scale("cifar").trials, 7);
  unsetenv("BDPROTO_TRIALS");
}

TEST(Runner, MicroExperimentEndToEnd) {
  const ExperimentScale scale = micro_scale();
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 42);

  EXPECT_EQ(bd.dataset, "cifar");
  EXPECT_EQ(bd.attack, "badnet");
  EXPECT_FALSE(bd.state.empty());
  EXPECT_FALSE(bd.clean_test.empty());
  EXPECT_FALSE(bd.asr_test.empty());
  EXPECT_EQ(bd.asr_test.size(), bd.ra_test.size());
  // Metrics are percentages within range; invariant holds.
  EXPECT_LE(bd.baseline.asr + bd.baseline.ra, 100.0 + 1e-9);

  // Instantiate reproduces the stored weights.
  Rng rng(1);
  auto m1 = bd.instantiate(rng);
  auto m2 = bd.instantiate(rng);
  const auto s1 = m1->state_dict();
  const auto s2 = m2->state_dict();
  for (const auto& [name, tensor] : s1) {
    const auto& other = s2.at(name);
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_EQ(tensor[i], other[i]) << name;
    }
  }

  // One defense setting runs end-to-end and aggregates per-trial vectors.
  const SettingResult setting = run_setting(bd, "clp", 2, scale, 7);
  EXPECT_EQ(setting.attack, "badnet");
  EXPECT_EQ(setting.defense, "clp");
  ASSERT_EQ(setting.acc.size(), 1u);
  ASSERT_EQ(setting.seconds.size(), 1u);
  EXPECT_GE(setting.acc[0], 0.0);
  EXPECT_LE(setting.acc[0], 100.0);
  EXPECT_LE(setting.asr[0] + setting.ra[0], 100.0 + 1e-9);
}

TEST(Runner, EveryRegisteredDefenseRunsAtMicroScale) {
  const ExperimentScale scale = micro_scale();
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "blended", scale, 43);
  for (const char* defense :
       {"ft", "fp", "nad", "clp", "ftsam", "anp", "gradprune"}) {
    const TrialResult trial = run_defense_trial(bd, defense, 2, scale, 11);
    EXPECT_GE(trial.metrics.acc, 0.0) << defense;
    EXPECT_LE(trial.metrics.asr + trial.metrics.ra, 100.0 + 1e-9) << defense;
    EXPECT_GE(trial.info.seconds, 0.0) << defense;
  }
}

// ---------------------------------------------------------------------------
// Supervised trial execution inside run_setting
// ---------------------------------------------------------------------------

/// Saves/restores the global supervisor config and keeps faults disarmed.
class RunnerSupervised : public ::testing::Test {
 protected:
  void SetUp() override {
    robust::FaultInjector::instance().reset();
    saved_config_ = robust::Supervisor::instance().config();
    robust::SupervisorConfig config;
    config.backoff_initial_seconds = 0.001;
    robust::Supervisor::instance().configure(config);
  }
  void TearDown() override {
    robust::Supervisor::instance().configure(saved_config_);
    robust::FaultInjector::instance().reset();
  }

  robust::SupervisorConfig saved_config_;
};

TEST_F(RunnerSupervised, HealthySettingReportsOneAttemptPerTrial) {
  ExperimentScale scale = micro_scale();
  scale.trials = 2;
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 44);
  const SettingResult setting = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_FALSE(setting.degraded);
  EXPECT_EQ(setting.failure, "");
  EXPECT_EQ(setting.attempts, 2);  // one attempt per trial
  EXPECT_EQ(setting.acc.size(), 2u);
}

TEST_F(RunnerSupervised, RetriedTrialReusesItsPreDrawnSeed) {
  ExperimentScale scale = micro_scale();
  scale.trials = 2;
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 44);
  const SettingResult clean = run_setting(bd, "clp", 2, scale, 9);

  // Trial 1's first attempt fails; its retry must re-derive the same seed,
  // and trial 2's seed must not shift: bit-identical metrics.
  robust::FaultInjector::instance().configure("oom_sim@1");
  const SettingResult retried = run_setting(bd, "clp", 2, scale, 9);
  robust::FaultInjector::instance().reset();

  EXPECT_FALSE(retried.degraded);
  EXPECT_EQ(retried.attempts, 3);  // trial 1 twice + trial 2 once
  EXPECT_EQ(retried.acc, clean.acc);
  EXPECT_EQ(retried.asr, clean.asr);
  EXPECT_EQ(retried.ra, clean.ra);
}

TEST_F(RunnerSupervised, QuarantinedSettingIsRefusedImmediately) {
  robust::SupervisorConfig config;
  config.backoff_initial_seconds = 0.001;
  config.max_retries = 0;
  config.quarantine_strikes = 2;
  robust::Supervisor::instance().configure(config);

  const ExperimentScale scale = micro_scale();
  const BackdooredModel bd =
      prepare_backdoored_model("cifar", "vgg", "badnet", scale, 44);

  // Two failing runs strike the config out...
  robust::FaultInjector::instance().configure("oom_sim@1,oom_sim@2");
  const SettingResult first = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_TRUE(first.degraded);
  EXPECT_EQ(first.attempts, 1);
  const SettingResult second = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_TRUE(second.degraded);
  robust::FaultInjector::instance().reset();

  // ...after which the supervisor refuses the key without running it.
  const SettingResult refused = run_setting(bd, "clp", 2, scale, 9);
  EXPECT_TRUE(refused.degraded);
  EXPECT_EQ(refused.attempts, 0);
  EXPECT_NE(refused.failure.find("quarantined"), std::string::npos);
}

}  // namespace
}  // namespace bd::eval
