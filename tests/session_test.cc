// ChaseSession pause/continue suite: a run paused at any round or trigger
// boundary and continued in memory — any number of times, also during the
// replay phase of Resume(checkpoint) and from another thread — is the
// uninterrupted run: same final instance, derivation journal (walked with
// DerivationCursor), observer event stream and ChaseStats, across all five
// variants on the staircase and elevator families and every coring
// schedule. Also pins the control surface: Pause() never touches the
// cancel token, Cancel() does, and a cancelled paused session finishes as
// cancelled.
//
// Runs under `ctest -L session`, which the tsan preset selects.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "kb/examples.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"

namespace twchase {
namespace {

enum class Family { kStaircase, kElevator };

KnowledgeBase FreshKb(Family family) {
  // A fresh world per run: fresh-null minting starts from the same
  // vocabulary state, so two runs mint the same null ids.
  if (family == Family::kStaircase) return StaircaseWorld().kb();
  return ElevatorWorld().kb();
}

struct Config {
  ChaseVariant variant;
  size_t core_every = 1;
  bool core_at_round_end = false;
};

std::string Name(Family family, const Config& config) {
  std::string name = family == Family::kStaircase ? "staircase" : "elevator";
  name += std::string("/") + ChaseVariantName(config.variant);
  if (config.core_every != 1) {
    name += "/core_every=" + std::to_string(config.core_every);
  }
  if (config.core_at_round_end) name += "/core_at_round_end";
  return name;
}

const Config kConfigs[] = {
    {ChaseVariant::kOblivious},  {ChaseVariant::kSemiOblivious},
    {ChaseVariant::kRestricted}, {ChaseVariant::kFrugal},
    {ChaseVariant::kCore},       {ChaseVariant::kCore, 3, false},
    {ChaseVariant::kCore, 1, true}};

ChaseOptions MakeOptions(Family family, const Config& config) {
  ChaseOptions options;
  options.variant = config.variant;
  options.core.core_every = config.core_every;
  options.core.core_at_round_end = config.core_at_round_end;
  options.limits.max_steps = family == Family::kStaircase ? 14 : 8;
  options.resume.record_log = true;
  return options;
}

// Calls Pause() on the session after every k-th trigger consideration
// (k > 0) and/or at every round end. A read-only tap like any observer: the
// pause flag only decides where the run parks.
class PauseObserver : public ChaseObserver {
 public:
  PauseObserver(size_t every_kth_consideration, bool at_round_ends)
      : every_(every_kth_consideration), at_round_ends_(at_round_ends) {}

  void set_session(ChaseSession* session) { session_ = session; }

  void OnTriggerConsidered(const TriggerConsideredEvent&) override {
    if (every_ != 0 && ++considered_ % every_ == 0) session_->Pause();
  }
  void OnRoundEnd(const RoundEndEvent&) override {
    if (at_round_ends_) session_->Pause();
  }

 private:
  size_t every_;
  bool at_round_ends_;
  size_t considered_ = 0;
  ChaseSession* session_ = nullptr;
};

struct RunOutput {
  ChaseResult result;
  std::string events;
  std::string checkpoint;  // serialized, when the run recorded its log
  int pauses = 0;
};

// Runs `options` on `kb` through a session, optionally Resume()ing
// `checkpoint`, with `pauser` (may be null) attached. Continues every
// pause until the run finishes. The event log includes the match and plan
// telemetry unless `telemetry` is off (a replay does no satisfaction
// searches, so only the stock stream compares with a live run's).
RunOutput Drive(const KnowledgeBase& kb, ChaseOptions options,
                PauseObserver* pauser,
                const ChaseCheckpoint* checkpoint = nullptr,
                bool telemetry = true) {
  std::ostringstream events;
  EventLogObserver log(&events, telemetry, telemetry);
  ObserverList observers;
  observers.Add(&log);
  if (pauser != nullptr) observers.Add(pauser);
  options.observer = &observers;
  auto session = ChaseSession::Create(kb, options);
  EXPECT_TRUE(session.ok()) << session.status();
  if (pauser != nullptr) pauser->set_session(session->get());
  Status status = checkpoint == nullptr ? (*session)->Start()
                                        : (*session)->Resume(*checkpoint);
  RunOutput out;
  while (status.ok() &&
         (*session)->state() == ChaseSession::State::kPaused) {
    ++out.pauses;
    status = (*session)->Continue();
  }
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ((*session)->state(), ChaseSession::State::kDone);
  if (options.resume.record_log) {
    auto made = (*session)->Checkpoint();
    EXPECT_TRUE(made.ok()) << made.status();
    if (made.ok()) out.checkpoint = SerializeCheckpoint(*made);
  }
  out.result = (*session)->TakeResult();
  out.events = events.str();
  return out;
}

void ExpectSameStats(const ChaseStats& got, const ChaseStats& want) {
  EXPECT_EQ(got.triggers_found, want.triggers_found);
  EXPECT_EQ(got.triggers_considered, want.triggers_considered);
  EXPECT_EQ(got.full_enumerations, want.full_enumerations);
  EXPECT_EQ(got.seed_probes, want.seed_probes);
  EXPECT_EQ(got.matches_invalidated, want.matches_invalidated);
  EXPECT_EQ(got.core_full, want.core_full);
  EXPECT_EQ(got.peak_instance_size, want.peak_instance_size);
  EXPECT_EQ(got.parallel_tasks, want.parallel_tasks);
  EXPECT_EQ(got.parallel_eval_ms, want.parallel_eval_ms);
  EXPECT_EQ(got.parallel_merge_ms, want.parallel_merge_ms);
  EXPECT_EQ(got.parallel_max_imbalance, want.parallel_max_imbalance);
  EXPECT_EQ(got.match_index_probes, want.match_index_probes);
  EXPECT_EQ(got.match_column_scans, want.match_column_scans);
  EXPECT_EQ(got.match_join_fallbacks, want.match_join_fallbacks);
  EXPECT_EQ(got.match_index_builds, want.match_index_builds);
  EXPECT_EQ(got.match_index_build_bytes, want.match_index_build_bytes);
  EXPECT_EQ(got.plan_reliance_edges, want.plan_reliance_edges);
  EXPECT_EQ(got.plan_strata, want.plan_strata);
  EXPECT_EQ(got.plan_dormant_rules, want.plan_dormant_rules);
  EXPECT_EQ(got.plan_enumerations_skipped, want.plan_enumerations_skipped);
  EXPECT_EQ(got.plan_probes_skipped, want.plan_probes_skipped);
  EXPECT_EQ(got.plan_core_proofs, want.plan_core_proofs);
  EXPECT_EQ(got.plan_core_certified, want.plan_core_certified);
}

// Final instance, journal (every element F_i rebuilt by DerivationCursor),
// event stream, ChaseStats and the recorded log.
void ExpectSameRun(const RunOutput& got, const RunOutput& want) {
  const ChaseResult& g = got.result;
  const ChaseResult& w = want.result;
  EXPECT_EQ(g.stop_reason, w.stop_reason);
  EXPECT_EQ(g.steps, w.steps);
  EXPECT_EQ(g.rounds, w.rounds);
  EXPECT_EQ(g.terminated, w.terminated);
  EXPECT_EQ(g.derivation.Last().size(), w.derivation.Last().size());
  EXPECT_EQ(g.derivation.Last().ContentHash(),
            w.derivation.Last().ContentHash());
  ASSERT_EQ(g.derivation.size(), w.derivation.size());
  DerivationCursor got_f(g.derivation);
  DerivationCursor want_f(w.derivation);
  for (size_t i = 0; i < g.derivation.size();
       ++i, got_f.Next(), want_f.Next()) {
    SCOPED_TRACE("step " + std::to_string(i));
    const DerivationStep& gs = g.derivation.step(i);
    const DerivationStep& ws = w.derivation.step(i);
    EXPECT_EQ(gs.rule_index, ws.rule_index);
    EXPECT_EQ(gs.match, ws.match);
    EXPECT_EQ(gs.simplification, ws.simplification);
    EXPECT_EQ(gs.added_atoms, ws.added_atoms);
    EXPECT_EQ(gs.instance_size, ws.instance_size);
    EXPECT_EQ(got_f.instance().ContentHash(), want_f.instance().ContentHash());
  }
  EXPECT_EQ(got.events, want.events);
  ExpectSameStats(g.stats, w.stats);
  EXPECT_EQ(got.checkpoint, want.checkpoint);
}

TEST(SessionPauseTest, ContinuedRunsEqualUninterruptedRuns) {
  struct Mode {
    const char* name;
    size_t every_kth;
    bool at_round_ends;
  };
  const Mode modes[] = {{"every consideration", 1, false},
                        {"every 3rd consideration", 3, false},
                        {"round boundaries", 0, true}};
  for (Family family : {Family::kStaircase, Family::kElevator}) {
    for (const Config& config : kConfigs) {
      const ChaseOptions options = MakeOptions(family, config);
      const RunOutput golden = Drive(FreshKb(family), options, nullptr);
      ASSERT_GT(golden.result.steps, 0u) << Name(family, config);
      for (const Mode& mode : modes) {
        SCOPED_TRACE(Name(family, config) + ", pause at " + mode.name);
        PauseObserver pauser(mode.every_kth, mode.at_round_ends);
        const RunOutput paused = Drive(FreshKb(family), options, &pauser);
        EXPECT_GT(paused.pauses, 0) << "no pause landed; test lost its purpose";
        ExpectSameRun(paused, golden);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// A run without the resume log pauses and continues just the same; only
// Checkpoint() needs the log.
TEST(SessionPauseTest, PauseNeedsNoResumeLog) {
  ChaseOptions options = MakeOptions(Family::kStaircase, {ChaseVariant::kCore});
  options.resume.record_log = false;
  const RunOutput golden = Drive(FreshKb(Family::kStaircase), options, nullptr);
  PauseObserver pauser(2, false);
  const RunOutput paused =
      Drive(FreshKb(Family::kStaircase), options, &pauser);
  EXPECT_GT(paused.pauses, 0);
  ExpectSameRun(paused, golden);
}

// A checkpoint taken from a paused session resumes to the uninterrupted
// run; pauses land inside its replay (the recorded prefix holds far more
// considerations than the pause point) and after it, and the continued
// resume equals the one-shot resume.
TEST(SessionPauseTest, PausesDuringReplayContinueBitIdentically) {
  for (Family family : {Family::kStaircase, Family::kElevator}) {
    for (const Config& config : kConfigs) {
      SCOPED_TRACE(Name(family, config));
      const ChaseOptions options = MakeOptions(family, config);
      const RunOutput golden =
          Drive(FreshKb(family), options, nullptr, nullptr, false);
      ASSERT_GT(golden.result.stats.triggers_considered, 4u);

      KnowledgeBase paused_kb = FreshKb(family);
      PauseObserver midpoint(golden.result.stats.triggers_considered / 2,
                             false);
      ChaseOptions paused_options = options;
      paused_options.observer = &midpoint;
      auto paused_session = ChaseSession::Create(paused_kb, paused_options);
      ASSERT_TRUE(paused_session.ok()) << paused_session.status();
      midpoint.set_session(paused_session->get());
      ASSERT_TRUE((*paused_session)->Start().ok());
      ASSERT_EQ((*paused_session)->state(), ChaseSession::State::kPaused);
      auto checkpoint = (*paused_session)->Checkpoint();
      ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();

      const RunOutput resumed =
          Drive(FreshKb(family), options, nullptr, &*checkpoint, false);
      PauseObserver pauser(2, false);
      const RunOutput paused =
          Drive(FreshKb(family), options, &pauser, &*checkpoint, false);
      EXPECT_GT(paused.pauses, 0);
      ExpectSameRun(paused, resumed);
      EXPECT_EQ(paused.events, golden.events);
      EXPECT_EQ(paused.checkpoint, golden.checkpoint);
      EXPECT_EQ(paused.result.derivation.Last().ContentHash(),
                golden.result.derivation.Last().ContentHash());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Pause() is a session flag: a caller's shared cancel token never sees it.
TEST(SessionControlTest, PauseLeavesTheCallersTokenAlone) {
  const ChaseOptions options =
      MakeOptions(Family::kStaircase, {ChaseVariant::kCore});
  const RunOutput golden = Drive(FreshKb(Family::kStaircase), options, nullptr);

  KnowledgeBase kb = FreshKb(Family::kStaircase);
  std::ostringstream events;
  EventLogObserver log(&events, true, true);
  PauseObserver pauser(5, false);
  ObserverList observers;
  observers.Add(&log);
  observers.Add(&pauser);
  ChaseOptions with_token = options;
  CancelToken token = CancelToken::Create();
  with_token.limits.cancel = token;
  with_token.observer = &observers;
  auto session = ChaseSession::Create(kb, with_token);
  ASSERT_TRUE(session.ok()) << session.status();
  pauser.set_session(session->get());

  ASSERT_TRUE((*session)->Start().ok());
  ASSERT_EQ((*session)->state(), ChaseSession::State::kPaused);
  EXPECT_FALSE(token.cancel_requested());
  int continues = 0;
  while ((*session)->state() == ChaseSession::State::kPaused) {
    ASSERT_TRUE((*session)->Continue().ok());
    EXPECT_FALSE(token.cancel_requested());
    ++continues;
  }
  EXPECT_GT(continues, 0);
  RunOutput paused;
  auto checkpoint = (*session)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  paused.checkpoint = SerializeCheckpoint(*checkpoint);
  paused.result = (*session)->TakeResult();
  paused.events = events.str();
  ExpectSameRun(paused, golden);
}

TEST(SessionControlTest, CancelFiresTheCallersToken) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  ChaseOptions options = MakeOptions(Family::kStaircase, {ChaseVariant::kCore});
  CancelToken token = CancelToken::Create();
  options.limits.cancel = token;
  auto session = ChaseSession::Create(kb, options);
  ASSERT_TRUE(session.ok()) << session.status();
  (*session)->Cancel();
  EXPECT_TRUE(token.cancel_requested());
  ASSERT_TRUE((*session)->Start().ok());
  EXPECT_EQ((*session)->state(), ChaseSession::State::kDone);
  EXPECT_EQ((*session)->stop_reason(), StopReason::kCancelled);
  EXPECT_EQ((*session)->Result().steps, 0u);
}

TEST(SessionControlTest, CancelDuringAPauseFinishesCancelled) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  ChaseOptions options = MakeOptions(Family::kStaircase, {ChaseVariant::kCore});
  std::ostringstream events;
  EventLogObserver log(&events);
  PauseObserver pauser(4, false);
  ObserverList observers;
  observers.Add(&log);
  observers.Add(&pauser);
  options.observer = &observers;
  auto session = ChaseSession::Create(kb, options);
  ASSERT_TRUE(session.ok()) << session.status();
  pauser.set_session(session->get());

  ASSERT_TRUE((*session)->Start().ok());
  ASSERT_EQ((*session)->state(), ChaseSession::State::kPaused);
  (*session)->Cancel();
  // Still parked until the owner continues it; the paused prefix stays
  // checkpointable.
  EXPECT_EQ((*session)->state(), ChaseSession::State::kPaused);
  auto paused_checkpoint = (*session)->Checkpoint();
  ASSERT_TRUE(paused_checkpoint.ok()) << paused_checkpoint.status();

  ASSERT_TRUE((*session)->Continue().ok());
  EXPECT_EQ((*session)->state(), ChaseSession::State::kDone);
  EXPECT_EQ((*session)->stop_reason(), StopReason::kCancelled);
  // The cancelled run is exactly the paused prefix: no step past the pause.
  EXPECT_EQ((*session)->Result().steps, paused_checkpoint->steps);
  EXPECT_EQ((*session)->Result().derivation.Last().ContentHash(),
            paused_checkpoint->instance_hash);
  // One RunEnd, for the cancelled finish.
  const std::string stream = events.str();
  EXPECT_EQ(stream.find("run_end"), stream.rfind("run_end"));
  EXPECT_NE(stream.find("\"stop_reason\": \"cancelled\""),
            std::string::npos)
      << stream;
}

TEST(SessionControlTest, LifecycleTransitionsAreChecked) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  auto session = ChaseSession::Create(
      kb, MakeOptions(Family::kStaircase, {ChaseVariant::kRestricted}));
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ((*session)->Continue().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*session)->Start().ok());
  EXPECT_EQ((*session)->state(), ChaseSession::State::kDone);
  EXPECT_EQ((*session)->Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Continue().code(), StatusCode::kFailedPrecondition);
}

// Pause() from another thread while the owner runs and continues: wherever
// the requests land, the run is the uninterrupted one. Under the tsan
// preset this race-checks the pause flag against the engine loop.
TEST(SessionControlTest, CrossThreadPausesContinueBitIdentically) {
  ChaseOptions options = MakeOptions(Family::kStaircase, {ChaseVariant::kCore});
  options.limits.max_steps = 60;
  const RunOutput golden = Drive(FreshKb(Family::kStaircase), options, nullptr);

  KnowledgeBase kb = FreshKb(Family::kStaircase);
  std::ostringstream events;
  EventLogObserver log(&events, true, true);
  ChaseOptions observed = options;
  observed.observer = &log;
  auto session = ChaseSession::Create(kb, observed);
  ASSERT_TRUE(session.ok()) << session.status();
  std::atomic<bool> stop{false};
  std::thread pauser([&] {
    while (!stop.load()) {
      (*session)->Pause();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Status status = (*session)->Start();
  while (status.ok() &&
         (*session)->state() == ChaseSession::State::kPaused) {
    status = (*session)->Continue();
  }
  stop.store(true);
  pauser.join();
  ASSERT_TRUE(status.ok()) << status;
  RunOutput paused;
  auto checkpoint = (*session)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  paused.checkpoint = SerializeCheckpoint(*checkpoint);
  paused.result = (*session)->TakeResult();
  paused.events = events.str();
  ExpectSameRun(paused, golden);
}

}  // namespace
}  // namespace twchase
