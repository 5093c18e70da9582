// ChaseSession: the lifecycle handle for one chase run, and the primary
// entry point of the engine. A session owns the validated ChaseOptions, the
// cancellation token its control surface drives and, while the run is live,
// the engine state itself: the instance, the per-rule match sets, the delta
// index, the execution plan, the still-core guard, the coring cadence and
// the current round's ordered triggers. The free functions RunChase and
// ResumeChase (core/chase.h, core/checkpoint.h) are one-shot wrappers over
// a session.
//
// One process hosts many chases at once (the multi-tenant daemon in
// src/service/): each job needs its own governor, its own observers, and a
// control surface that another thread can drive — preempt a long job at a
// clean boundary and continue it later, in memory.
//
// State machine:
//
//     kIdle --Start()/Resume(cp)--> kRunning --+--> kDone    (fixpoint,
//                                     ^        |              budget or
//                                     |        |              cancel)
//                                     |        +--> kPaused  (Pause() was
//                                     |        |             requested)
//                                Continue()    |
//                                     +--------+
//
// Start()/Resume()/Continue() execute synchronously on the calling thread
// (the daemon runs them on scheduler workers). Pause() and Cancel() are
// thread-safe asynchronous requests. A pause is honoured only at a round or
// trigger boundary, where nothing is half-committed; a cancel stops the run
// at the next governed boundary (searches included) with
// StopReason::kCancelled. Pausing and continuing any number of times yields
// exactly the uninterrupted run: same final instance, derivation journal,
// ChaseStats and observer event stream (a paused run emits no RunEnd, a
// continued one no second RunBegin).
//
// Checkpoints are for restarts only: Checkpoint() turns a paused or
// finished run into a ChaseCheckpoint, and Resume() on a NEW session over a
// freshly parsed copy of the program replays it (core/checkpoint.h).
//
// Thread-safety: Start/Resume/Continue/Result/TakeResult/Checkpoint belong
// to the owning (worker) thread; Pause/Cancel/state may be called from any
// thread.
#ifndef TWCHASE_CORE_SESSION_H_
#define TWCHASE_CORE_SESSION_H_

#include <atomic>
#include <memory>
#include <optional>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "kb/knowledge_base.h"
#include "util/status.h"

namespace twchase {

class ChaseSession {
 public:
  enum class State {
    kIdle,     // created, not yet started
    kRunning,  // Start()/Resume()/Continue() executing on the owning thread
    kPaused,   // parked at a boundary by Pause(); Continue() goes on
    kDone,     // fixpoint, exhausted budget, cancelled, or failed
  };

  /// Validates `options` (vocabulary first, then ChaseOptions::Validate)
  /// and builds an idle session. `kb` is borrowed and must outlive the
  /// session. If the caller's options carry no cancel token, the session
  /// mints one so that Cancel() always works; a caller-provided token is
  /// kept and shared (external cancellation still stops the run, reported
  /// as kDone).
  static StatusOr<std::unique_ptr<ChaseSession>> Create(
      const KnowledgeBase& kb, const ChaseOptions& options);

  ~ChaseSession();

  /// Runs the chase on the calling thread until it finishes (kDone) or
  /// parks at a requested pause (kPaused). Returns OK when the engine
  /// produced a result or parked (a budget-stopped or cancelled prefix is a
  /// recoverable outcome, not an error). FailedPrecondition if the session
  /// is not idle.
  Status Start();

  /// Starts a checkpointed run: validates the checkpoint against kb and
  /// options (variant, schedule echo, fingerprint, fresh-vocabulary state),
  /// replays the recorded prefix and goes live. Same threading and outcome
  /// contract as Start(); a pause may park the run during the replay.
  Status Resume(const ChaseCheckpoint& checkpoint);

  /// Continues a paused run in memory from the boundary where it parked,
  /// under a fresh governor (limits.deadline_ms bounds each call). Same
  /// outcome contract as Start(). FailedPrecondition unless kPaused.
  Status Continue();

  /// Requests a pause from any thread: the run parks at its next round or
  /// trigger boundary. A run that finishes first ignores it; a request made
  /// while the session is not running parks the next segment at its first
  /// boundary.
  void Pause();

  /// Requests cancellation from any thread by firing the options' cancel
  /// token: the run stops at the next governed boundary with
  /// StopReason::kCancelled. A paused session stops at the first boundary
  /// of its next Continue() and lands in kDone.
  void Cancel();

  /// The finished run (kDone).
  const ChaseResult& Result() const;

  /// Moves the result out (for callers that return it by value). The
  /// session keeps its terminal state but the result is gone.
  ChaseResult TakeResult();

  /// Builds the checkpoint of a kPaused or kDone session. FailedPrecondition
  /// while running/idle, without a recorded log (resume.record_log), or
  /// after TakeResult.
  StatusOr<ChaseCheckpoint> Checkpoint() const;

  State state() const { return state_.load(std::memory_order_acquire); }

  /// Meaningful once the session is kDone.
  StopReason stop_reason() const { return result_.stop_reason; }

 private:
  struct Run;  // the engine state, core/chase.cc

  ChaseSession(const KnowledgeBase& kb, const ChaseOptions& options);

  /// Moves `from` -> kRunning, drives the run (building it first when
  /// leaving kIdle, replaying `replay` if given) and lands in kPaused or
  /// kDone.
  Status Enter(State from, std::optional<ResumeLog> replay);

  const KnowledgeBase* kb_;
  ChaseOptions options_;

  std::atomic<State> state_{State::kIdle};
  std::atomic<bool> pause_requested_{false};
  std::unique_ptr<Run> run_;  // from start until the run finishes
  ChaseResult result_;
  bool has_result_ = false;
};

const char* ChaseSessionStateName(ChaseSession::State state);

}  // namespace twchase

#endif  // TWCHASE_CORE_SESSION_H_
