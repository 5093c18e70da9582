#include "service/daemon.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/preflight.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "hom/answers.h"
#include "hom/matcher.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "util/stopwatch.h"

namespace twchase {
namespace {

std::string Sprintf(const char* format, ...) {
  // Sized exactly: the result text is diffed byte-for-byte against the
  // CLI's (untruncated) printf output, so a fixed buffer would silently
  // diverge on long query lines.
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  int needed = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(&out[0], out.size(), format, args);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args);
  return out;
}

HttpResponse JsonResponse(int status, const Json& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump() + "\n";
  return response;
}

HttpResponse StatusResponse(const Status& status,
                            const std::vector<FieldError>& fields = {}) {
  return JsonResponse(HttpStatusForStatus(status), ErrorJson(status, fields));
}

// Inverse of StatusCodeName, for rehydrating persisted structured errors.
StatusCode StatusCodeFromName(const std::string& name) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace

/// One chase job: a program run as a sequence of scheduler segments. The
/// job keeps the program parsed at admission, the ChaseSession and the
/// event capture for its whole life. The first segment Start()s or
/// Resume()s the session; every later one Continue()s it in memory from
/// where the preemption parked it. All cross-thread state (the session
/// pointer for Pause/Cancel, the rendered result for the HTTP handlers)
/// sits behind one mutex; the chase itself runs outside it.
class ChaseDaemon::ChaseJob : public PreemptibleJob {
 public:
  /// `program` is the parse of request.program, in its start state; null
  /// only for a job that never runs (a recovered terminal or unrecoverable
  /// one).
  ChaseJob(std::string id, JobRequest request, ChaseDaemon* daemon,
           std::unique_ptr<ParsedProgram> program = nullptr)
      : id_(std::move(id)),
        request_(std::move(request)),
        daemon_(daemon),
        program_(std::move(program)) {}

  /// Rehydrates a job that finished before a restart: the retained outcome
  /// (terminal result or structured error) is served again, no segment
  /// ever runs.
  static std::shared_ptr<ChaseJob> Recovered(ChaseDaemon* daemon,
                                             const RecoveredJob& record) {
    auto job = std::make_shared<ChaseJob>(record.id, record.request, daemon);
    std::lock_guard<std::mutex> lock(job->mu_);
    job->state_ = record.terminal_state;
    if (record.terminal_state == "failed") {
      job->error_ = Status(StatusCodeFromName(record.error_code),
                           record.error_message);
    } else {
      job->result_ = record.result;
      job->has_result_ = true;
    }
    return job;
  }

  const std::string& id() const { return id_; }
  const std::string& tenant() const { return request_.tenant; }

  std::string state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  bool terminal() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == "done" || state_ == "cancelled" || state_ == "failed";
  }

  /// Startup-recovery failure: records the structured error. The caller
  /// appends the durable failed record itself (the persist hook is not
  /// used, to keep recovery's write in one place).
  void MarkUnrecoverable(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    error_ = status;
    state_ = "failed";
  }

  /// Replaces the first segment's resume source with the recovered
  /// snapshot. Only before Submit (no concurrent segment yet).
  void SeedResumeCheckpoint(std::string checkpoint_text) {
    request_.resume_checkpoint = std::move(checkpoint_text);
  }

  /// Seeds an auto-variant resolution made outside the job (startup
  /// recovery resolves against the re-parsed program before re-admission).
  /// Only before Submit (no concurrent segment yet).
  void SeedResolvedPreflight(const ChaseOptions& resolved,
                             std::string summary) {
    request_.options = resolved;
    preflight_summary_ = std::move(summary);
  }

  Outcome RunSegment() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      state_ = "running";
      ++segments_;
    }
    Stopwatch stopwatch;
    Status run = session_ == nullptr ? StartSession() : session_->Continue();

    std::lock_guard<std::mutex> lock(mu_);
    elapsed_seconds_ += stopwatch.ElapsedSeconds();
    if (!run.ok()) return TerminalLocked(run);

    if (session_->state() == ChaseSession::State::kPaused) {
      state_ = "paused";
      // With a store, every preemption boundary is a durability boundary: a
      // SIGKILL after this line resumes from exactly here.
      Status persisted = daemon_->PersistSnapshot(id_, *session_);
      if (!persisted.ok()) return TerminalLocked(persisted);
      return Outcome::kPaused;
    }

    if (session_->stop_reason() == StopReason::kCancelled &&
        daemon_->WantShutdownSnapshot()) {
      // Graceful shutdown cancelled this run, not a client: snapshot the
      // stopped prefix instead of recording a cancelled terminal, so the
      // restarted daemon re-admits and resumes it. The session is
      // kDone-with-log, which Checkpoint() accepts.
      if (daemon_->PersistSnapshot(id_, *session_).ok()) {
        state_ = "paused";
        return Outcome::kCompleted;  // drains the scheduler slot cleanly
      }
      // Checkpoint unavailable: fall through to the cancelled terminal.
    }

    RenderResultLocked();
    state_ = session_->stop_reason() == StopReason::kCancelled ? "cancelled"
                                                               : "done";
    result_.Set("state", Json::String(state_));
    FoldMetricsLocked();
    daemon_->PersistTerminal(id_, state_, result_);
    // The rendered result is all a finished job keeps.
    session_.reset();
    program_.reset();
    events_.str(std::string());
    return Outcome::kCompleted;
  }

  void RequestPause() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == "running" && session_ != nullptr) session_->Pause();
  }

  void RequestCancel() override {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_requested_ = true;
    if (session_ != nullptr) session_->Cancel();
  }

  Json StatusJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    Json json = Json::Object();
    json.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
    json.Set("id", Json::String(id_));
    json.Set("tenant", Json::String(request_.tenant));
    json.Set("state", Json::String(state_));
    json.Set("segments", Json::Number(segments_));
    json.Set("cancel_requested", Json::Bool(cancel_requested_));
    if (request_.options.preflight.auto_variant) {
      json.Set("preflight", PreflightJsonLocked());
    }
    if (state_ == "failed") {
      json.Set("error", Json::String(error_.ToString()));
    }
    return json;
  }

  /// FailedPrecondition while the job is still in flight.
  StatusOr<Json> ResultJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == "failed") {
      return ErrorJson(error_);
    }
    if (!has_result_) {
      return Status::FailedPrecondition("job " + id_ + " is " + state_ +
                                        "; the result exists once it is "
                                        "done or cancelled");
    }
    return result_;
  }

  bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == "failed";
  }

 private:
  /// The first segment: resolves --variant=auto, builds the session and
  /// Start()s it, or Resume()s the submitted (or recovered) checkpoint.
  Status StartSession() {
    // --variant=auto: resolve once and pin the decision into the job's
    // options — the checkpoint fingerprint folds the verdict, so snapshots
    // must see the same resolution.
    if (request_.options.preflight.auto_variant &&
        !request_.options.preflight.resolved) {
      ChaseOptions resolved = request_.options;
      auto report =
          ResolveAutoVariant(program_->kb, PreflightOptions{}, &resolved);
      if (!report.ok()) return report.status();
      std::lock_guard<std::mutex> lock(mu_);
      request_.options = resolved;
      preflight_summary_ = report->Summary();
    }

    // The resume log costs memory proportional to the run; record it only
    // where a checkpoint can be asked for: durable snapshots and
    // return_checkpoint.
    ChaseOptions options = request_.options;
    options.resume.record_log = options.resume.record_log ||
                                request_.return_checkpoint ||
                                daemon_->store_ != nullptr;
    if (request_.capture_events) {
      event_log_.emplace(&events_);
      observers_.Add(&*event_log_);
      options.observer = &observers_;
    }
    auto session = ChaseSession::Create(program_->kb, options);
    if (!session.ok()) return session.status();
    {
      std::lock_guard<std::mutex> lock(mu_);
      session_ = std::move(*session);
      if (cancel_requested_) session_->Cancel();
    }
    if (request_.resume_checkpoint.empty()) return session_->Start();
    auto checkpoint = ParseCheckpoint(request_.resume_checkpoint);
    if (!checkpoint.ok()) return checkpoint.status();
    return session_->Resume(*checkpoint);
  }

  /// Marks the job failed and returns kFailed for RunSegment. Holds mu_.
  Outcome TerminalLocked(const Status& status) {
    error_ = status;
    state_ = "failed";
    session_.reset();
    program_.reset();
    daemon_->PersistFailed(id_, status);
    return Outcome::kFailed;
  }

  /// Renders the terminal payload from the finished session. Holds mu_.
  void RenderResultLocked();
  void FoldMetricsLocked();

  /// The --variant=auto provenance payload for status and result bodies.
  Json PreflightJsonLocked() const {
    Json preflight = Json::Object();
    preflight.Set("resolved", Json::Bool(request_.options.preflight.resolved));
    if (request_.options.preflight.resolved) {
      preflight.Set("variant",
                    Json::String(ChaseVariantName(request_.options.variant)));
      preflight.Set("verdict",
                    Json::String(TerminationClassName(
                        static_cast<TerminationClass>(
                            request_.options.preflight.verdict))));
      if (!preflight_summary_.empty()) {
        preflight.Set("summary", Json::String(preflight_summary_));
      }
    }
    return preflight;
  }

  mutable std::mutex mu_;
  const std::string id_;
  JobRequest request_;
  ChaseDaemon* daemon_;

  std::string state_ = "queued";  // queued|running|paused|done|cancelled|failed
  bool cancel_requested_ = false;
  uint64_t segments_ = 0;
  double elapsed_seconds_ = 0;
  std::string preflight_summary_;

  // The live run, from admission to the terminal segment. The session
  // borrows the program's knowledge base and reports to the observers.
  std::unique_ptr<ParsedProgram> program_;
  std::ostringstream events_;
  std::optional<EventLogObserver> event_log_;
  ObserverList observers_;
  std::unique_ptr<ChaseSession> session_;

  Status error_;
  Json result_;
  bool has_result_ = false;
};

void ChaseDaemon::ChaseJob::RenderResultLocked() {
  const ChaseResult& run = session_->Result();
  const ParsedProgram& program = *program_;
  const KnowledgeBase& kb = program.kb;
  const AtomSet& instance = run.derivation.Last();

  // CLI-identical text first — the smoke gate diffs this against the CLI's
  // stdout (timings normalized), so every byte matters.
  std::string text;
  text += Sprintf("program: %zu facts, %zu rules, %zu queries\n",
                  kb.facts.size(), kb.rules.size(), program.queries.size());
  if (request_.options.preflight.auto_variant &&
      !preflight_summary_.empty()) {
    // Mirrors the CLI's --variant=auto output (the smoke gate diffs auto
    // jobs too; explicit-variant jobs never print this line).
    text += Sprintf("preflight: %s\n", preflight_summary_.c_str());
  }
  text += Sprintf(
      "%s chase: %zu steps in %zu rounds, %.3fs, stop: %s; |result| = %zu\n",
      ChaseVariantName(request_.options.variant), run.steps, run.rounds,
      elapsed_seconds_, StopReasonName(run.stop_reason), instance.size());

  Json queries = Json::Array();
  for (size_t q = 0; q < program.queries.size(); ++q) {
    const ParsedQuery& query = program.queries[q];
    Json entry = Json::Object();
    entry.Set("query", Json::String(PrintQuery(query, *kb.vocab)));
    if (query.answer_vars.empty()) {
      bool entailed = ExistsHomomorphism(query.atoms, instance);
      const char* certainty =
          run.terminated ? "" : (entailed ? "" : " (within budget)");
      text += Sprintf("query %zu: %-40s -> %s%s\n", q + 1,
                      PrintQuery(query, *kb.vocab).c_str(),
                      entailed ? "entailed" : "not entailed", certainty);
      entry.Set("entailed", Json::Bool(entailed));
      entry.Set("certain", Json::Bool(run.terminated || entailed));
    } else {
      AnswerOptions answer_options;
      answer_options.ground_only = true;
      auto answers = AnswerQuery(instance, query.atoms, query.answer_vars,
                                 answer_options);
      text += Sprintf("query %zu: %-40s -> %zu certain answer(s)\n", q + 1,
                      PrintQuery(query, *kb.vocab).c_str(), answers.size());
      Json tuples = Json::Array();
      for (const auto& tuple : answers) {
        text += "    (";
        Json rendered = Json::Array();
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (i > 0) text += ", ";
          text += kb.vocab->TermName(tuple[i]);
          rendered.Append(Json::String(kb.vocab->TermName(tuple[i])));
        }
        text += ")\n";
        tuples.Append(std::move(rendered));
      }
      entry.Set("answers", std::move(tuples));
    }
    queries.Append(std::move(entry));
  }

  result_ = Json::Object();
  result_.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  result_.Set("id", Json::String(id_));
  result_.Set("tenant", Json::String(request_.tenant));
  result_.Set("state", Json::String("done"));  // overwritten by the caller
  result_.Set("stop_reason",
              Json::String(StopReasonName(run.stop_reason)));
  result_.Set("terminated", Json::Bool(run.terminated));
  result_.Set("steps", Json::Number(uint64_t{run.steps}));
  result_.Set("rounds", Json::Number(uint64_t{run.rounds}));
  result_.Set("segments", Json::Number(segments_));
  result_.Set("elapsed_seconds", Json::Number(elapsed_seconds_));
  Json program_info = Json::Object();
  program_info.Set("facts", Json::Number(uint64_t{kb.facts.size()}));
  program_info.Set("rules", Json::Number(uint64_t{kb.rules.size()}));
  program_info.Set("queries", Json::Number(uint64_t{program.queries.size()}));
  result_.Set("program", std::move(program_info));
  result_.Set("instance_size", Json::Number(uint64_t{instance.size()}));
  // Hex string: ContentHash spans all 64 bits, which double cannot carry.
  result_.Set("instance_hash",
              Json::String(Sprintf("%016" PRIx64, instance.ContentHash())));
  result_.Set("queries", std::move(queries));
  if (request_.options.preflight.auto_variant) {
    result_.Set("preflight", PreflightJsonLocked());
  }
  result_.Set("text", Json::String(text));
  if (request_.capture_events) {
    result_.Set("events", Json::String(events_.str()));
  }
  if (request_.return_checkpoint) {
    auto checkpoint = session_->Checkpoint();
    if (checkpoint.ok()) {
      result_.Set("checkpoint",
                  Json::String(SerializeCheckpoint(*checkpoint)));
    }
  }
  has_result_ = true;
}

void ChaseDaemon::ChaseJob::FoldMetricsLocked() {
  MetricsRegistry job_metrics;
  job_metrics.GetCounter("service.jobs.steps")
      ->Increment(static_cast<uint64_t>(result_.Get("steps").number_value()));
  job_metrics.GetCounter("service.jobs.rounds")
      ->Increment(static_cast<uint64_t>(result_.Get("rounds").number_value()));
  job_metrics.GetCounter("service.jobs.segments")->Increment(segments_);
  job_metrics.GetHistogram("service.job.steps")
      ->Observe(result_.Get("steps").number_value());
  job_metrics.GetHistogram("service.job.elapsed_seconds")
      ->Observe(elapsed_seconds_);
  job_metrics.GetHistogram("service.job.instance_size")
      ->Observe(result_.Get("instance_size").number_value());
  daemon_->FoldJobMetrics(job_metrics);
}

ChaseDaemon::ChaseDaemon(const DaemonOptions& options)
    : options_(options),
      scheduler_([&options] {
        JobScheduler::Options scheduler_options;
        scheduler_options.workers = options.workers;
        scheduler_options.per_tenant_quota = options.per_tenant_quota;
        scheduler_options.preempt_after_ms = options.preempt_after_ms;
        return scheduler_options;
      }()) {}

ChaseDaemon::~ChaseDaemon() { Stop(); }

Status ChaseDaemon::Start() {
  start_time_ = std::chrono::steady_clock::now();
  if (!options_.state_dir.empty()) {
    JobStoreOptions store_options;
    store_options.state_dir = options_.state_dir;
    auto store = JobStore::Open(store_options);
    if (store.ok()) {
      store_ = std::move(*store);
    } else {
      // Unusable state dir: degrade to the in-memory mode and say so via
      // health rather than refusing to serve.
      store_open_error_ = store.status().message();
    }
  }
  TWCHASE_RETURN_IF_ERROR(scheduler_.Start());
  if (store_ != nullptr) RecoverFromStore();
  Status http = server_.Start(
      options_.port,
      [this](const HttpRequest& request) { return Handle(request); },
      options_.http_threads, options_.http_io_timeout_ms);
  if (!http.ok()) scheduler_.Stop();
  return http;
}

void ChaseDaemon::Stop() {
  // The flag flips the meaning of the cancellations Stop() is about to
  // issue: with a healthy store, a cancelled-by-shutdown job checkpoints
  // and stays resumable instead of landing in "cancelled".
  shutting_down_.store(true);
  server_.Stop();     // no new submissions
  scheduler_.Stop();  // cancel + drain everything admitted
}

bool ChaseDaemon::WantShutdownSnapshot() const {
  return shutting_down_.load() && store_ != nullptr && store_->healthy();
}

std::string ChaseDaemon::PersistenceStatus() const {
  if (options_.state_dir.empty()) return "disabled";
  if (store_ == nullptr) return "degraded:" + store_open_error_;
  if (!store_->healthy()) return "degraded:" + store_->degraded_reason();
  return "durable";
}

Status ChaseDaemon::PersistSnapshot(const std::string& id,
                                    const ChaseSession& session) {
  if (store_ == nullptr) return Status::OK();
  auto checkpoint = session.Checkpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  (void)store_->WriteSnapshot(id, SerializeCheckpointSealed(*checkpoint));
  return Status::OK();
}

void ChaseDaemon::PersistTerminal(const std::string& id,
                                  const std::string& state,
                                  const Json& result) {
  if (store_ != nullptr) (void)store_->AppendTerminal(id, state, result);
}

void ChaseDaemon::PersistFailed(const std::string& id, const Status& error) {
  if (store_ != nullptr) {
    (void)store_->AppendFailed(id, StatusCodeName(error.code()),
                               error.message());
  }
}

void ChaseDaemon::RecoverFromStore() {
  std::vector<RecoveredJob> recovered = store_->TakeRecovered();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    // Ids never collide with anything ever admitted, even tombstoned.
    next_job_number_ = store_->max_job_number() + 1;
  }
  for (RecoveredJob& record : recovered) {
    if (record.terminal) {
      auto job = ChaseJob::Recovered(this, record);
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        jobs_.emplace(record.id, std::move(job));
      }
      OnJobFinished(record.id);  // retention applies to recovered jobs too
      continue;
    }

    // Interrupted mid-run: validate program and snapshot, then resume
    // through the front door. Anything that does not check out becomes a
    // structured, durable terminal failure — never a silent drop.
    Status unrecoverable = Status::OK();
    std::string resume_text;
    std::string preflight_summary;
    auto program = ParseProgram(record.request.program);
    if (!program.ok()) {
      unrecoverable = Status::FailedPrecondition(
          "unrecoverable after restart: program re-parse failed: " +
          program.status().message());
    } else if (ProgramFingerprint(program->kb) != record.program_fingerprint) {
      unrecoverable = Status::FailedPrecondition(
          "unrecoverable after restart: program fingerprint mismatch "
          "(manifest admit record vs re-parsed program)");
    } else {
      // The admit record stores --variant=auto unresolved; resolve it here,
      // against the re-parsed program, before any fingerprint involving the
      // options is computed. A snapshot taken under a different
      // classification then fails the fingerprint check below — resume after
      // a re-classification change is rejected, never silently continued
      // under another variant.
      if (record.request.options.preflight.auto_variant &&
          !record.request.options.preflight.resolved) {
        auto report = ResolveAutoVariant(program->kb, PreflightOptions{},
                                         &record.request.options);
        if (!report.ok()) {
          unrecoverable = Status::FailedPrecondition(
              "unrecoverable after restart: preflight resolution failed: " +
              report.status().message());
        } else {
          preflight_summary = report->Summary();
        }
      }
      std::string sealed;
      Status snapshot = unrecoverable.ok()
                            ? store_->ReadSnapshot(record.id, &sealed)
                            : Status::NotFound("preflight resolution failed");
      if (snapshot.ok()) {
        auto checkpoint = ParseSealedCheckpoint(sealed);
        if (!checkpoint.ok()) {
          unrecoverable = Status::FailedPrecondition(
              "unrecoverable after restart: checkpoint snapshot invalid: " +
              checkpoint.status().message());
        } else {
          if (checkpoint->program_fingerprint !=
              CheckpointFingerprint(program->kb, record.request.options)) {
            unrecoverable = Status::FailedPrecondition(
                "unrecoverable after restart: checkpoint fingerprint "
                "mismatch (snapshot vs program/plan configuration)");
          } else {
            resume_text = SerializeCheckpoint(*checkpoint);
          }
        }
      } else if (snapshot.code() != StatusCode::kNotFound) {
        unrecoverable = Status::FailedPrecondition(
            "unrecoverable after restart: checkpoint snapshot unreadable: " +
            snapshot.message());
      }
      // NotFound: admitted but never checkpointed — restart from the
      // original submission (including its own resume_checkpoint, if any).
    }

    auto job = std::make_shared<ChaseJob>(
        record.id, record.request, this,
        program.ok() ? std::make_unique<ParsedProgram>(std::move(*program))
                     : nullptr);
    if (unrecoverable.ok() && !preflight_summary.empty()) {
      job->SeedResolvedPreflight(record.request.options,
                                 std::move(preflight_summary));
    }
    if (unrecoverable.ok() && !resume_text.empty()) {
      job->SeedResumeCheckpoint(std::move(resume_text));
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.emplace(record.id, job);
    }
    if (unrecoverable.ok()) {
      const std::string id = record.id;
      Status admitted = scheduler_.Submit(
          job->tenant(), job,
          [this, id](PreemptibleJob::Outcome) { OnJobFinished(id); });
      if (!admitted.ok()) {
        unrecoverable = Status::FailedPrecondition(
            "unrecoverable after restart: re-admission rejected: " +
            admitted.message());
      }
    }
    if (!unrecoverable.ok()) {
      job->MarkUnrecoverable(unrecoverable);
      (void)store_->AppendFailed(record.id,
                                 StatusCodeName(unrecoverable.code()),
                                 unrecoverable.message());
      OnJobFinished(record.id);
    }
  }
}

Json ChaseDaemon::MetricsJson() const {
  Json root = Json::Object();
  root.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  JobScheduler::Stats stats = scheduler_.GetStats();
  Json scheduler = Json::Object();
  scheduler.Set("admitted", Json::Number(stats.admitted));
  scheduler.Set("rejected", Json::Number(stats.rejected));
  scheduler.Set("completed", Json::Number(stats.completed));
  scheduler.Set("failed", Json::Number(stats.failed));
  scheduler.Set("preemptions", Json::Number(stats.preemptions));
  scheduler.Set("queued_now", Json::Number(uint64_t{stats.queued_now}));
  scheduler.Set("running_now", Json::Number(uint64_t{stats.running_now}));
  root.Set("scheduler", std::move(scheduler));
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    // The registry renders itself; round-trip through the parser to embed
    // it as a structured member instead of a string.
    auto fleet = Json::Parse(fleet_metrics_.ToJson(0));
    root.Set("fleet", fleet.ok() ? std::move(*fleet) : Json::Object());
  }
  return root;
}

void ChaseDaemon::FoldJobMetrics(const MetricsRegistry& job_metrics) {
  std::lock_guard<std::mutex> lock(fleet_mu_);
  fleet_metrics_.MergeFrom(job_metrics);
}

void ChaseDaemon::OnJobFinished(const std::string& id) {
  // During shutdown the drain completes jobs that are really interrupted
  // (snapshot-at-cancel); evicting or tombstoning them here would destroy
  // exactly the state the restart needs.
  if (shutting_down_.load()) return;
  std::vector<std::string> evicted;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    finished_order_.push_back(id);
    if (options_.finished_job_retention != 0) {
      while (finished_order_.size() > options_.finished_job_retention) {
        // Oldest-finished first; in-flight jobs are never in
        // finished_order_, so running work is untouched. Handlers holding
        // the shared_ptr keep an evicted job alive for the duration of
        // their request.
        evicted.push_back(finished_order_.front());
        jobs_.erase(finished_order_.front());
        finished_order_.pop_front();
      }
    }
  }
  if (store_ != nullptr) {
    for (const std::string& old : evicted) (void)store_->AppendTombstone(old);
  }
}

std::shared_ptr<ChaseDaemon::ChaseJob> ChaseDaemon::FindJob(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

HttpResponse ChaseDaemon::Handle(const HttpRequest& request) {
  const std::string path = request.path();
  if (path == "/v1/healthz" && request.method == "GET") {
    return HandleHealthz();
  }
  if (path == "/v1/metrics" && request.method == "GET") {
    return JsonResponse(200, MetricsJson());
  }
  if (path == "/v1/jobs") {
    if (request.method != "POST") {
      HttpResponse response = JsonResponse(
          405, ErrorJson(Status::InvalidArgument("use POST to submit a job")));
      return response;
    }
    return HandleSubmit(request);
  }
  const std::string jobs_prefix = "/v1/jobs/";
  if (path.rfind(jobs_prefix, 0) == 0) {
    std::string rest = path.substr(jobs_prefix.size());
    const std::string result_suffix = "/result";
    bool want_result = false;
    if (rest.size() > result_suffix.size() &&
        rest.compare(rest.size() - result_suffix.size(), result_suffix.size(),
                     result_suffix) == 0) {
      want_result = true;
      rest = rest.substr(0, rest.size() - result_suffix.size());
    }
    if (rest.empty() || rest.find('/') != std::string::npos) {
      return StatusResponse(Status::NotFound("no such route: " + path));
    }
    if (want_result && request.method == "GET") return HandleJobResult(rest);
    if (!want_result && request.method == "GET") return HandleJobStatus(rest);
    if (!want_result && request.method == "DELETE") {
      return HandleJobCancel(rest);
    }
    return JsonResponse(405, ErrorJson(Status::InvalidArgument(
                                 "method " + request.method +
                                 " not supported on " + path)));
  }
  return StatusResponse(Status::NotFound("no such route: " + path));
}

HttpResponse ChaseDaemon::HandleHealthz() {
  Json body = Json::Object();
  body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  body.Set("status", Json::String("ok"));
  uint64_t uptime = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  body.Set("uptime_seconds", Json::Number(uptime));
  body.Set("jobs_in_flight", Json::Number(uint64_t{scheduler_.InFlight()}));
  // Job counts by state across the whole retained table.
  const char* kStates[] = {"queued", "running", "paused",
                           "done",   "cancelled", "failed"};
  size_t counts[6] = {};
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const auto& [id, job] : jobs_) {
      std::string state = job->state();
      for (size_t i = 0; i < 6; ++i) {
        if (state == kStates[i]) {
          ++counts[i];
          break;
        }
      }
    }
  }
  Json jobs = Json::Object();
  for (size_t i = 0; i < 6; ++i) {
    jobs.Set(kStates[i], Json::Number(uint64_t{counts[i]}));
  }
  body.Set("jobs", std::move(jobs));
  body.Set("persistence", Json::String(PersistenceStatus()));
  return JsonResponse(200, body);
}

HttpResponse ChaseDaemon::HandleSubmit(const HttpRequest& request) {
  auto body = Json::Parse(request.body);
  if (!body.ok()) return StatusResponse(body.status());

  JobRequest job_request;
  std::vector<FieldError> errors;
  Status parsed = JobRequestFromJson(*body, &job_request, &errors);
  if (!parsed.ok()) return StatusResponse(parsed, errors);

  // Reject inconsistent options now, as a structured 400, instead of a
  // failed job later. The message's leading field path becomes the error's
  // field entry. An unresolved --variant=auto is legal HERE (the job's
  // first segment resolves it before the engine validates again), so that
  // one check is masked for the submission-time pass.
  ChaseOptions submitted = job_request.options;
  if (submitted.preflight.auto_variant) submitted.preflight.resolved = true;
  Status valid = submitted.Validate();
  if (!valid.ok()) {
    return StatusResponse(valid, {FieldErrorFromValidate(valid, "options")});
  }

  // Parse the program up front: a syntax error is a 400, and the job keeps
  // the parse.
  auto program = ParseProgram(job_request.program);
  if (!program.ok()) {
    Status status = Status::InvalidArgument("program parse error: " +
                                            program.status().message());
    return StatusResponse(status,
                          {{"program", program.status().message()}});
  }
  if (!job_request.resume_checkpoint.empty()) {
    auto checkpoint = ParseCheckpoint(job_request.resume_checkpoint);
    if (!checkpoint.ok()) {
      return StatusResponse(
          checkpoint.status(),
          {{"resume_checkpoint", checkpoint.status().message()}});
    }
  }

  std::string id;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    id = "j-" + std::to_string(next_job_number_++);
  }
  if (store_ != nullptr) {
    // Durable before acknowledged: the admit record hits the disk before
    // the scheduler (and so the client) ever sees the job. A persistence
    // failure degrades the store; the job still runs in memory.
    (void)store_->AppendAdmit(id, job_request, ProgramFingerprint(program->kb));
  }
  auto job = std::make_shared<ChaseJob>(
      id, std::move(job_request), this,
      std::make_unique<ParsedProgram>(std::move(*program)));
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.emplace(id, job);
  }

  Status admitted = scheduler_.Submit(
      job->tenant(), job,
      [this, id](PreemptibleJob::Outcome) { OnJobFinished(id); });
  if (!admitted.ok()) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.erase(id);
    }
    // The admit record is already durable; without the tombstone a restart
    // would resurrect a job the client was told never got in.
    if (store_ != nullptr) (void)store_->AppendTombstone(id);
    return StatusResponse(admitted);  // quota exhaustion → 429
  }

  Json response = Json::Object();
  response.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  Json job_info = Json::Object();
  job_info.Set("id", Json::String(id));
  job_info.Set("tenant", Json::String(job->tenant()));
  job_info.Set("state", Json::String("queued"));
  response.Set("job", std::move(job_info));
  return JsonResponse(202, response);
}

HttpResponse ChaseDaemon::HandleJobStatus(const std::string& id) {
  auto job = FindJob(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no such job: " + id));
  }
  return JsonResponse(200, job->StatusJson());
}

HttpResponse ChaseDaemon::HandleJobResult(const std::string& id) {
  auto job = FindJob(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no such job: " + id));
  }
  auto result = job->ResultJson();
  if (!result.ok()) return StatusResponse(result.status());
  // A failed job's "result" is its error payload with the error's own code.
  if (job->failed()) {
    return JsonResponse(500, *result);
  }
  return JsonResponse(200, *result);
}

HttpResponse ChaseDaemon::HandleJobCancel(const std::string& id) {
  auto job = FindJob(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no such job: " + id));
  }
  if (job->terminal()) {
    // Nothing left to cancel: DELETE on a finished job evicts its retained
    // outcome (and tombstones the durable store), after which the id
    // answers 404.
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.erase(id);
      for (auto it = finished_order_.begin(); it != finished_order_.end();
           ++it) {
        if (*it == id) {
          finished_order_.erase(it);
          break;
        }
      }
    }
    if (store_ != nullptr) (void)store_->AppendTombstone(id);
    Json body = Json::Object();
    body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
    body.Set("id", Json::String(id));
    body.Set("deleted", Json::Bool(true));
    return JsonResponse(200, body);
  }
  job->RequestCancel();
  return JsonResponse(200, job->StatusJson());
}

}  // namespace twchase
