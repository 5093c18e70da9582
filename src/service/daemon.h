// ChaseDaemon: the multi-tenant chase service (twchased's engine room).
//
// One daemon hosts many concurrent chase jobs on a shared JobScheduler
// worker pool behind per-tenant admission control, and serves a small
// versioned HTTP+JSON API on loopback:
//
//   POST   /v1/jobs            submit a program (+options) as a job; 202
//                              with the job id, 429 when the tenant's quota
//                              is exhausted (running jobs are untouched),
//                              400 with structured field errors otherwise
//   GET    /v1/jobs/{id}        job status (state, segments, progress);
//                              404 once a finished job ages past the
//                              retention cap (DaemonOptions)
//   GET    /v1/jobs/{id}/result terminal result: stop reason, counters,
//                              CLI-identical text rendering, query answers,
//                              optional event stream and checkpoint; 409
//                              while the job is still in flight
//   DELETE /v1/jobs/{id}        in flight: request cancellation
//                              (cooperative; the job lands in "cancelled"
//                              with its prefix result). Terminal: evict the
//                              retained job and tombstone the durable store
//   GET    /v1/metrics          fleet-wide metrics: scheduler counters plus
//                              every finished job's registry folded in
//   GET    /v1/healthz          liveness: uptime, job counts by state, and
//                              persistence status (durable / degraded:<why>
//                              / disabled)
//
// Execution model: each job is a ChaseSession driven through scheduler
// SEGMENTS. The first segment parses the job's program and Start()s the
// run (or Resume()s a submitted or recovered checkpoint); the job keeps the
// program and the session, and every later segment Continue()s the session
// in memory. The preemption monitor pauses long-running jobs when others
// are queued; a paused-then-continued job is bit-identical (instance,
// journal, event stream) to an uninterrupted run — the service tests prove
// it. Checkpoints are built only for the durable store (one per preemption)
// and for return_checkpoint.
//
// The per-job budget surface is ChaseOptions::limits (deadline, memory,
// steps), enforced by the engine's own ResourceGovernor per segment;
// cancellation arrives over the session's cancel token from any HTTP
// handler thread.
#ifndef TWCHASE_SERVICE_DAEMON_H_
#define TWCHASE_SERVICE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"
#include "service/http.h"
#include "service/job_store.h"
#include "service/json.h"
#include "service/wire.h"
#include "util/job_scheduler.h"
#include "util/status.h"

namespace twchase {

class ChaseSession;

struct DaemonOptions {
  /// Listen port on 127.0.0.1; 0 = ephemeral (read back via port()).
  uint16_t port = 0;

  /// Chase worker threads (concurrent running jobs).
  size_t workers = 4;

  /// Per-tenant in-flight job quota; submissions beyond it get 429.
  size_t per_tenant_quota = 4;

  /// Preempt a running job once its current segment exceeds this and other
  /// jobs are queued. nullopt = never preempt.
  std::optional<uint64_t> preempt_after_ms = 2000;

  /// HTTP handler threads (request parsing and status serving; the chase
  /// itself always runs on scheduler workers).
  size_t http_threads = 4;

  /// Terminal (done/cancelled/failed) jobs retained for status/result
  /// queries. Once more than this many have finished, the oldest-finished
  /// are evicted (their id answers 404) so a long-lived daemon's job table
  /// — result JSON, rendered text, event streams, checkpoints — stays
  /// bounded. 0 = retain forever.
  size_t finished_job_retention = 256;

  /// Durable state directory (--state-dir). When set, admitted jobs, their
  /// terminal outcomes and per-preemption checkpoint snapshots are
  /// persisted (service/job_store.h) and a restarted daemon recovers them:
  /// terminal results are served again, interrupted jobs are re-admitted
  /// and resumed from their last durable checkpoint. Empty = the
  /// historical in-memory mode, byte-for-byte unchanged behavior.
  std::string state_dir;

  /// Per-connection HTTP read/write deadline, ms (0 = no deadline). A
  /// dribbling or stalled client is disconnected once its request or
  /// response has been in flight this long.
  uint64_t http_io_timeout_ms = 10000;
};

class ChaseDaemon {
 public:
  explicit ChaseDaemon(const DaemonOptions& options);
  ~ChaseDaemon();

  ChaseDaemon(const ChaseDaemon&) = delete;
  ChaseDaemon& operator=(const ChaseDaemon&) = delete;

  /// Starts the scheduler and the HTTP server. After OK, port() is bound.
  Status Start();

  /// Stops the HTTP server (no new work), cancels and drains every
  /// in-flight job, joins all threads. Idempotent.
  void Stop();

  uint16_t port() const { return server_.port(); }

  /// Jobs still admitted to the scheduler — the shutdown leak check
  /// (after Stop() this is 0 unless a job wedged).
  size_t InFlightJobs() const { return scheduler_.InFlight(); }

  /// The /v1/metrics payload (fleet registry + scheduler counters).
  Json MetricsJson() const;

 private:
  class ChaseJob;

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleSubmit(const HttpRequest& request);
  HttpResponse HandleJobStatus(const std::string& id);
  HttpResponse HandleJobResult(const std::string& id);
  HttpResponse HandleJobCancel(const std::string& id);

  HttpResponse HandleHealthz();

  std::shared_ptr<ChaseJob> FindJob(const std::string& id) const;

  /// Records a job's terminal segment and evicts (tombstoning when
  /// durable) the oldest finished jobs beyond the retention cap. No-op
  /// during shutdown so interrupted jobs stay resumable.
  void OnJobFinished(const std::string& id);

  /// Folds one finished job's registry into the fleet registry.
  void FoldJobMetrics(const MetricsRegistry& job_metrics);

  /// Re-admits the store's replayed jobs: terminal outcomes become
  /// queryable jobs again, interrupted jobs are fingerprint-checked and
  /// resubmitted from their last durable snapshot, anything that does not
  /// validate lands as a structured unrecoverable failure.
  void RecoverFromStore();

  /// Persistence hooks (no-ops without a healthy store; persistence
  /// failures degrade the store, never the chase result). PersistSnapshot
  /// builds the session's checkpoint only when a store is attached, and
  /// fails only when the session cannot be checkpointed.
  Status PersistSnapshot(const std::string& id, const ChaseSession& session);
  void PersistTerminal(const std::string& id, const std::string& state,
                       const Json& result);
  void PersistFailed(const std::string& id, const Status& error);

  /// True while Stop() is draining AND snapshots can still be persisted —
  /// a cancelled-by-shutdown job then checkpoints instead of recording a
  /// cancelled terminal, so a restart resumes it.
  bool WantShutdownSnapshot() const;

  /// "durable" | "degraded:<reason>" | "disabled", for /v1/healthz.
  std::string PersistenceStatus() const;

  const DaemonOptions options_;
  JobScheduler scheduler_;
  HttpServer server_;
  std::unique_ptr<JobStore> store_;  // null = disabled or failed to open
  std::string store_open_error_;     // why store_ is null despite state_dir
  std::atomic<bool> shutting_down_{false};
  std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex jobs_mu_;
  uint64_t next_job_number_ = 1;                              // guarded
  std::unordered_map<std::string, std::shared_ptr<ChaseJob>> jobs_;  // guarded
  std::deque<std::string> finished_order_;  // guarded by jobs_mu_, FIFO

  mutable std::mutex fleet_mu_;
  MetricsRegistry fleet_metrics_;  // guarded by fleet_mu_
};

}  // namespace twchase

#endif  // TWCHASE_SERVICE_DAEMON_H_
