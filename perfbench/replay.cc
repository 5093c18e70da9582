// perfbench_replay — in-process replay of benchmark jobs through the public
// library, with a timing ChaseObserver attached.
//
// Reads one job per line on stdin, tab-separated:
//
//   <id> <program-file> <variant|auto> <max-steps> <measures 0|1>
//   <robust 0|1> <traced 0|1>
//
// and runs it the way twchase_cli does at its default options (threads =
// hardware concurrency, snapshots kept, plan and delta on): parse, optional
// --variant=auto preflight, chase session, --measures series, --robust
// aggregation, query answering, then destruction of the result. Writes one
// JSON object per job on stdout, flushed, so the caller can drive the
// process as a closed loop.
//
// A traced job records spans (parse, preflight, chase with run-setup and
// per-round establish/triggers/round-end children, measures, robust,
// answer, result-free) under one root span per job. Spans stay in memory
// and are written once, at end of input, as Chrome trace-event JSON to the
// file named by --trace-out. An untraced job attaches no observer and
// records only the phase wall times, which is what the traced times are
// compared against.
//
//   perfbench_replay --spawn <program> [args...]
//
// instead runs one program to its end and reports its own peak RSS (see
// Spawn below).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/preflight.h"
#include "core/chase.h"
#include "core/measures.h"
#include "core/robust.h"
#include "core/session.h"
#include "hom/answers.h"
#include "hom/matcher.h"
#include "obs/observer.h"
#include "parser/parser.h"
#include "service/json.h"
#include "service/wire.h"
#include "tw/treewidth.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
using twchase::Json;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  size_t job = 0;
  size_t id = 0;
  size_t parent = 0;  // 0 = none
  Clock::time_point begin;
  Clock::time_point end;
  Json args = Json::Object();
};

// In-memory span store shared by all jobs of the process.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  size_t Add(std::string name, size_t job, size_t parent,
             Clock::time_point begin, Clock::time_point end,
             Json args = Json::Object()) {
    spans_.push_back(
        {std::move(name), job, spans_.size() + 1, parent, begin, end,
         std::move(args)});
    return spans_.size();
  }

  // Reserves an id for a span whose end is not known yet.
  size_t Open(std::string name, size_t job, size_t parent,
              Clock::time_point begin) {
    return Add(std::move(name), job, parent, begin, begin);
  }
  void Close(size_t id, Clock::time_point end) { spans_[id - 1].end = end; }

  // Timestamps are whole microseconds from the process start: each span end
  // is rounded, not its duration, so adjacent spans still tile exactly.
  bool WriteChromeTrace(const std::string& path) const {
    auto us = [&](Clock::time_point t) {
      return std::round(Ms(origin_, t) * 1000.0);
    };
    Json events = Json::Array();
    for (const Span& s : spans_) {
      Json args = s.args;
      args.Set("job", Json::Number(s.job));
      args.Set("id", Json::Number(s.id));
      args.Set("parent", Json::Number(s.parent));
      Json event = Json::Object();
      event.Set("name", Json::String(s.name));
      event.Set("ph", Json::String("X"));
      event.Set("pid", Json::Number(1.0));
      event.Set("tid", Json::Number(s.job));
      event.Set("ts", Json::Number(us(s.begin)));
      event.Set("dur", Json::Number(us(s.end) - us(s.begin)));
      event.Set("args", std::move(args));
      events.Append(std::move(event));
    }
    Json trace = Json::Object();
    trace.Set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << trace.Dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Builds the per-round chase spans from observer event boundaries:
//   establish  previous RoundEnd (or RunBegin) -> RoundBegin
//   triggers   RoundBegin -> the round's last trigger event
//   round-end  the round's last trigger event -> RoundEnd
// and splits trigger time into check (a Considered not followed by Applied,
// until the next event) and apply (Considered -> Applied).
class TimingObserver : public twchase::ChaseObserver {
 public:
  TimingObserver(SpanLog* log, size_t job, size_t chase_span,
                 Clock::time_point chase_begin)
      : log_(log), job_(job), chase_span_(chase_span), last_(chase_begin) {}

  double establish_ms = 0, check_ms = 0, apply_ms = 0, round_end_ms = 0;
  double run_setup_ms = 0;
  size_t folds = 0;

  void OnRunBegin(const twchase::RunBeginEvent&) override {
    auto now = Clock::now();
    run_setup_ms += Ms(last_, now);
    log_->Add("run-setup", job_, chase_span_, last_, now);
    last_ = now;
  }
  void OnRoundBegin(const twchase::RoundBeginEvent& e) override {
    auto now = Clock::now();
    establish_ms += Ms(last_, now);
    round_span_ = log_->Open("round", job_, chase_span_, last_);
    log_->Add("establish", job_, round_span_, last_, now);
    round_begin_ = last_trigger_ = now;
    round_check_ = round_apply_ = 0;
    round_considered_ = round_applied_ = 0;
    pending_ = false;
    round_ = e.round;
  }
  void OnTriggerConsidered(const twchase::TriggerConsideredEvent&) override {
    auto now = Clock::now();
    EndPendingCheck(now);
    considered_at_ = now;
    pending_ = true;
    ++round_considered_;
  }
  void OnTriggerApplied(const twchase::TriggerAppliedEvent&) override {
    auto now = Clock::now();
    if (pending_) {
      double ms = Ms(considered_at_, now);
      apply_ms += ms;
      round_apply_ += ms;
      pending_ = false;
    }
    ++round_applied_;
    last_trigger_ = now;
  }
  void OnTriggerRetired(const twchase::TriggerRetiredEvent& e) override {
    // A match consumed by its own application is retired before the
    // Applied event; only the other reasons end a check.
    if (e.reason != twchase::TriggerRetireReason::kApplied) {
      EndPendingCheck(Clock::now());
    }
  }
  void OnCoreRetraction(const twchase::CoreRetractionEvent& e) override {
    folds += e.folds;
  }
  void OnRoundEnd(const twchase::RoundEndEvent&) override {
    auto now = Clock::now();
    EndPendingCheck(now);
    round_end_ms += Ms(last_trigger_, now);
    Json args = Json::Object();
    args.Set("round", Json::Number(round_));
    args.Set("considered", Json::Number(round_considered_));
    args.Set("applied", Json::Number(round_applied_));
    args.Set("check_ms", Json::Number(round_check_));
    args.Set("apply_ms", Json::Number(round_apply_));
    log_->Add("triggers", job_, round_span_, round_begin_, last_trigger_,
              std::move(args));
    log_->Add("round-end", job_, round_span_, last_trigger_, now);
    log_->Close(round_span_, now);
    last_ = now;
  }

 private:
  void EndPendingCheck(Clock::time_point now) {
    if (!pending_) return;
    double ms = Ms(considered_at_, now);
    check_ms += ms;
    round_check_ += ms;
    pending_ = false;
    last_trigger_ = now;
  }

  SpanLog* log_;
  size_t job_;
  size_t chase_span_;
  Clock::time_point last_;
  Clock::time_point round_begin_, last_trigger_, considered_at_;
  size_t round_span_ = 0, round_ = 0;
  size_t round_considered_ = 0, round_applied_ = 0;
  double round_check_ = 0, round_apply_ = 0;
  bool pending_ = false;
};

std::string Error(const std::string& id, const std::string& message) {
  Json line = Json::Object();
  line.Set("id", Json::String(id));
  line.Set("error", Json::String(message));
  return line.Dump();
}

struct Job {
  std::string id, path, variant;
  size_t max_steps = 1000;
  bool measures = false, robust = false, traced = false;
};

std::string RunJob(const Job& job, size_t job_index, SpanLog* log) {
  using namespace twchase;
  const auto t_begin = Clock::now();
  const size_t root =
      job.traced ? log->Open("job", job_index, 0, t_begin) : 0;
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    if (job.traced) log->Add(name, job_index, root, a, b);
  };
  Json line = Json::Object();
  line.Set("id", Json::String(job.id));

  std::ifstream in(job.path);
  if (!in) return Error(job.id, "cannot open " + job.path);
  std::ostringstream text;
  text << in.rdbuf();

  auto t0 = Clock::now();
  auto program = ParseProgram(text.str());
  auto t1 = Clock::now();
  span("parse", t0, t1);
  line.Set("parse_ms", Json::Number(Ms(t0, t1)));
  if (!program.ok()) return Error(job.id, program.status().ToString());
  const KnowledgeBase& kb = program->kb;

  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.parallel.threads = ThreadPool::HardwareConcurrency();
  options.limits.max_steps = job.max_steps;
  if (job.variant == "auto") {
    options.preflight.auto_variant = true;
    t0 = Clock::now();
    auto report = ResolveAutoVariant(kb, PreflightOptions{}, &options);
    t1 = Clock::now();
    span("preflight", t0, t1);
    if (!report.ok()) return Error(job.id, report.status().ToString());
    line.Set("preflight_ms", Json::Number(Ms(t0, t1)));
    line.Set("verdict", Json::String(TerminationClassName(report->verdict)));
    line.Set("empirical", Json::Bool(report->empirical));
    line.Set("probe_steps", Json::Number(report->critical_steps +
                                         report->probe_core_steps));
  } else if (!ParseChaseVariant(job.variant, &options.variant)) {
    return Error(job.id, "unknown variant " + job.variant);
  }
  line.Set("variant", Json::String(ChaseVariantName(options.variant)));

  const auto t_chase = Clock::now();
  const size_t chase_span =
      job.traced ? log->Open("chase", job_index, root, t_chase) : 0;
  std::optional<TimingObserver> observer;
  if (job.traced) {
    observer.emplace(log, job_index, chase_span, t_chase);
    options.observer = &*observer;
  }
  auto session = ChaseSession::Create(kb, options);
  if (!session.ok()) return Error(job.id, session.status().ToString());
  Status started = (*session)->Start();
  if (!started.ok()) return Error(job.id, started.ToString());
  auto result = std::make_unique<ChaseResult>((*session)->TakeResult());
  session->reset();
  const auto t_chase_end = Clock::now();
  if (job.traced) log->Close(chase_span, t_chase_end);
  line.Set("chase_ms", Json::Number(Ms(t_chase, t_chase_end)));

  const ChaseStats& stats = result->stats;
  line.Set("stop", Json::String(StopReasonName(result->stop_reason)));
  line.Set("steps", Json::Number(result->steps));
  line.Set("rounds", Json::Number(result->rounds));
  line.Set("result_size", Json::Number(result->derivation.Last().size()));
  line.Set("derivation_bytes",
           Json::Number(result->derivation.ApproxMemoryBytes()));
  line.Set("instance_bytes",
           Json::Number(result->derivation.Last().ApproxMemoryBytes()));
  line.Set("triggers_considered", Json::Number(stats.triggers_considered));
  line.Set("seed_probes", Json::Number(stats.seed_probes));
  line.Set("matches_invalidated", Json::Number(stats.matches_invalidated));
  line.Set("core_full", Json::Number(stats.core_full));
  line.Set("index_probes", Json::Number(stats.match_index_probes));
  line.Set("column_scans", Json::Number(stats.match_column_scans));
  line.Set("join_fallbacks", Json::Number(stats.match_join_fallbacks));
  line.Set("index_builds", Json::Number(stats.match_index_builds));
  line.Set("index_build_bytes", Json::Number(stats.match_index_build_bytes));
  line.Set("plan_core_proofs", Json::Number(stats.plan_core_proofs));
  line.Set("plan_core_certified", Json::Number(stats.plan_core_certified));
  line.Set("plan_enumerations_skipped",
           Json::Number(stats.plan_enumerations_skipped));
  line.Set("parallel_tasks", Json::Number(stats.parallel_tasks));
  line.Set("parallel_eval_ms", Json::Number(stats.parallel_eval_ms));
  line.Set("parallel_merge_ms", Json::Number(stats.parallel_merge_ms));
  line.Set("parallel_imbalance", Json::Number(stats.parallel_max_imbalance));
  if (observer) {
    line.Set("run_setup_ms", Json::Number(observer->run_setup_ms));
    line.Set("establish_ms", Json::Number(observer->establish_ms));
    line.Set("check_ms", Json::Number(observer->check_ms));
    line.Set("apply_ms", Json::Number(observer->apply_ms));
    line.Set("round_end_ms", Json::Number(observer->round_end_ms));
    line.Set("folds", Json::Number(observer->folds));
  }

  if (job.measures) {
    t0 = Clock::now();
    std::vector<int> sizes =
        MeasureSeries(result->derivation, Measure::kSize);
    auto t_size = Clock::now();
    std::vector<int> tw =
        MeasureSeries(result->derivation, Measure::kTreewidthUpper);
    t1 = Clock::now();
    span("measures", t0, t1);
    line.Set("series_ms", Json::Number(Ms(t_size, t1)));
    line.Set("tw_uniform",
             Json::Number(static_cast<double>(
                 SummarizeBoundedness(tw, 8).uniform_bound)));
  }
  if (job.robust) {
    t0 = Clock::now();
    RobustAggregator agg = RobustAggregator::FromDerivation(
        result->derivation, 0, observer ? &*observer : nullptr);
    auto t_agg = Clock::now();
    TreewidthResult tw = ComputeTreewidth(agg.Aggregate());
    t1 = Clock::now();
    span("robust", t0, t1);
    line.Set("robust_ms", Json::Number(Ms(t0, t_agg)));
    line.Set("aggregate_ms", Json::Number(Ms(t_agg, t1)));
    line.Set("robust_tw", Json::Number(static_cast<double>(tw.upper_bound)));
  }

  t0 = Clock::now();
  Json answers = Json::Array();
  const AtomSet& instance = result->derivation.Last();
  for (const ParsedQuery& query : program->queries) {
    if (query.answer_vars.empty()) {
      answers.Append(Json::String(ExistsHomomorphism(query.atoms, instance)
                                      ? "entailed"
                                      : "not entailed"));
    } else {
      AnswerOptions answer_options;
      answer_options.ground_only = true;
      answers.Append(Json::Number(
          AnswerQuery(instance, query.atoms, query.answer_vars, answer_options)
              .size()));
    }
  }
  t1 = Clock::now();
  span("answer", t0, t1);
  line.Set("answer_ms", Json::Number(Ms(t0, t1)));
  line.Set("queries", std::move(answers));

  t0 = Clock::now();
  result.reset();
  t1 = Clock::now();
  span("result-free", t0, t1);
  line.Set("result_free_ms", Json::Number(Ms(t0, t1)));

  const auto t_end = Clock::now();
  if (job.traced) log->Close(root, t_end);
  line.Set("wall_ms", Json::Number(Ms(t_begin, t_end)));
  line.Set("traced", Json::Bool(job.traced));
  return line.Dump();
}

bool ParseJob(const std::string& text, Job* job) {
  std::vector<std::string> fields;
  std::stringstream stream(text);
  std::string field;
  while (std::getline(stream, field, '\t')) fields.push_back(field);
  if (fields.size() != 7) return false;
  try {
    job->id = fields[0];
    job->path = fields[1];
    job->variant = fields[2];
    job->max_steps = std::stoul(fields[3]);
  } catch (const std::exception&) {
    return false;
  }
  job->measures = fields[4] == "1";
  job->robust = fields[5] == "1";
  job->traced = fields[6] == "1";
  return true;
}

double Seconds(const struct timeval& tv) {
  return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
}

// Runs argv to its end and reports on stderr its peak RSS, its CPU time
// (user + system, all threads) and its wait status. A child forked from a
// large process (the Python load generator) inherits that process's
// resident size as its own ru_maxrss; forked from this small one, the
// CLI's ru_maxrss is its own peak.
int Spawn(char** argv) {
  pid_t pid = fork();
  if (pid < 0) return 125;
  if (pid == 0) {
    execvp(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  struct rusage usage = {};
  if (wait4(pid, &status, 0, &usage) < 0) return 125;
  std::fprintf(stderr,
               "perfbench-rusage maxrss_kb=%ld cpu_s=%.6f status=%d\n",
               usage.ru_maxrss,
               Seconds(usage.ru_utime) + Seconds(usage.ru_stime), status);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::string(argv[1]) == "--spawn") return Spawn(argv + 2);
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else {
      std::fprintf(stderr, "usage: %s [--trace-out=FILE] < jobs\n", argv[0]);
      return 2;
    }
  }
  SpanLog log(Clock::now());
  std::string text;
  size_t index = 0;
  while (std::getline(std::cin, text)) {
    if (text.empty()) continue;
    Job job;
    std::string out = ParseJob(text, &job) ? RunJob(job, ++index, &log)
                                           : Error("?", "bad job line");
    std::fprintf(stdout, "%s\n", out.c_str());
    std::fflush(stdout);
  }
  if (!trace_out.empty() && !log.WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}
