//===- service/Service.cpp - Batch DVS-scheduling service ------------------===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "dvs/DvsScheduler.h"
#include "dvs/ScheduleIO.h"
#include "milp/Fingerprint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "power/VfModel.h"
#include "support/Clock.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "taskgraph/Online.h"
#include "taskgraph/PlanIO.h"
#include "verify/TaskGraphChecker.h"
#include "verify/Verify.h"
#include "workloads/Workloads.h"

#include <algorithm>

using namespace cdvs;

const char *cdvs::jobStatusName(JobStatus Status) {
  switch (Status) {
  case JobStatus::Done:
    return "done";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::Infeasible:
    return "infeasible";
  case JobStatus::Failed:
    return "failed";
  }
  cdvsUnreachable("bad JobStatus");
}

const char *cdvs::verifyModeName(VerifyMode Mode) {
  switch (Mode) {
  case VerifyMode::Off:
    return "off";
  case VerifyMode::Warn:
    return "warn";
  case VerifyMode::Strict:
    return "strict";
  }
  cdvsUnreachable("bad VerifyMode");
}

bool cdvs::parseVerifyMode(const std::string &Text, VerifyMode &Out) {
  if (Text == "off")
    Out = VerifyMode::Off;
  else if (Text == "warn")
    Out = VerifyMode::Warn;
  else if (Text == "strict")
    Out = VerifyMode::Strict;
  else
    return false;
  return true;
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The service's workload registry, built once per process. Workload
/// functions are immutable after construction, so sharing them across
/// worker threads is safe.
const std::map<std::string, Workload> &workloadRegistry() {
  static const std::map<std::string, Workload> Registry = [] {
    std::map<std::string, Workload> M;
    for (Workload &W : allWorkloads())
      M.emplace(W.Name, std::move(W));
    return M;
  }();
  return Registry;
}

std::string knownWorkloadNames() {
  std::string Names;
  for (const auto &[Name, W] : workloadRegistry())
    Names += (Names.empty() ? "" : ", ") + Name;
  return Names;
}

/// Content digest of a mode table, for profile-cache keys.
std::string modeTableDigest(const ModeTable &Modes) {
  HashBuilder H;
  H.add(static_cast<uint64_t>(Modes.size()));
  for (const VoltageLevel &L : Modes.levels()) {
    H.add(L.Volts);
    H.add(L.Hertz);
  }
  return H.digest();
}

/// Deadline-free lower bound on any schedule's energy: every block at
/// its cheapest mode, transitions free. Valid because transition
/// energies are nonnegative and every k[e][m] choice pays at least the
/// cheapest per-invocation energy of the destination block.
double energyLowerBound(const std::vector<CategoryProfile> &Categories) {
  double Bound = 0.0;
  for (const CategoryProfile &C : Categories) {
    double CatBound = 0.0;
    const Profile &P = C.Data;
    for (int J = 0; J < P.NumBlocks; ++J) {
      if (P.EnergyPerInvocation[J].empty())
        continue;
      double Cheapest = P.EnergyPerInvocation[J][0];
      for (double E : P.EnergyPerInvocation[J])
        Cheapest = std::min(Cheapest, E);
      CatBound +=
          static_cast<double>(P.BlockExecs[J]) * Cheapest;
    }
    Bound += C.Probability * CatBound;
  }
  return Bound;
}

/// Process-registry handles for the service pipeline, resolved once.
/// Job terminal states are counters; queue depth is a gauge pair
/// (instantaneous + monotone peak); stage latencies share one histogram
/// family keyed by a `stage` label so dashboards can overlay them.
struct ServiceMetrics {
  obs::Counter &Submitted, &Rejected, &Completed, &Infeasible, &Failed;
  obs::Counter &VerifyFailures;
  obs::Counter &PresolveVarsFixed, &PresolveRowsDropped, &PresolveDeadGroups;
  obs::Gauge &QueueDepth, &QueueDepthPeak;
  obs::Histogram &Queue, &Profile, &Bound, &Analyze, &Solve, &Serialize,
      &Total;
  obs::Histogram &PresolveSeconds;
};

ServiceMetrics &serviceMetrics() {
  auto stageHist = [](const char *Stage) -> obs::Histogram & {
    return obs::metrics().histogram(
        "cdvs_stage_latency_seconds",
        "Per-stage job latency through the scheduling pipeline",
        obs::latencyBucketsSeconds(), obs::Labels{{"stage", Stage}});
  };
  static ServiceMetrics M{
      obs::metrics().counter("cdvs_jobs_submitted_total",
                             "Jobs accepted into the admission queue"),
      obs::metrics().counter("cdvs_jobs_rejected_total",
                             "Jobs refused at admission"),
      obs::metrics().counter("cdvs_jobs_completed_total",
                             "Jobs that produced a schedule"),
      obs::metrics().counter("cdvs_jobs_infeasible_total",
                             "Jobs whose deadline no schedule can meet"),
      obs::metrics().counter("cdvs_jobs_failed_total",
                             "Jobs that failed (malformed or transient)"),
      obs::metrics().counter(
          "cdvs_verify_failures_total",
          "Jobs whose post-solve verification drew errors"),
      obs::metrics().counter(
          "cdvs_presolve_vars_fixed_total",
          "MILP variables eliminated by the certified presolve"),
      obs::metrics().counter(
          "cdvs_presolve_rows_dropped_total",
          "MILP rows dropped by the certified presolve"),
      obs::metrics().counter(
          "cdvs_presolve_dead_groups_total",
          "Presolve-fixed edge groups that were statically dead"),
      obs::metrics().gauge("cdvs_admission_queue_depth",
                           "Jobs currently pending admission"),
      obs::metrics().gauge("cdvs_admission_queue_depth_peak",
                           "Deepest the admission queue has been"),
      stageHist("queue"),
      stageHist("profile"),
      stageHist("bound"),
      stageHist("analyze"),
      stageHist("solve"),
      stageHist("serialize"),
      stageHist("total"),
      obs::metrics().histogram(
          "cdvs_presolve_seconds",
          "Time spent in the certified MILP presolve per fresh solve",
          obs::latencyBucketsSeconds()),
  };
  return M;
}

/// Task-graph pipeline instruments. The replan counters live in
/// taskgraph/Online.cpp next to the loop that drives them; these cover
/// the service-side job accounting.
struct GraphMetrics {
  obs::Counter &Jobs, &Tasks;
  obs::Histogram &Plan;
};

GraphMetrics &graphMetrics() {
  static GraphMetrics M{
      obs::metrics().counter("cdvs_taskgraph_jobs_total",
                             "Task-graph jobs executed (fresh or cached)"),
      obs::metrics().counter("cdvs_taskgraph_tasks_total",
                             "Tasks across all executed task-graph jobs"),
      obs::metrics().histogram(
          "cdvs_taskgraph_plan_seconds",
          "Static plan + online re-plan time per fresh graph solve",
          obs::latencyBucketsSeconds()),
  };
  return M;
}

/// The distributed trace context a request carried over the wire (empty
/// for in-process callers). Installing it makes every pipeline span of
/// the job (job, profile, bound, solve, peer_fill, serialize, verify) a
/// child of the sender's span under one trace id.
obs::SpanContext spanContextOf(const JobRequest &Request) {
  obs::SpanContext Ctx;
  Ctx.TraceHi = Request.TraceHi;
  Ctx.TraceLo = Request.TraceLo;
  Ctx.Span = Request.TraceParentSpan;
  Ctx.Sampled = Request.TraceSampled;
  return Ctx;
}

/// Validates the mode-table knobs both job kinds share. \returns the
/// failure reason, or an empty string when they are usable.
std::string modeKnobError(const JobRequest &Request) {
  if (Request.NumLevels != 0 &&
      (Request.NumLevels < 2 || Request.NumLevels > 64))
    return "voltage level count must be 0 (XScale table) or in [2, 64]";
  if (Request.CapacitanceF < 0.0)
    return "regulator capacitance must be nonnegative";
  return "";
}

/// The request's voltage/frequency table (knobs already validated).
ModeTable modeTableOf(const JobRequest &Request) {
  return Request.NumLevels == 0
             ? ModeTable::xscale3()
             : ModeTable::evenVoltageLevels(Request.NumLevels, 0.7, 1.65,
                                            VfModel::paperDefault());
}

/// Stamps the terminal status and total time on \p R (a job that
/// started at \p T0) and records the stage histograms the job reached.
JobResult finishJob(JobResult &R, Clock::time_point T0, JobStatus Status,
                    std::string Reason = "") {
  R.Status = Status;
  R.Reason = std::move(Reason);
  R.TotalSeconds = R.QueueSeconds + secondsSince(T0);
  ServiceMetrics &M = serviceMetrics();
  M.Queue.observe(R.QueueSeconds);
  M.Total.observe(R.TotalSeconds);
  // Per-stage observations only for stages the job reached; a
  // validation failure should not pollute the profile histogram with
  // zeros.
  if (R.ProfileSeconds > 0.0 || Status == JobStatus::Done)
    M.Profile.observe(R.ProfileSeconds);
  if (R.BoundSeconds > 0.0 || Status == JobStatus::Done)
    M.Bound.observe(R.BoundSeconds);
  if (Status == JobStatus::Done && !R.CacheHit && !R.SharedFlight) {
    M.Solve.observe(R.SolveSeconds);
    M.Serialize.observe(R.SerializeSeconds);
  }
  return R;
}

} // namespace

SchedulerService::SchedulerService(ServiceOptions Options)
    : Opts(std::move(Options)), Cache(Opts.CacheCapacity, Opts.CacheShards),
      Paused(Opts.StartPaused) {
  // Register the job families up front so they export (at zero) before
  // the first job, and the tools' stats lines can read them by name.
  serviceMetrics();
  int N = resolveThreads(Opts.NumWorkers);
  Workers.reserve(static_cast<size_t>(N));
  for (int W = 0; W < N; ++W)
    Workers.emplace_back([this] { workerLoop(); });
}

SchedulerService::~SchedulerService() { shutdown(); }

std::future<JobResult> SchedulerService::submit(JobRequest Request) {
  auto Promise = std::make_shared<std::promise<JobResult>>();
  std::future<JobResult> Fut = Promise->get_future();
  submitAsync(std::move(Request), [Promise](JobResult R) {
    Promise->set_value(std::move(R));
  });
  return Fut;
}

bool SchedulerService::submitAsync(JobRequest Request,
                                   std::function<void(JobResult)> OnDone) {
  assert(OnDone && "submitAsync needs a completion callback");
  obs::TraceSpan Admit("admit", "service");

  // Urgency: tighter deadlines run first. Absolute deadlines and
  // tightness fractions are both "smaller = more stringent"; mixing the
  // two in one queue is a heuristic, but batches are normally uniform.
  double Urgency = Request.DeadlineSeconds > 0.0 ? Request.DeadlineSeconds
                                                 : Request.DeadlineTightness;
  auto Job = std::make_unique<PendingJob>();
  Job->Request = std::move(Request);
  Job->OnDone = std::move(OnDone);

  std::string RejectReason;
  size_t Depth = 0;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopping) {
      RejectReason = "service is shutting down";
    } else if (Queue.size() >= Opts.QueueCapacity) {
      RejectReason = "queue full (capacity " +
                     std::to_string(Opts.QueueCapacity) + ", " +
                     std::to_string(Queue.size()) + " jobs pending)";
    } else {
      Job->Enqueued = Clock::now();
      Queue.emplace(QueueKey{Urgency, AdmitSeq++}, std::move(Job));
      Depth = Queue.size();
    }
  }
  Admit.arg("queue_depth", static_cast<double>(Depth));
  Admit.end();

  ServiceMetrics &M = serviceMetrics();
  if (RejectReason.empty()) {
    M.Submitted.inc();
    M.QueueDepth.set(static_cast<double>(Depth));
    M.QueueDepthPeak.max(static_cast<double>(Depth));
    Cv.notify_one();
    return true;
  }
  M.Rejected.inc();
  JobResult R;
  R.Id = Job->Request.Id;
  R.Status = JobStatus::Rejected;
  R.Reason = std::move(RejectReason);
  Job->OnDone(std::move(R));
  return false;
}

std::vector<JobResult>
SchedulerService::runBatch(std::vector<JobRequest> Requests) {
  std::vector<std::future<JobResult>> Futures;
  Futures.reserve(Requests.size());
  for (JobRequest &R : Requests)
    Futures.push_back(submit(std::move(R)));
  std::vector<JobResult> Results;
  Results.reserve(Futures.size());
  for (std::future<JobResult> &F : Futures)
    Results.push_back(F.get());
  return Results;
}

void SchedulerService::pause() {
  std::lock_guard<std::mutex> Lock(Mu);
  Paused = true;
}

void SchedulerService::resume() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Paused = false;
  }
  Cv.notify_all();
}

void SchedulerService::shutdown() {
  // call_once blocks concurrent callers until the active call returns,
  // so every caller comes back after the drain, and the workers are
  // joined exactly once.
  std::call_once(ShutdownOnce, [this] {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopping = true;
    }
    Cv.notify_all();
    for (std::thread &T : Workers)
      T.join(); // the workers drain the queue before they exit
  });
}

void SchedulerService::workerLoop() {
  for (;;) {
    std::unique_ptr<PendingJob> Job;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      // Shutdown overrides pause: a stopping service drains everything.
      Cv.wait(Lock, [this] {
        return Stopping || (!Paused && !Queue.empty());
      });
      if (Queue.empty())
        return; // stopping, and nothing left to drain
      auto It = Queue.begin();
      Job = std::move(It->second);
      Queue.erase(It);
      serviceMetrics().QueueDepth.set(static_cast<double>(Queue.size()));
    }
    long Seq = DequeueSeq.fetch_add(1, std::memory_order_relaxed);
    JobResult R = execute(Job->Request, secondsSince(Job->Enqueued), Seq);
    ServiceMetrics &M = serviceMetrics();
    switch (R.Status) {
    case JobStatus::Done:
      M.Completed.inc();
      break;
    case JobStatus::Infeasible:
      M.Infeasible.inc();
      break;
    default:
      M.Failed.inc();
      break;
    }
    Job->OnDone(std::move(R));
  }
}

ErrorOr<std::vector<CategoryProfile>>
SchedulerService::profileStage(const JobRequest &Request,
                               const ModeTable &Modes,
                               double *ProfileSeconds) {
  auto RegIt = workloadRegistry().find(Request.Workload);
  if (RegIt == workloadRegistry().end())
    return makeError("unknown workload '" + Request.Workload +
                     "' (known: " + knownWorkloadNames() + ")");
  const Workload &W = RegIt->second;

  // Default category: the workload's first input, weight 1.
  std::vector<JobCategory> Categories = Request.Categories;
  if (Categories.empty())
    Categories.push_back({W.Inputs.front().Name, 1.0});

  double WeightSum = 0.0;
  for (const JobCategory &C : Categories) {
    if (C.Weight <= 0.0)
      return makeError("category weight must be positive (input '" +
                       C.Input + "')");
    WeightSum += C.Weight;
  }

  std::string ModesKey = modeTableDigest(Modes);
  std::vector<CategoryProfile> Out;
  Out.reserve(Categories.size());
  for (const JobCategory &C : Categories) {
    ErrorOr<std::shared_ptr<const Profile>> Cached =
        profileOne(Request.Workload, C.Input, Modes, ModesKey,
                   ProfileSeconds);
    if (!Cached)
      return makeError(Cached.message());
    Out.push_back({**Cached, C.Weight / WeightSum});
  }
  return Out;
}

ErrorOr<std::shared_ptr<const Profile>>
SchedulerService::profileOne(const std::string &WorkloadName,
                             const std::string &InputName,
                             const ModeTable &Modes,
                             const std::string &ModesKey,
                             double *ProfileSeconds) {
  auto RegIt = workloadRegistry().find(WorkloadName);
  if (RegIt == workloadRegistry().end())
    return makeError("unknown workload '" + WorkloadName +
                     "' (known: " + knownWorkloadNames() + ")");
  const Workload &W = RegIt->second;
  const std::string &Wanted =
      InputName.empty() ? W.Inputs.front().Name : InputName;
  const WorkloadInput *Input = nullptr;
  for (const WorkloadInput &In : W.Inputs)
    if (In.Name == Wanted)
      Input = &In;
  if (!Input) {
    std::string Known;
    for (const WorkloadInput &In : W.Inputs)
      Known += (Known.empty() ? "" : ", ") + In.Name;
    return makeError("unknown input '" + Wanted + "' for workload '" +
                     WorkloadName + "' (known: " + Known + ")");
  }

  // A miss collects (the simulator runs once per mode); workers racing
  // on the same key wait for that one collection. Either way the time
  // is this job's profile stage.
  auto T0 = Clock::now();
  SingleFlight<Profile>::Lookup L = Profiles.getOrCompute(
      WorkloadName + "\x1f" + Wanted + "\x1f" + ModesKey, [&] {
        Simulator Sim(*W.Fn);
        Input->Setup(Sim);
        return std::make_shared<const Profile>(collectProfile(Sim, Modes));
      });
  if (!L.Hit)
    *ProfileSeconds += secondsSince(T0);
  return L.Value;
}

JobResult SchedulerService::execute(const JobRequest &Request,
                                    double QueueSeconds, long DequeueSeq) {
  obs::ScopedSpanContext CtxGuard(spanContextOf(Request));
  obs::TraceSpan JobSpan("job", "service");
  JobSpan.arg("dequeue_seq", static_cast<double>(DequeueSeq));
  if (Request.Graph)
    JobSpan.arg("graph_tasks", static_cast<double>(Request.Graph->Nodes.size()));
  auto T0 = Clock::now();
  JobResult R;
  R.Id = Request.Id;
  R.QueueSeconds = QueueSeconds;
  R.DequeueSeq = DequeueSeq;
  return Request.Graph ? executeGraph(Request, R, T0)
                       : executeProgram(Request, R, T0);
}

template <typename SolveFn>
JobResult SchedulerService::solveAndFinish(const JobRequest &Request,
                                           JobResult &R,
                                           Clock::time_point T0,
                                           SolveFn &&Solve) {
  std::string TransientError;
  obs::TraceSpan SolveSpan("solve", "service");
  ResultCache::Lookup L = Cache.getOrCompute(
      R.Fingerprint, [&]() -> std::shared_ptr<const CachedSchedule> {
        if (Opts.PeerFill) {
          // Cluster mode: a key that migrated here on a ring rebuild may
          // already be solved on its previous owner — fetch beats a cold
          // solve by orders of magnitude. Misses fall through to solving.
          obs::TraceSpan FillSpan("peer_fill", "service");
          std::shared_ptr<const CachedSchedule> Fetched =
              Opts.PeerFill(Request, R.Fingerprint);
          FillSpan.arg("hit", Fetched ? 1.0 : 0.0);
          if (Fetched)
            return Fetched;
        }
        return Solve(TransientError);
      });
  SolveSpan.arg("cache_hit", L.Hit ? 1.0 : 0.0);
  SolveSpan.arg("shared_flight", L.Shared ? 1.0 : 0.0);
  SolveSpan.end();

  R.CacheHit = L.Hit;
  R.SharedFlight = L.Shared;
  if (!L.Value)
    return finishJob(R, T0, JobStatus::Failed,
                     TransientError.empty()
                         ? std::string("shared solve failed; retry")
                         : TransientError);
  const CachedSchedule &C = *L.Value;
  R.ScheduleText = C.ScheduleText;
  R.PredictedEnergyJoules = C.PredictedEnergyJoules;
  R.Milp = C.Milp;
  R.SolveSeconds = C.SolveSeconds;
  R.SerializeSeconds = C.SerializeSeconds;
  R.VerifySeconds = C.VerifySeconds;
  R.VerifyErrors = C.VerifyErrors;
  R.VerifyDetail = C.VerifyDetail;
  if (Request.Graph) {
    R.Replans = std::max(C.Replans, 0);
    R.ReplansAccepted = C.ReplansAccepted;
    R.StaticEnergyJoules = C.StaticEnergyJoules;
    R.ActualEnergyJoules = C.ActualEnergyJoules;
    R.MakespanSeconds = C.MakespanSeconds;
  }
  if (!C.Feasible)
    return finishJob(R, T0, JobStatus::Infeasible, C.Reason);
  if (R.VerifyErrors > 0) {
    serviceMetrics().VerifyFailures.inc();
    if (Opts.Verify == VerifyMode::Strict)
      return finishJob(R, T0, JobStatus::Failed,
                       "verification failed (" +
                           std::to_string(R.VerifyErrors) +
                           " errors): " + R.VerifyDetail);
  }
  return finishJob(R, T0, JobStatus::Done);
}

JobResult SchedulerService::executeProgram(const JobRequest &Request,
                                           JobResult &R,
                                           Clock::time_point T0) {
  // Request validation (stage 0): reject malformed knobs with reasons.
  if (Request.Workload.empty())
    return finishJob(R, T0, JobStatus::Failed, "missing workload name");
  if (Request.FilterThreshold < 0.0 || Request.FilterThreshold >= 1.0)
    return finishJob(R, T0, JobStatus::Failed,
                     "filter threshold must be in [0, 1)");
  if (Request.DeadlineSeconds <= 0.0 && Request.DeadlineTightness < 0.0)
    return finishJob(R, T0, JobStatus::Failed,
                     "deadline tightness must be nonnegative");
  std::string KnobError = modeKnobError(Request);
  if (!KnobError.empty())
    return finishJob(R, T0, JobStatus::Failed, KnobError);

  ModeTable Modes = modeTableOf(Request);
  int InitialMode = Request.InitialMode < 0
                        ? static_cast<int>(Modes.size()) - 1
                        : Request.InitialMode;
  if (InitialMode >= static_cast<int>(Modes.size()))
    return finishJob(R, T0, JobStatus::Failed,
                     "initial mode " + std::to_string(InitialMode) +
                         " out of range (table has " +
                         std::to_string(Modes.size()) + " modes)");
  TransitionModel Transitions(Request.CapacitanceF, 0.9, 1.0);

  // Stage 1: profiles (memoized).
  ErrorOr<std::vector<CategoryProfile>> Profiled = [&] {
    obs::TraceSpan Span("profile", "service");
    return profileStage(Request, Modes, &R.ProfileSeconds);
  }();
  if (!Profiled)
    return finishJob(R, T0, JobStatus::Failed, Profiled.message());
  std::vector<CategoryProfile> &Categories = *Profiled;

  // Stage 2: deadline resolution, early feasibility, lower bound, and
  // the instance fingerprint (all the analytic, pre-MILP work).
  obs::TraceSpan BoundSpan("bound", "service");
  uint64_t BoundT0 = monotonicNanos();
  std::vector<double> Deadlines(Categories.size(), 0.0);
  for (size_t C = 0; C < Categories.size(); ++C) {
    const Profile &P = Categories[C].Data;
    double TFast = P.TotalTimeAtMode.back();
    double TSlow = P.TotalTimeAtMode.front();
    Deadlines[C] =
        Request.DeadlineSeconds > 0.0
            ? Request.DeadlineSeconds
            : TFast + Request.DeadlineTightness * (TSlow - TFast);
    if (Deadlines[C] < TFast) {
      R.BoundSeconds = nanosToSeconds(monotonicNanos() - BoundT0);
      return finishJob(
          R, T0, JobStatus::Infeasible,
          "deadline " + std::to_string(Deadlines[C] * 1e3) +
              " ms is below the fastest single-mode time " +
              std::to_string(TFast * 1e3) + " ms (category " +
              std::to_string(C) + ")");
    }
  }
  R.DeadlineSeconds = Deadlines.front();
  R.LowerBoundJoules = energyLowerBound(Categories);

  // Stage 3: fingerprint, then solve through the content-addressed
  // cache with single-flight deduplication.
  R.Fingerprint = fingerprintDvsInstance(
      Categories, Deadlines, Modes, Transitions, Request.FilterThreshold,
      InitialMode);
  R.BoundSeconds = nanosToSeconds(monotonicNanos() - BoundT0);
  BoundSpan.end();

  const Workload &W = workloadRegistry().at(Request.Workload);

  // Analyze stage: static CFG analysis feeding the certified presolve,
  // computed once per workload and shared across workers (the facts are
  // profile-independent).
  std::shared_ptr<const analysis::FunctionAnalysis> FA;
  if (Opts.Presolve) {
    obs::TraceSpan AnalyzeSpan("analyze", "service");
    uint64_t AnalyzeT0 = monotonicNanos();
    SingleFlight<analysis::FunctionAnalysis>::Lookup L =
        Analyses.getOrCompute(Request.Workload, [&] {
          return std::make_shared<const analysis::FunctionAnalysis>(
              analysis::analyzeFunction(*W.Fn));
        });
    FA = L.Value;
    serviceMetrics().Analyze.observe(
        nanosToSeconds(monotonicNanos() - AnalyzeT0));
    AnalyzeSpan.arg("cache_hit", L.Hit ? 1.0 : 0.0);
  }

  double LowerBound = R.LowerBoundJoules;
  return solveAndFinish(
      Request, R, T0,
      [&](std::string &TransientError)
          -> std::shared_ptr<const CachedSchedule> {
        DvsOptions O;
        O.FilterThreshold = Request.FilterThreshold;
        O.InitialMode = InitialMode;
        O.Milp.NumThreads = Opts.MilpThreadsPerJob;
        // The certificate pass needs the exact MILP instance and raw
        // solution the scheduler otherwise discards.
        O.KeepArtifacts = Opts.Verify != VerifyMode::Off;
        O.Presolve = Opts.Presolve;
        O.Analysis = FA.get();
        DvsScheduler Scheduler(*W.Fn, Categories, Modes, Transitions, O);
        auto TSolve = Clock::now();
        ErrorOr<ScheduleResult> SR = Scheduler.schedule(Deadlines);
        if (SR && Opts.Presolve) {
          ServiceMetrics &M = serviceMetrics();
          M.PresolveVarsFixed.inc(SR->PresolveVarsFixed);
          M.PresolveRowsDropped.inc(SR->PresolveRowsDropped);
          M.PresolveDeadGroups.inc(SR->PresolveDeadGroups);
          M.PresolveSeconds.observe(SR->PresolveSeconds);
        }
        auto C = std::make_shared<CachedSchedule>();
        C->SolveSeconds = secondsSince(TSolve);
        C->LowerBoundJoules = LowerBound;
        if (!SR) {
          // Infeasibility is a deterministic property of the instance:
          // cache it. Search-limit failures are transient: don't.
          if (SR.message().find("infeasible") == std::string::npos) {
            TransientError = SR.message();
            return nullptr;
          }
          C->Feasible = false;
          C->Reason = SR.message();
          C->Milp = MilpStatus::Infeasible;
          return C;
        }
        {
          obs::TraceSpan Serialize("serialize", "service");
          uint64_t SerT0 = monotonicNanos();
          C->ScheduleText = writeSchedule(SR->Assignment);
          C->SerializeSeconds = nanosToSeconds(monotonicNanos() - SerT0);
        }
        C->PredictedEnergyJoules = SR->PredictedEnergyJoules;
        C->Milp = SR->Status;
        if (Opts.Verify != VerifyMode::Off) {
          // Verify the fresh solve once; hits and shared flights reuse
          // the outcome (the instance, and hence the verdict, is
          // content-addressed by the same fingerprint).
          obs::TraceSpan VerifySpan("verify", "service");
          uint64_t VerT0 = monotonicNanos();
          verify::AuditOptions AOpts;
          AOpts.FilterThreshold = Request.FilterThreshold;
          verify::Audit A = verify::auditScheduleResult(
              *W.Fn, Categories, Modes, Transitions, *SR, Deadlines,
              AOpts);
          C->VerifyErrors = A.R.errorCount();
          C->VerifyDetail = A.R.firstError();
          C->VerifySeconds = nanosToSeconds(monotonicNanos() - VerT0);
          VerifySpan.arg("errors",
                         static_cast<double>(C->VerifyErrors));
        }
        return C;
      });
}

JobResult SchedulerService::executeGraph(const JobRequest &Request,
                                         JobResult &R,
                                         Clock::time_point T0) {
  const taskgraph::TaskGraph &G = *Request.Graph;

  // Stage 0: validation. The JSON codec validates graphs it parses, but
  // in-process callers can hand the service anything.
  if (!Request.Workload.empty() || !Request.Categories.empty())
    return finishJob(R, T0, JobStatus::Failed,
                     "graph requests must not carry workload/categories");
  ErrorOr<bool> Valid = taskgraph::validateGraph(G);
  if (!Valid)
    return finishJob(R, T0, JobStatus::Failed, Valid.message());
  if (G.DeadlineSeconds <= 0.0 && G.DeadlineTightness < 0.0)
    return finishJob(R, T0, JobStatus::Failed,
                     "graph deadline tightness must be nonnegative");
  std::string KnobError = modeKnobError(Request);
  if (!KnobError.empty())
    return finishJob(R, T0, JobStatus::Failed, KnobError);

  ModeTable Modes = modeTableOf(Request);
  std::string ModesKey = modeTableDigest(Modes);

  // Stage 1: per-node profiles through the shared memoized cache; a
  // graph reusing one workload profiles it once.
  taskgraph::TaskCosts Costs;
  {
    obs::TraceSpan Span("profile", "service");
    Costs.TimeAtMode.reserve(G.Nodes.size());
    Costs.EnergyAtMode.reserve(G.Nodes.size());
    for (const taskgraph::TaskNode &N : G.Nodes) {
      ErrorOr<std::shared_ptr<const Profile>> P = profileOne(
          N.Workload, N.Input, Modes, ModesKey, &R.ProfileSeconds);
      if (!P)
        return finishJob(R, T0, JobStatus::Failed,
                         "task '" + N.Name + "': " + P.message());
      Costs.TimeAtMode.push_back((*P)->TotalTimeAtMode);
      Costs.EnergyAtMode.push_back((*P)->TotalEnergyAtMode);
    }
  }

  // Stage 2: deadline resolution against the critical path (fastest
  // modes = the tightest meetable deadline), graph lower bound, and the
  // instance fingerprint.
  obs::TraceSpan BoundSpan("bound", "service");
  uint64_t BoundT0 = monotonicNanos();
  double TFast = taskgraph::criticalPathSeconds(G, Costs, -1);
  double TSlow = taskgraph::criticalPathSeconds(G, Costs, 0);
  double Deadline = G.DeadlineSeconds > 0.0
                        ? G.DeadlineSeconds
                        : TFast + G.DeadlineTightness * (TSlow - TFast);
  if (Deadline < TFast * (1.0 - 1e-12)) {
    R.BoundSeconds = nanosToSeconds(monotonicNanos() - BoundT0);
    return finishJob(R, T0, JobStatus::Infeasible,
                     "graph deadline " + std::to_string(Deadline * 1e3) +
                         " ms is below the all-fastest critical path " +
                         std::to_string(TFast * 1e3) + " ms");
  }
  R.DeadlineSeconds = Deadline;
  {
    // Deadline-free bound: every task at its cheapest mode.
    double Bound = 0.0;
    for (const auto &E : Costs.EnergyAtMode)
      Bound += *std::min_element(E.begin(), E.end());
    R.LowerBoundJoules = Bound;
  }
  {
    HashBuilder H;
    H.add(std::string("cdvs-taskgraph-instance-v1"));
    Fingerprint128 GF = taskgraph::fingerprintTaskGraph(G);
    H.add(GF.Hi);
    H.add(GF.Lo);
    H.add(ModesKey);
    H.add(Deadline);
    H.add(static_cast<uint64_t>(Request.GraphReplan ? 1 : 0));
    Fingerprint128 F;
    H.digestRaw(F.Hi, F.Lo);
    R.Fingerprint = F.toHex();
  }
  R.BoundSeconds = nanosToSeconds(monotonicNanos() - BoundT0);
  BoundSpan.end();

  GraphMetrics &GM = graphMetrics();
  GM.Jobs.inc();
  GM.Tasks.inc(static_cast<double>(G.Nodes.size()));

  double LowerBound = R.LowerBoundJoules;
  return solveAndFinish(
      Request, R, T0,
      [&](std::string &) -> std::shared_ptr<const CachedSchedule> {
        taskgraph::OnlineOptions OO;
        OO.Replan = Request.GraphReplan;
        OO.Planner.Milp.NumThreads = Opts.MilpThreadsPerJob;
        auto TSolve = Clock::now();
        taskgraph::OnlineResult OR =
            taskgraph::runOnline(G, Costs, Deadline, OO);
        auto C = std::make_shared<CachedSchedule>();
        C->SolveSeconds = secondsSince(TSolve);
        C->LowerBoundJoules = LowerBound;
        graphMetrics().Plan.observe(C->SolveSeconds);
        if (!OR.Feasible) {
          // Like single-program infeasibility: a deterministic property
          // of the instance, cached as such.
          C->Feasible = false;
          C->Reason = "no mode assignment meets the shared deadline";
          C->Milp = MilpStatus::Infeasible;
          C->Replans = 0;
          return C;
        }
        {
          obs::TraceSpan Serialize("serialize", "service");
          uint64_t SerT0 = monotonicNanos();
          C->ScheduleText = taskgraph::writeTaskPlan(G, OR);
          C->SerializeSeconds = nanosToSeconds(monotonicNanos() - SerT0);
        }
        C->PredictedEnergyJoules = OR.PlannedEnergyJoules;
        C->Milp = OR.StaticPlan.Status;
        C->Replans = OR.Replans;
        C->ReplansAccepted = OR.ReplansAccepted;
        C->StaticEnergyJoules = OR.StaticEnergyJoules;
        C->ActualEnergyJoules = OR.ActualEnergyJoules;
        C->MakespanSeconds = OR.MakespanSeconds;
        if (Opts.Verify != VerifyMode::Off) {
          obs::TraceSpan VerifySpan("verify", "service");
          uint64_t VerT0 = monotonicNanos();
          verify::Report Rep =
              verify::checkTaskPlan(G, Costs, Deadline, OR);
          C->VerifyErrors = Rep.errorCount();
          C->VerifyDetail = Rep.firstError();
          C->VerifySeconds = nanosToSeconds(monotonicNanos() - VerT0);
          VerifySpan.arg("errors", static_cast<double>(C->VerifyErrors));
        }
        return C;
      });
}
