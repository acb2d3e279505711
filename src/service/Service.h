//===- service/Service.h - Batch DVS-scheduling service ---------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process scheduling service that turns the reproduction into a
/// servable system: callers submit DVS jobs (service/Job.h) and get
/// futures of serialized schedules. Each accepted job runs a staged
/// pipeline on one of the service's own worker threads:
///
///   1. profile   — resolve the workload, collect per-mode profiles
///                  (memoized single-flight: identical (workload, input,
///                  mode table) tuples profile once per service, however
///                  many workers race on them);
///   2. bound     — resolve the deadline, reject infeasible deadlines
///                  early, compute the deadline-free energy lower bound
///                  (every block at its cheapest mode);
///   3. schedule  — fingerprint the normalized MILP instance
///                  (milp/Fingerprint.h) and solve through the
///                  content-addressed ResultCache, so repeated and
///                  concurrent identical instances cost one MILP.
///
/// Every memo here — results, profiles, static analyses — is a
/// service/SingleFlight.h instance. Job counters live only in the
/// process metrics registry (the cdvs_jobs_* families); per-instance
/// counts come from cacheStats() and profileStats().
///
/// Admission control and backpressure: the pending queue is bounded
/// (ServiceOptions::QueueCapacity); submissions beyond it complete
/// immediately as Rejected with a reason instead of queueing without
/// bound. Pending jobs are ordered by deadline urgency (absolute seconds
/// or tightness — smaller first), FIFO within a tie, so stringent jobs
/// never starve behind lax batch work.
///
/// shutdown() is drain-and-stop: accepted work completes, new work is
/// rejected; it is idempotent and runs from the destructor too.
/// pause()/resume() hold workers between dequeues — deterministic
/// backpressure and priority tests hinge on this.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SERVICE_SERVICE_H
#define CDVS_SERVICE_SERVICE_H

#include "analysis/Analysis.h"
#include "power/ModeTable.h"
#include "profile/Profile.h"
#include "service/Job.h"
#include "service/ResultCache.h"
#include "service/SingleFlight.h"
#include "support/Error.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cdvs {

/// Post-solve static verification policy (src/verify). Off skips the
/// passes entirely; Warn runs them and records findings on the result;
/// Strict additionally fails jobs whose schedule draws any
/// error-severity diagnostic.
enum class VerifyMode { Off, Warn, Strict };

/// \returns a printable lower-case name ("off", "warn", "strict").
const char *verifyModeName(VerifyMode Mode);

/// Parses "off"/"warn"/"strict"; \returns false on anything else.
bool parseVerifyMode(const std::string &Text, VerifyMode &Out);

/// Cluster cache-fill hook (src/cluster/PeerFill.h): given the request
/// and its instance fingerprint, try to pull the already-solved schedule
/// from the previous ring owner. Returns the fetched value, or nullptr
/// to fall through to a cold solve. Runs inside the single-flight leader
/// on a pipeline worker, so one fetch covers all concurrent duplicates.
using PeerFillFn = std::function<std::shared_ptr<const CachedSchedule>(
    const JobRequest &Request, const std::string &FingerprintHex)>;

/// Sizing and policy knobs for a SchedulerService.
struct ServiceOptions {
  /// Pipeline worker threads; 0 means one per hardware core.
  int NumWorkers = 0;
  /// Pending-job bound; submissions past it are rejected (backpressure).
  size_t QueueCapacity = 128;
  /// Result-cache entries across all shards.
  size_t CacheCapacity = 512;
  size_t CacheShards = 8;
  /// MILP threads per job; 1 keeps node exploration deterministic so
  /// cache hits are byte-identical to fresh solves, and lets job-level
  /// parallelism own the cores.
  int MilpThreadsPerJob = 1;
  /// Start with workers paused (tests build deterministic queues).
  bool StartPaused = false;
  /// Post-solve verification: run the src/verify passes over every
  /// fresh schedule (Warn records, Strict fails the job on errors).
  VerifyMode Verify = VerifyMode::Off;
  /// Run the analyze stage (static CFG analysis, memoized per workload)
  /// and hand the scheduler its certified presolve. Schedules are
  /// byte-identical either way; off skips the analysis and solves the
  /// full MILP.
  bool Presolve = true;
  /// When set, cache misses first try this peer fetch before solving
  /// cold (cluster mode; empty in single-node deployments).
  PeerFillFn PeerFill;
};

/// The batch DVS-scheduling service; see the file comment.
class SchedulerService {
public:
  explicit SchedulerService(ServiceOptions Opts = ServiceOptions());
  ~SchedulerService();

  SchedulerService(const SchedulerService &) = delete;
  SchedulerService &operator=(const SchedulerService &) = delete;

  /// Submits one job through submitAsync(). Admission happens
  /// synchronously: the returned future is already resolved (Rejected)
  /// when the queue is full or the service is shutting down.
  std::future<JobResult> submit(JobRequest Request);

  /// Callback-style submission for event-driven callers (the network
  /// front end): \p OnDone runs exactly once with the result — on a
  /// pipeline worker thread when the job was admitted, or inline (before
  /// this call returns, with a Rejected result) when admission refused
  /// it. \returns true when the job was admitted. \p OnDone must not
  /// throw and must not block the worker for long; shutdown() still
  /// drains admitted jobs, so every accepted callback fires before
  /// shutdown() returns.
  bool submitAsync(JobRequest Request,
                   std::function<void(JobResult)> OnDone);

  /// Submits every request, then waits; results come back in request
  /// order.
  std::vector<JobResult> runBatch(std::vector<JobRequest> Requests);

  /// Holds workers before their next dequeue (queued work stays queued).
  void pause();
  /// Releases paused workers.
  void resume();

  /// Drains accepted work, then joins the workers. Idempotent and safe
  /// to call from several threads at once: every call returns only
  /// after the drain. New submissions are rejected once shutdown begins.
  void shutdown();

  CacheStats cacheStats() const { return Cache.stats(); }
  /// The profile memo's counters: one miss per distinct (workload,
  /// input, mode table) collected, shared flights for racing workers.
  CacheStats profileStats() const { return Profiles.stats(); }
  /// Non-computing result-cache probe by fingerprint hex — what a
  /// PeerFetch frame answers with (net::Server). Does not touch cache
  /// counters or recency.
  std::shared_ptr<const CachedSchedule>
  cachePeek(const std::string &FingerprintHex) const {
    return Cache.peek(FingerprintHex);
  }

private:
  using Clock = std::chrono::steady_clock;

  struct PendingJob {
    JobRequest Request;
    std::function<void(JobResult)> OnDone;
    Clock::time_point Enqueued;
  };
  /// Priority key: (urgency, admission sequence) — smaller runs first.
  using QueueKey = std::pair<double, long>;

  void workerLoop();
  /// Installs the request's trace context and the job span, then runs
  /// the single-program or the task-graph pipeline.
  JobResult execute(const JobRequest &Request, double QueueSeconds,
                    long DequeueSeq);
  /// The single-program pipeline; \p R carries the queue stamps and
  /// \p T0 is the job's start.
  JobResult executeProgram(const JobRequest &Request, JobResult &R,
                           Clock::time_point T0);
  /// The task-graph pipeline (Request.Graph != nullptr): per-node
  /// profiles through the same memoized profile cache, a critical-path
  /// bound stage, then the static plan + online slack-reclamation run
  /// through the result cache keyed on the graph fingerprint, verified
  /// by verify::checkTaskPlan under Opts.Verify.
  JobResult executeGraph(const JobRequest &Request, JobResult &R,
                         Clock::time_point T0);
  /// The shared last stage of both pipelines: solve R.Fingerprint
  /// through the result cache (peer fill first when configured, else
  /// \p Solve, which may name a transient failure in its string
  /// argument and return nullptr), copy the cached outcome into \p R,
  /// and finish the job with its verify verdict.
  template <typename SolveFn>
  JobResult solveAndFinish(const JobRequest &Request, JobResult &R,
                           Clock::time_point T0, SolveFn &&Solve);
  /// Stage 1. \returns the per-category profiles (memoized) or an error.
  ErrorOr<std::vector<CategoryProfile>>
  profileStage(const JobRequest &Request, const ModeTable &Modes,
               double *ProfileSeconds);
  /// One (workload, input) profile through the memoized cache; the
  /// shared primitive of profileStage and the graph pipeline. Empty
  /// \p InputName selects the workload's default input.
  ErrorOr<std::shared_ptr<const Profile>>
  profileOne(const std::string &WorkloadName, const std::string &InputName,
             const ModeTable &Modes, const std::string &ModesKey,
             double *ProfileSeconds);

  ServiceOptions Opts;
  ResultCache Cache;

  /// (workload|input|modes digest) -> collected profile. Grows with the
  /// distinct profiled inputs — a handful per workload — so unbounded is
  /// the right bound.
  SingleFlight<Profile> Profiles;
  /// workload -> static CFG analysis (the analyze stage), likewise.
  SingleFlight<analysis::FunctionAnalysis> Analyses;

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::map<QueueKey, std::unique_ptr<PendingJob>> Queue;
  bool Paused = false;
  bool Stopping = false;
  long AdmitSeq = 0;

  std::atomic<long> DequeueSeq{0};

  std::once_flag ShutdownOnce;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> Workers;
};

} // namespace cdvs

#endif // CDVS_SERVICE_SERVICE_H
