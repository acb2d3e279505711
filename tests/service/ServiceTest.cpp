//===- tests/service/ServiceTest.cpp - scheduling service end to end ------===//
//
// The SchedulerService through its public surface: jobs in, schedules
// out, plus the admission-control, priority, caching, and lifecycle
// behavior the tentpole promises. gsm/adpcm keep the pipeline runs
// cheap; pause()/resume() and DequeueSeq make the queue-order tests
// deterministic.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "dvs/ScheduleIO.h"
#include "obs/Metrics.h"
#include "taskgraph/TaskGraph.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>

using namespace cdvs;

namespace {

/// A process-wide registry counter read as its rise since construction.
/// Job counters live only in the registry, which every service in the
/// process shares, so tests compare deltas.
class CounterDelta {
public:
  explicit CounterDelta(const char *Name)
      : C(obs::metrics().counter(Name, "")), Base(C.value()) {}
  long operator()() const { return static_cast<long>(C.value() - Base); }

private:
  obs::Counter &C;
  double Base;
};

JobRequest gsmJob(const std::string &Id, double Tightness = 0.5) {
  JobRequest R;
  R.Id = Id;
  R.Workload = "gsm";
  R.DeadlineTightness = Tightness;
  return R;
}

TEST(Service, SolvesAJobEndToEnd) {
  SchedulerService Service;
  CounterDelta Submitted("cdvs_jobs_submitted_total");
  CounterDelta Completed("cdvs_jobs_completed_total");
  CounterDelta Rejected("cdvs_jobs_rejected_total");
  JobResult R = Service.submit(gsmJob("one")).get();
  ASSERT_EQ(R.Status, JobStatus::Done) << R.Reason;
  EXPECT_EQ(R.Id, "one");
  EXPECT_EQ(R.Reason, "");
  EXPECT_EQ(R.Fingerprint.size(), 32u);
  EXPECT_FALSE(R.CacheHit);
  EXPECT_GT(R.DeadlineSeconds, 0.0);
  EXPECT_GT(R.PredictedEnergyJoules, 0.0);
  // The analytic bound is a true lower bound on the MILP optimum.
  EXPECT_LE(R.LowerBoundJoules, R.PredictedEnergyJoules);
  EXPECT_GT(R.LowerBoundJoules, 0.0);

  // The schedule text parses and re-serializes byte-identically.
  ErrorOr<ModeAssignment> A = readSchedule(R.ScheduleText, 3);
  ASSERT_TRUE(A.hasValue()) << A.message();
  EXPECT_EQ(writeSchedule(*A), R.ScheduleText);

  EXPECT_EQ(Submitted(), 1);
  EXPECT_EQ(Completed(), 1);
  EXPECT_EQ(Rejected(), 0);
}

TEST(Service, ResubmissionHitsTheCacheByteIdentically) {
  SchedulerService Service;
  JobResult First = Service.submit(gsmJob("cold")).get();
  ASSERT_EQ(First.Status, JobStatus::Done) << First.Reason;
  JobResult Second = Service.submit(gsmJob("warm")).get();
  ASSERT_EQ(Second.Status, JobStatus::Done) << Second.Reason;
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Second.Fingerprint, First.Fingerprint);
  EXPECT_EQ(Second.ScheduleText, First.ScheduleText);
  EXPECT_EQ(Second.PredictedEnergyJoules, First.PredictedEnergyJoules);
  EXPECT_EQ(Service.cacheStats().Hits, 1);
  // Profiles were memoized too: one collection served both jobs.
  EXPECT_EQ(Service.profileStats().Misses, 1);
  EXPECT_EQ(Service.profileStats().Hits, 1);
}

TEST(Service, DifferentKnobsMissTheCache) {
  SchedulerService Service;
  ASSERT_EQ(Service.submit(gsmJob("a", 0.4)).get().Status,
            JobStatus::Done);
  JobResult B = Service.submit(gsmJob("b", 0.6)).get();
  ASSERT_EQ(B.Status, JobStatus::Done);
  EXPECT_FALSE(B.CacheHit);
  EXPECT_EQ(Service.cacheStats().Misses, 2);
}

TEST(Service, RejectsWhenTheQueueIsFull) {
  // Paused workers + capacity 2: the third submission must be bounced
  // immediately with an explanation, not queued without bound.
  ServiceOptions O;
  O.NumWorkers = 1;
  O.QueueCapacity = 2;
  O.StartPaused = true;
  SchedulerService Service(O);
  CounterDelta Rejections("cdvs_jobs_rejected_total");
  std::future<JobResult> A = Service.submit(gsmJob("a"));
  std::future<JobResult> B = Service.submit(gsmJob("b"));
  std::future<JobResult> Rejected = Service.submit(gsmJob("c"));
  // The rejection is synchronous: the future is already resolved.
  ASSERT_EQ(Rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  JobResult R = Rejected.get();
  EXPECT_EQ(R.Status, JobStatus::Rejected);
  EXPECT_NE(R.Reason.find("queue full"), std::string::npos);
  EXPECT_NE(R.Reason.find("capacity 2"), std::string::npos);

  // Draining the queue re-opens admission.
  Service.resume();
  EXPECT_EQ(A.get().Status, JobStatus::Done);
  EXPECT_EQ(B.get().Status, JobStatus::Done);
  EXPECT_EQ(Service.submit(gsmJob("d")).get().Status, JobStatus::Done);
  EXPECT_EQ(Rejections(), 1);
}

TEST(Service, DequeuesByDeadlineUrgency) {
  // Four jobs queued while paused, one worker: pickup order must follow
  // deadline tightness (most stringent first), not submission order.
  ServiceOptions O;
  O.NumWorkers = 1;
  O.StartPaused = true;
  SchedulerService Service(O);
  std::future<JobResult> Lax = Service.submit(gsmJob("lax", 0.9));
  std::future<JobResult> Mid = Service.submit(gsmJob("mid", 0.5));
  std::future<JobResult> Tight = Service.submit(gsmJob("tight", 0.1));
  std::future<JobResult> Mid2 = Service.submit(gsmJob("mid2", 0.5));
  Service.resume();
  JobResult RL = Lax.get(), RM = Mid.get(), RT = Tight.get(),
            RM2 = Mid2.get();
  EXPECT_LT(RT.DequeueSeq, RM.DequeueSeq);
  EXPECT_LT(RM.DequeueSeq, RL.DequeueSeq);
  // FIFO within a tie.
  EXPECT_LT(RM.DequeueSeq, RM2.DequeueSeq);
  EXPECT_LT(RM2.DequeueSeq, RL.DequeueSeq);
}

TEST(Service, AbsoluteDeadlinesOutrankTightness) {
  // An absolute deadline in seconds is far smaller than any tightness
  // fraction >= it competes with... so express both jobs in absolute
  // terms to compare like with like.
  ServiceOptions O;
  O.NumWorkers = 1;
  O.StartPaused = true;
  SchedulerService Service(O);
  JobRequest Loose = gsmJob("loose");
  Loose.DeadlineSeconds = 0.5; // half a second: very lax
  JobRequest Tight = gsmJob("tight");
  Tight.DeadlineSeconds = 0.02;
  std::future<JobResult> FL = Service.submit(Loose);
  std::future<JobResult> FT = Service.submit(Tight);
  Service.resume();
  EXPECT_LT(FT.get().DequeueSeq, FL.get().DequeueSeq);
}

TEST(Service, ReportsInfeasibleDeadlines) {
  SchedulerService Service;
  CounterDelta Infeasible("cdvs_jobs_infeasible_total");
  JobRequest R = gsmJob("impossible");
  R.DeadlineSeconds = 1e-9; // below the fastest single-mode time
  JobResult Res = Service.submit(R).get();
  EXPECT_EQ(Res.Status, JobStatus::Infeasible);
  EXPECT_NE(Res.Reason.find("deadline"), std::string::npos);
  EXPECT_EQ(Infeasible(), 1);
}

TEST(Service, FailsUnknownWorkloadAndInput) {
  SchedulerService Service;
  JobRequest Bad = gsmJob("bad");
  Bad.Workload = "quake3";
  JobResult R = Service.submit(Bad).get();
  EXPECT_EQ(R.Status, JobStatus::Failed);
  EXPECT_NE(R.Reason.find("quake3"), std::string::npos);
  EXPECT_NE(R.Reason.find("gsm"), std::string::npos) // names the options
      << R.Reason;

  JobRequest BadInput = gsmJob("badinput");
  BadInput.Categories.push_back({"no-such-input", 1.0});
  JobResult R2 = Service.submit(BadInput).get();
  EXPECT_EQ(R2.Status, JobStatus::Failed);
  EXPECT_NE(R2.Reason.find("no-such-input"), std::string::npos);
}

TEST(Service, ValidatesKnobsBeforeProfiling) {
  SchedulerService Service;
  JobRequest R = gsmJob("badfilter");
  R.FilterThreshold = 1.5;
  EXPECT_EQ(Service.submit(R).get().Status, JobStatus::Failed);

  JobRequest R2 = gsmJob("badlevels");
  R2.NumLevels = 1;
  EXPECT_EQ(Service.submit(R2).get().Status, JobStatus::Failed);

  JobRequest R3 = gsmJob("badmode");
  R3.InitialMode = 7; // xscale3 has modes 0..2
  EXPECT_EQ(Service.submit(R3).get().Status, JobStatus::Failed);

  JobRequest R4 = gsmJob("badweight");
  R4.Categories.push_back({"speech1", 0.0});
  EXPECT_EQ(Service.submit(R4).get().Status, JobStatus::Failed);
}

TEST(Service, WeightedCategoriesSolveAndReport) {
  SchedulerService Service;
  JobRequest R;
  R.Id = "multi";
  R.Workload = "adpcm";
  Workload W = workloadByName("adpcm");
  ASSERT_GE(W.Inputs.size(), 2u);
  R.Categories.push_back({W.Inputs[0].Name, 3.0});
  R.Categories.push_back({W.Inputs[1].Name, 1.0});
  JobResult Res = Service.submit(R).get();
  ASSERT_EQ(Res.Status, JobStatus::Done) << Res.Reason;
  EXPECT_LE(Res.LowerBoundJoules, Res.PredictedEnergyJoules);
  // Two categories, one workload: two profile collections.
  EXPECT_EQ(Service.profileStats().Misses, 2);
}

TEST(Service, RunBatchPreservesRequestOrder) {
  SchedulerService Service;
  std::vector<JobRequest> Batch = {gsmJob("x", 0.3), gsmJob("y", 0.6),
                                   gsmJob("z", 0.9)};
  std::vector<JobResult> Results = Service.runBatch(Batch);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].Id, "x");
  EXPECT_EQ(Results[1].Id, "y");
  EXPECT_EQ(Results[2].Id, "z");
  for (const JobResult &R : Results)
    EXPECT_EQ(R.Status, JobStatus::Done) << R.Id << ": " << R.Reason;
}

TEST(Service, ReportsStageLatencies) {
  SchedulerService Service;
  JobResult Cold = Service.submit(gsmJob("cold")).get();
  ASSERT_EQ(Cold.Status, JobStatus::Done) << Cold.Reason;
  // A cold job exercises every stage; each must report nonzero wall
  // time, and the stages can only account for part of the total.
  EXPECT_GT(Cold.ProfileSeconds, 0.0);
  EXPECT_GT(Cold.BoundSeconds, 0.0);
  EXPECT_GT(Cold.SolveSeconds, 0.0);
  EXPECT_GT(Cold.SerializeSeconds, 0.0);
  EXPECT_GE(Cold.QueueSeconds, 0.0);
  EXPECT_LE(Cold.SolveSeconds + Cold.SerializeSeconds,
            Cold.TotalSeconds);

  // A warm job reuses the cached solve but reports the ORIGINAL solve
  // and serialize cost (the cache's provenance contract).
  JobResult Warm = Service.submit(gsmJob("warm")).get();
  ASSERT_EQ(Warm.Status, JobStatus::Done) << Warm.Reason;
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.SolveSeconds, Cold.SolveSeconds);
  EXPECT_EQ(Warm.SerializeSeconds, Cold.SerializeSeconds);
}

TEST(Service, TracksPeakQueueDepth) {
  ServiceOptions O;
  O.NumWorkers = 1;
  O.StartPaused = true;
  SchedulerService Service(O);
  // Both gauges are process-wide; the peak is a max over every service
  // this process ran, so it can only be bounded from below here.
  obs::Gauge &Depth = obs::metrics().gauge("cdvs_admission_queue_depth", "");
  obs::Gauge &Peak =
      obs::metrics().gauge("cdvs_admission_queue_depth_peak", "");
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 3; ++I)
    Fs.push_back(Service.submit(gsmJob("q" + std::to_string(I))));
  EXPECT_EQ(Depth.value(), 3.0);
  EXPECT_GE(Peak.value(), 3.0);
  Service.resume();
  for (auto &F : Fs)
    EXPECT_EQ(F.get().Status, JobStatus::Done);
  EXPECT_EQ(Depth.value(), 0.0);
  // Peak is monotone: draining must not lower it.
  EXPECT_GE(Peak.value(), 3.0);
}

TEST(Service, VerifyModesParseAndRoundTrip) {
  VerifyMode M;
  EXPECT_TRUE(parseVerifyMode("off", M));
  EXPECT_EQ(M, VerifyMode::Off);
  EXPECT_TRUE(parseVerifyMode("warn", M));
  EXPECT_EQ(M, VerifyMode::Warn);
  EXPECT_TRUE(parseVerifyMode("strict", M));
  EXPECT_EQ(M, VerifyMode::Strict);
  EXPECT_FALSE(parseVerifyMode("paranoid", M));
  EXPECT_STREQ(verifyModeName(VerifyMode::Warn), "warn");
  EXPECT_STREQ(verifyModeName(VerifyMode::Strict), "strict");
}

TEST(Service, VerifyOffLeavesResultsUnaudited) {
  SchedulerService Service; // Verify defaults to Off
  CounterDelta VerifyFailures("cdvs_verify_failures_total");
  JobResult R = Service.submit(gsmJob("plain")).get();
  ASSERT_EQ(R.Status, JobStatus::Done) << R.Reason;
  EXPECT_EQ(R.VerifyErrors, -1);
  EXPECT_EQ(R.VerifyDetail, "");
  EXPECT_EQ(VerifyFailures(), 0);
}

TEST(Service, StrictVerifyPassesCleanSolvesAndCachesTheVerdict) {
  ServiceOptions O;
  O.Verify = VerifyMode::Strict;
  SchedulerService Service(O);
  CounterDelta VerifyFailures("cdvs_verify_failures_total");
  JobResult Cold = Service.submit(gsmJob("cold")).get();
  ASSERT_EQ(Cold.Status, JobStatus::Done) << Cold.Reason;
  EXPECT_EQ(Cold.VerifyErrors, 0) << Cold.VerifyDetail;
  EXPECT_GT(Cold.VerifySeconds, 0.0);

  // A cache hit reuses the stored verdict instead of re-auditing.
  JobResult Warm = Service.submit(gsmJob("warm")).get();
  ASSERT_EQ(Warm.Status, JobStatus::Done) << Warm.Reason;
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.VerifyErrors, 0);
  EXPECT_EQ(Warm.VerifySeconds, Cold.VerifySeconds);
  EXPECT_EQ(VerifyFailures(), 0);
}

TEST(Service, StrictVerifyAcceptsTheWarmStartedOptimum) {
  // Regression: with presolve on, this instance's warm-started node LPs
  // once settled on a tableau-drifted vertex; the search then claimed
  // 335.575 uJ as optimal and strict verification recomputed 329.810.
  ServiceOptions O;
  O.NumWorkers = 1;
  O.Verify = VerifyMode::Strict;
  SchedulerService Service(O);
  JobRequest R;
  R.Id = "drift";
  R.Workload = "adpcm";
  R.Categories.push_back({"rossini", 1.0});
  R.NumLevels = 4;
  R.DeadlineTightness = 0.254456;
  JobResult Res = Service.submit(R).get();
  ASSERT_EQ(Res.Status, JobStatus::Done) << Res.Reason;
  EXPECT_EQ(Res.VerifyErrors, 0) << Res.VerifyDetail;
  EXPECT_NEAR(Res.PredictedEnergyJoules * 1e6, 329.810, 5e-4);
}

TEST(Service, WarnVerifyAuditsABatch) {
  // bench_service's shape in miniature: a mixed batch under --verify=warn
  // completes with every solve audited clean.
  ServiceOptions O;
  O.Verify = VerifyMode::Warn;
  SchedulerService Service(O);
  CounterDelta VerifyFailures("cdvs_verify_failures_total");
  std::vector<JobRequest> Batch = {gsmJob("g1", 0.3), gsmJob("g2", 0.7)};
  JobRequest A;
  A.Id = "a1";
  A.Workload = "adpcm";
  A.DeadlineTightness = 0.5;
  Batch.push_back(A);
  for (const JobResult &R : Service.runBatch(Batch)) {
    ASSERT_EQ(R.Status, JobStatus::Done) << R.Id << ": " << R.Reason;
    EXPECT_EQ(R.VerifyErrors, 0) << R.Id << ": " << R.VerifyDetail;
  }
  EXPECT_EQ(VerifyFailures(), 0);
}

TEST(Service, ShutdownDrainsThenRejects) {
  ServiceOptions O;
  O.NumWorkers = 2;
  SchedulerService Service(O);
  std::vector<std::future<JobResult>> Accepted;
  for (int I = 0; I < 4; ++I) {
    std::string Name = "j";
    Name += std::to_string(I);
    Accepted.push_back(Service.submit(gsmJob(Name)));
  }
  Service.shutdown();
  // Every job accepted before shutdown completed.
  for (auto &F : Accepted)
    EXPECT_EQ(F.get().Status, JobStatus::Done);
  // New work is refused, and a second shutdown is a no-op.
  JobResult Late = Service.submit(gsmJob("late")).get();
  EXPECT_EQ(Late.Status, JobStatus::Rejected);
  EXPECT_NE(Late.Reason.find("shutting down"), std::string::npos);
  Service.shutdown();
}

TEST(Service, ShutdownWithUncollectedFuturesNeitherLeaksNorDeadlocks) {
  // A caller that submits and walks away (drops or never gets() its
  // futures) must not wedge shutdown: the promises are fulfilled into
  // abandoned shared states and freed. TSan/ASan runs make the "no
  // leak, no deadlock" claim real.
  ServiceOptions O;
  O.NumWorkers = 2;
  O.StartPaused = true; // everything still queued when shutdown starts
  auto Service = std::make_unique<SchedulerService>(O);
  CounterDelta Submitted("cdvs_jobs_submitted_total");
  CounterDelta Completed("cdvs_jobs_completed_total");
  for (int I = 0; I < 6; ++I)
    (void)Service->submit(gsmJob("orphan" + std::to_string(I)));
  ASSERT_EQ(Submitted(), 6);
  Service->resume();
  Service->shutdown(); // drains all six with nobody waiting
  EXPECT_EQ(Completed(), 6);
  Service.reset(); // destructor after explicit shutdown is a no-op
}

TEST(Service, SubmitAsyncRunsTheCallbackExactlyOnce) {
  SchedulerService Service;
  std::promise<JobResult> Done;
  bool Admitted = Service.submitAsync(gsmJob("cb"), [&](JobResult R) {
    Done.set_value(std::move(R)); // a second call would throw here
  });
  EXPECT_TRUE(Admitted);
  JobResult R = Done.get_future().get();
  EXPECT_EQ(R.Status, JobStatus::Done) << R.Reason;
  EXPECT_EQ(R.Id, "cb");
}

TEST(Service, SubmitAsyncRejectionRunsInline) {
  ServiceOptions O;
  O.NumWorkers = 1;
  O.QueueCapacity = 1;
  O.StartPaused = true;
  SchedulerService Service(O);
  ASSERT_TRUE(Service.submitAsync(gsmJob("fills"), [](JobResult) {}));

  // The queue is full: the callback fires before submitAsync returns,
  // on this thread, with the rejection.
  bool SawInline = false;
  bool Admitted = Service.submitAsync(gsmJob("over"), [&](JobResult R) {
    SawInline = true;
    EXPECT_EQ(R.Status, JobStatus::Rejected);
    EXPECT_EQ(R.Id, "over");
    EXPECT_NE(R.Reason.find("queue full"), std::string::npos) << R.Reason;
  });
  EXPECT_FALSE(Admitted);
  EXPECT_TRUE(SawInline);
  Service.resume();
}

TEST(Service, ShutdownFiresEveryAdmittedAsyncCallback) {
  ServiceOptions O;
  O.NumWorkers = 2;
  O.StartPaused = true;
  SchedulerService Service(O);
  std::atomic<int> Fired{0};
  const int N = 5;
  for (int I = 0; I < N; ++I)
    ASSERT_TRUE(Service.submitAsync(gsmJob("d" + std::to_string(I)),
                                    [&](JobResult R) {
                                      EXPECT_EQ(R.Status, JobStatus::Done);
                                      ++Fired;
                                    }));
  Service.resume();
  Service.shutdown(); // returns only after every callback ran
  EXPECT_EQ(Fired.load(), N);

  // The destructor shuts down the same way when nobody else did.
  Fired = 0;
  {
    SchedulerService Scoped(O);
    for (int I = 0; I < N; ++I)
      ASSERT_TRUE(Scoped.submitAsync(gsmJob("s" + std::to_string(I)),
                                     [&](JobResult) { ++Fired; }));
    Scoped.resume();
  }
  EXPECT_EQ(Fired.load(), N);
}

TEST(Service, DoubleShutdownIsNoOp) {
  ServiceOptions O;
  O.NumWorkers = 2;
  SchedulerService Service(O);
  std::future<JobResult> F = Service.submit(gsmJob("once"));
  Service.shutdown();
  Service.shutdown(); // second call: documented no-op
  EXPECT_EQ(F.get().Status, JobStatus::Done);
  EXPECT_EQ(Service.submit(gsmJob("late")).get().Status,
            JobStatus::Rejected);
}

TEST(Service, ConcurrentShutdownIsSafe) {
  // Threads race shutdown(): the workers are joined exactly once, and
  // every caller returns only after the drain (TSan watches this).
  for (int Round = 0; Round < 10; ++Round) {
    ServiceOptions O;
    O.NumWorkers = 4;
    O.StartPaused = true; // the jobs are still queued when the race starts
    SchedulerService Service(O);
    std::atomic<int> Fired{0};
    for (int I = 0; I < 8; ++I)
      ASSERT_TRUE(Service.submitAsync(
          gsmJob("r" + std::to_string(I), 0.3 + 0.05 * I),
          [&Fired](JobResult) { Fired.fetch_add(1); }));
    std::vector<std::future<int>> Racers;
    for (int I = 0; I < 4; ++I)
      Racers.push_back(std::async(std::launch::async, [&] {
        Service.shutdown();
        return Fired.load();
      }));
    for (auto &F : Racers)
      EXPECT_EQ(F.get(), 8);
  }
}

TEST(Service, RacingJobsOnOneProfileKeyCollectItOnce) {
  // Eight jobs share one cold (workload, input, 4-mode table) key and
  // four workers pick them up at once: one collection (one simulator run
  // per mode), every other job waits on it or hits the memo.
  ServiceOptions O;
  O.NumWorkers = 4;
  O.StartPaused = true;
  SchedulerService Service(O);
  CounterDelta SimRuns("cdvs_sim_runs_total");
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 8; ++I) {
    JobRequest R;
    R.Id = "race" + std::to_string(I);
    R.Workload = "adpcm";
    R.Categories.push_back({"rossini", 1.0});
    R.NumLevels = 4;
    R.DeadlineTightness = 0.2 + 0.05 * I;
    Fs.push_back(Service.submit(R));
  }
  Service.resume();
  for (auto &F : Fs) {
    JobResult R = F.get();
    EXPECT_EQ(R.Status, JobStatus::Done) << R.Id << ": " << R.Reason;
  }
  EXPECT_EQ(SimRuns(), 4);
  CacheStats P = Service.profileStats();
  EXPECT_EQ(P.Misses, 1);
  EXPECT_EQ(P.Hits + P.SharedFlights, 7);
}

TEST(Service, GraphNodesSharingAWorkloadCollectItOnce) {
  // Three tasks on the same (workload, input): the graph job profiles
  // that input once and reuses it for the other two nodes.
  taskgraph::TaskGraph G;
  G.Name = "same3";
  for (const char *Name : {"a", "b", "c"}) {
    taskgraph::TaskNode N;
    N.Name = Name;
    N.Workload = "gsm";
    G.Nodes.push_back(N);
  }
  G.Edges = {{0, 1}, {0, 2}};
  G.DeadlineTightness = 0.5;
  JobRequest R;
  R.Id = "graph";
  R.Graph = std::make_shared<const taskgraph::TaskGraph>(G);

  SchedulerService Service;
  CounterDelta SimRuns("cdvs_sim_runs_total");
  JobResult Res = Service.submit(R).get();
  ASSERT_EQ(Res.Status, JobStatus::Done) << Res.Reason;
  EXPECT_EQ(SimRuns(), 3); // one run per XScale mode
  EXPECT_EQ(Service.profileStats().Misses, 1);
  EXPECT_EQ(Service.profileStats().Hits, 2);
}

} // namespace
