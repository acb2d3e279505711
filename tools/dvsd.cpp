//===- tools/dvsd.cpp - Batch DVS-scheduling service CLI -------------------===//
//
// Front end of the scheduling service (service/Service.h): reads one
// JSON job request per line from a file or stdin, runs the batch through
// a SchedulerService, and emits one JSON result per line plus a final
// stats record. Request fields (all but "workload" optional):
//
//   {"id": "j1", "workload": "gsm", "input": "speech1",
//    "categories": [{"input": "speech2", "weight": 0.5}, ...],
//    "deadline": 0.0012,        // absolute seconds; wins over tightness
//    "tightness": 0.5,          // 0 = stringent ... 1 = lax
//    "filter": 0.02, "initial_mode": -1, "levels": 0,
//    "capacitance": 1e-5}
//
// Responses carry status, cache provenance (hit / single-flight), the
// instance fingerprint, per-stage latency, and predicted energy; with
// --schedules=DIR each solved schedule is also written to
// DIR/<fingerprint>.cdvs in the ScheduleIO text format. Lines starting
// with '#' and blank lines are skipped. --repeat=N replays the whole
// batch N times (a quick cache demonstration: pass 2+ and watch
// cache_hit flip to true at microsecond latencies).
//
// --verify={off,warn,strict} runs the src/verify static passes over
// every fresh schedule: warn records verify_errors/verify_detail on the
// result line, strict additionally fails jobs whose schedule draws any
// error-severity diagnostic.
//
// --taskgraph switches to the task-graph pipeline: the batch is the
// canned graph instances (taskgraph/Generator.h) instead of request
// lines — narrow it with repeated --graph=NAME options, override
// per-task actual/profiled time factors with repeated
// --actual=TASK=FACTOR options (both repeatable options accept the
// `--opt value` form too), and disable online slack reclamation with
// --static-plan. Result lines are the graph result vocabulary
// (replans, static/actual energy, makespan); with --schedules=DIR each
// plan is written to DIR/<fingerprint>.taskplan in the
// `cdvs-taskplan v1` text format after a parse round trip.
//
// Observability: --metrics-out=FILE writes the process metrics registry
// in Prometheus text exposition format after the batch ('-' = stderr);
// --metrics-json=FILE writes the same registry as JSON; --trace-out=FILE
// enables span tracing for the run and writes Chrome trace_event JSON
// loadable in Perfetto / about:tracing.
//
//===----------------------------------------------------------------------===//

#include "dvs/ScheduleIO.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/JobIO.h"
#include "service/Service.h"
#include "support/ArgParse.h"
#include "taskgraph/Generator.h"
#include "taskgraph/PlanIO.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace cdvs;

namespace {

/// Set once a stdout write fails — the consumer closed the pipe (e.g.
/// `dvsd | head`). Result lines stop, but the batch still completes and
/// the final stats record falls back to stderr.
bool StdoutBroken = false;

void emitLine(const std::string &Line) {
  if (StdoutBroken)
    return;
  if (std::printf("%s\n", Line.c_str()) < 0 ||
      std::fflush(stdout) == EOF)
    StdoutBroken = true;
}

/// Writes \p Text to \p Path ('-' = stderr). \returns false (after a
/// diagnostic) when the file cannot be opened.
bool writeTextFile(const std::string &Path, const std::string &Text,
                   const char *What) {
  std::FILE *F = Path == "-" ? stderr : std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "dvsd: cannot write %s file '%s'\n", What,
                 Path.c_str());
    return false;
  }
  std::fwrite(Text.data(), 1, Text.size(), F);
  if (F != stderr)
    std::fclose(F);
  return true;
}

/// Reads one of the service's process-wide job counters; the registry is
/// their only record.
long jobCounter(const char *Name) {
  return static_cast<long>(obs::metrics().counter(Name, "").value());
}

} // namespace

int main(int argc, char **argv) {
  ArgParser P("dvsd",
              "batch DVS-scheduling service: JSON-lines requests in, "
              "JSON-lines schedules out");
  std::string &RequestsPath = P.addString(
      "requests", "-", "request file; '-' reads stdin");
  int &Threads =
      P.addInt("threads", 0, "pipeline workers; 0 = one per core");
  int &QueueCap = P.addInt("queue", 128, "admission queue capacity");
  int &CacheCap = P.addInt("cache", 512, "result cache entries");
  int &Repeat =
      P.addInt("repeat", 1, "times to replay the whole batch");
  std::string &SchedulesDir = P.addString(
      "schedules", "", "directory for <fingerprint>.cdvs schedule files");
  bool &Quiet =
      P.addFlag("quiet", "suppress per-job lines; print only stats");
  std::string &MetricsOut = P.addString(
      "metrics-out", "",
      "write Prometheus text metrics here after the batch ('-' = "
      "stderr)");
  std::string &MetricsJson = P.addString(
      "metrics-json", "", "write the metrics registry as JSON here");
  std::string &TraceOut = P.addString(
      "trace-out", "",
      "enable span tracing; write Chrome trace_event JSON here (load "
      "in Perfetto)");
  std::string &VerifyArg = P.addString(
      "verify", "off",
      "post-solve static verification: off, warn (record findings), or "
      "strict (fail jobs with errors)");
  std::string &PresolveArg = P.addString(
      "presolve", "on",
      "certified MILP presolve: on (analyze + reduce, schedules stay "
      "byte-identical) or off (solve the full instance)");
  bool &TaskGraphMode = P.addFlag(
      "taskgraph",
      "run the canned task-graph batch instead of request lines");
  std::vector<std::string> &GraphNames = P.addStringList(
      "graph", "with --taskgraph: run only this canned graph (repeat "
               "for several)");
  std::vector<std::string> &ActualOverrides = P.addStringList(
      "actual", "with --taskgraph: override a task's actual/profiled "
                "time factor as TASK=FACTOR (repeatable)");
  bool &StaticPlanOnly = P.addFlag(
      "static-plan",
      "with --taskgraph: disable online slack reclamation (no re-plans)");
  if (!P.parseOrExit(argc, argv))
    return 0;
  VerifyMode Verify = VerifyMode::Off;
  if (!parseVerifyMode(VerifyArg, Verify)) {
    std::fprintf(stderr,
                 "dvsd: --verify must be off, warn, or strict (got "
                 "'%s')\n",
                 VerifyArg.c_str());
    return 1;
  }
  if (PresolveArg != "on" && PresolveArg != "off") {
    std::fprintf(stderr,
                 "dvsd: --presolve must be on or off (got '%s')\n",
                 PresolveArg.c_str());
    return 1;
  }
  if (!P.positional().empty())
    RequestsPath = P.positional().front();

  // A consumer that stops reading (head, a closed socket) must not kill
  // the batch mid-flight; writes fail with EPIPE instead and emitLine
  // degrades gracefully.
  std::signal(SIGPIPE, SIG_IGN);

  if (!TraceOut.empty())
    obs::trace().setEnabled(true);

  std::vector<JobRequest> Batch;
  int ParseErrors = 0;
  if (TaskGraphMode) {
    // The batch is canned graph instances, not request lines.
    std::vector<taskgraph::TaskGraph> Graphs;
    if (GraphNames.empty()) {
      Graphs = taskgraph::cannedTaskGraphs();
    } else {
      for (const std::string &Name : GraphNames) {
        ErrorOr<taskgraph::TaskGraph> G = taskgraph::cannedTaskGraph(Name);
        if (!G) {
          std::fprintf(stderr, "dvsd: %s\n", G.message().c_str());
          return 1;
        }
        Graphs.push_back(std::move(*G));
      }
    }
    for (const std::string &Ov : ActualOverrides) {
      size_t Eq = Ov.find('=');
      char *End = nullptr;
      double Factor =
          Eq == std::string::npos
              ? 0.0
              : std::strtod(Ov.c_str() + Eq + 1, &End);
      if (Eq == std::string::npos || Eq == 0 || End == nullptr ||
          *End != '\0' || !(Factor > 0.0)) {
        std::fprintf(stderr,
                     "dvsd: --actual wants TASK=FACTOR with a positive "
                     "factor (got '%s')\n",
                     Ov.c_str());
        return 1;
      }
      std::string Task = Ov.substr(0, Eq);
      bool Matched = false;
      for (taskgraph::TaskGraph &G : Graphs)
        for (taskgraph::TaskNode &N : G.Nodes)
          if (N.Name == Task) {
            N.ActualFactor = Factor;
            Matched = true;
          }
      if (!Matched) {
        std::fprintf(stderr,
                     "dvsd: --actual=%s matches no task in the selected "
                     "graphs\n",
                     Ov.c_str());
        return 1;
      }
    }
    for (taskgraph::TaskGraph &G : Graphs) {
      JobRequest R;
      R.Id = G.Name;
      R.GraphReplan = !StaticPlanOnly;
      R.Graph =
          std::make_shared<const taskgraph::TaskGraph>(std::move(G));
      Batch.push_back(std::move(R));
    }
  } else {
  std::FILE *In = stdin;
  if (RequestsPath != "-") {
    In = std::fopen(RequestsPath.c_str(), "r");
    if (!In) {
      std::fprintf(stderr, "dvsd: cannot open '%s'\n",
                   RequestsPath.c_str());
      return 1;
    }
  }

  // Parse the whole request batch up front; malformed lines become
  // immediate per-line error records, not fatal errors.
  std::string Line;
  int LineNo = 0;
  char Buf[16384];
  while (std::fgets(Buf, sizeof(Buf), In)) {
    ++LineNo;
    Line = Buf;
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    ErrorOr<JsonValue> V = parseJson(Line);
    ErrorOr<JobRequest> R =
        V ? jobRequestFromJson(*V) : ErrorOr<JobRequest>(Err(V.message()));
    if (!R) {
      emitLine("{\"line\":" + std::to_string(LineNo) +
               ",\"status\":\"parse_error\",\"reason\":\"" +
               jsonEscape(R.message()) + "\"}");
      ++ParseErrors;
      continue;
    }
    if (R->Id.empty())
      R->Id = "line" + std::to_string(LineNo);
    Batch.push_back(std::move(*R));
  }
  if (In != stdin)
    std::fclose(In);
  }

  ServiceOptions O;
  O.NumWorkers = Threads;
  O.QueueCapacity = static_cast<size_t>(QueueCap < 1 ? 1 : QueueCap);
  O.CacheCapacity = static_cast<size_t>(CacheCap < 1 ? 1 : CacheCap);
  O.Verify = Verify;
  O.Presolve = PresolveArg == "on";
  SchedulerService Service(O);

  long Done = 0, NotDone = ParseErrors;
  for (int Round = 0; Round < (Repeat < 1 ? 1 : Repeat); ++Round) {
    std::vector<JobResult> Results = Service.runBatch(Batch);
    for (const JobResult &R : Results) {
      std::string ScheduleFile;
      if (!SchedulesDir.empty() && R.Status == JobStatus::Done &&
          R.Replans >= 0) {
        // Graph plans round-trip through the taskplan parser (so a
        // malformed emission fails loudly here) and land verbatim.
        ScheduleFile = SchedulesDir + "/" + R.Fingerprint + ".taskplan";
        ErrorOr<taskgraph::OnlineResult> Plan =
            taskgraph::readTaskPlan(R.ScheduleText);
        bool Wrote = false;
        if (Plan) {
          if (std::FILE *F = std::fopen(ScheduleFile.c_str(), "w")) {
            Wrote = std::fwrite(R.ScheduleText.data(), 1,
                                R.ScheduleText.size(), F) ==
                    R.ScheduleText.size();
            std::fclose(F);
          }
          if (!Wrote)
            std::fprintf(stderr, "dvsd: cannot write '%s'\n",
                         ScheduleFile.c_str());
        } else {
          std::fprintf(stderr, "dvsd: %s\n", Plan.message().c_str());
        }
        if (!Wrote)
          ScheduleFile.clear();
      } else if (!SchedulesDir.empty() && R.Status == JobStatus::Done) {
        ScheduleFile = SchedulesDir + "/" + R.Fingerprint + ".cdvs";
        ErrorOr<ModeAssignment> A = readSchedule(R.ScheduleText);
        ErrorOr<bool> Wrote =
            A ? writeScheduleFile(ScheduleFile, *A)
              : ErrorOr<bool>(Err(A.message()));
        if (!Wrote) {
          std::fprintf(stderr, "dvsd: %s\n", Wrote.message().c_str());
          ScheduleFile.clear();
        }
      }
      (R.Status == JobStatus::Done ? Done : NotDone) += 1;
      if (!Quiet)
        emitLine(jobResultToJson(R, /*IncludeSchedule=*/false,
                                 ScheduleFile));
    }
  }

  long Rejected = jobCounter("cdvs_jobs_rejected_total");
  long VerifyFailures = jobCounter("cdvs_verify_failures_total");
  double PeakQueueDepth =
      obs::metrics().gauge("cdvs_admission_queue_depth_peak", "").value();
  CacheStats C = Service.cacheStats();
  CacheStats PC = Service.profileStats();

  char StatsBuf[1024];
  std::snprintf(
      StatsBuf, sizeof(StatsBuf),
      "{\"type\":\"stats\",\"submitted\":%ld,\"completed\":%ld,"
      "\"rejected\":%ld,\"infeasible\":%ld,\"failed\":%ld,"
      "\"parse_errors\":%d,\"peak_queue_depth\":%.0f,"
      "\"verify_failures\":%ld,"
      "\"cache\":{\"hits\":%ld,\"misses\":%ld,"
      "\"shared_flights\":%ld,\"evictions\":%ld,\"entries\":%zu},"
      "\"profile_cache\":{\"hits\":%ld,\"misses\":%ld,"
      "\"shared_flights\":%ld}}",
      jobCounter("cdvs_jobs_submitted_total"),
      jobCounter("cdvs_jobs_completed_total"), Rejected,
      jobCounter("cdvs_jobs_infeasible_total"),
      jobCounter("cdvs_jobs_failed_total"), ParseErrors, PeakQueueDepth,
      VerifyFailures, C.Hits, C.Misses, C.SharedFlights, C.Evictions,
      C.Entries, PC.Hits, PC.Misses, PC.SharedFlights);
  // The aggregate record is the batch's receipt; when the consumer hung
  // up early it still lands on stderr instead of vanishing.
  emitLine(StatsBuf);
  if (StdoutBroken)
    std::fprintf(stderr, "%s\n", StatsBuf);

  if (!MetricsOut.empty())
    writeTextFile(MetricsOut, obs::metrics().renderPrometheus(),
                  "metrics");
  if (!MetricsJson.empty())
    writeTextFile(MetricsJson, obs::metrics().renderJson(),
                  "metrics JSON");
  if (!TraceOut.empty())
    writeTextFile(TraceOut, obs::trace().renderChromeTrace(), "trace");

  // Any rejected job means the batch was not fully served — surface
  // that in the exit code so scripted callers notice backpressure. A
  // verification failure is never tolerated: an audited-bad schedule
  // must fail the batch even when other jobs completed.
  if (Rejected > 0 || VerifyFailures > 0)
    return 1;
  return NotDone == 0 ? 0 : (Done > 0 ? 0 : 1);
}
