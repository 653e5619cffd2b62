//===- perfbench/Main.cpp - Benchmark entry point -------------------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--work-dir DIR]
///
/// Sets the workload up SetupRepeats times (setup_s is the median), runs
/// it for S seconds of whole passes, checks every output, and prints one
/// JSON object as the last line of stdout: the end-to-end metrics with
/// --trace 0, the per-layer metrics (from a traced run) with --trace 1.
/// Exits 1 when any oracle failed, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <cerrno>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

constexpr unsigned SetupRepeats = 3;

struct MetricDef {
  std::string Name;
  std::string Unit;
};

std::vector<MetricDef> endToEndMetrics() {
  return {{"record_s", "s"},    {"replay_s", "s"},     {"ops_per_s", "1/s"},
          {"op_p50_s", "s"},    {"op_p90_s", "s"},     {"log_bytes", "bytes"},
          {"peak_rss_mb", "MB"}, {"setup_s", "s"}};
}

std::vector<MetricDef> perLayerMetrics() {
  std::vector<MetricDef> M;
  std::vector<std::string> Programs;
  for (auto K : chimera::workloads::allWorkloads())
    Programs.push_back(chimera::workloads::workloadInfo(K).Name);
  auto Timed = [&](const std::string &Name, bool PerProgram) {
    M.push_back({Name, "s"});
    if (PerProgram)
      for (const std::string &P : Programs)
        M.push_back({Name + "." + P, "s"});
  };
  Timed("lang.create_s", false);
  Timed("analysis.mhp_s", false);
  Timed("race.relay_s", false);
  M.push_back({"race.pairs", "count"});
  M.push_back({"race.summary_cache_hit_ratio", "ratio"});
  Timed("profile.profile_s", true);
  Timed("instrument.plan_s", false);
  Timed("instrument.instrument_s", false);
  Timed("instrument.audit_s", false);
  Timed("runtime.native_s", true);
  Timed("runtime.record_s", true);
  Timed("runtime.replay_s", true);
  M.push_back({"runtime.instructions", "count"});
  for (const char *G : {"instr", "bblock", "loop", "func"})
    M.push_back({std::string("runtime.weak_acquires.") + G, "count"});
  M.push_back({"runtime.revocations", "count"});
  M.push_back({"runtime.weak.poll", "count"});
  M.push_back({"runtime.weak.poll_per_inst", "ratio"});
  M.push_back({"runtime.sim_record_overhead", "ratio"});
  Timed("replay.open_s", false);
  Timed("replay.recover_s", false);
  Timed("replay.parallel_s", false);
  M.push_back({"replay.parallel.critical_path_s", "s"});
  M.push_back({"replay.parallel.imbalance", "ratio"});
  M.push_back({"replay.parallel.epochs", "count"});
  M.push_back({"replay.parallel.fallbacks", "count"});
  M.push_back({"replay.log_records", "count"});
  M.push_back({"replay.checkpoints", "count"});
  M.push_back({"replay.compress_ratio", "ratio"});
  M.push_back({"replay.log_bytes", "bytes"});
  M.push_back({"service.load_s", "s"});
  for (const char *S : {"queue", "build", "plan", "record", "replay",
                        "finish"}) {
    M.push_back({std::string("service.") + S + "_p50_s", "s"});
    M.push_back({std::string("service.") + S + "_p90_s", "s"});
  }
  M.push_back({"service.artifact_hit_ratio", "ratio"});
  for (const char *L : {"bench", "lang", "analysis", "race", "profile",
                        "instrument", "runtime", "replay", "service"})
    M.push_back({std::string("self.") + L + "_share", "ratio"});
  M.push_back({"trace.root_s", "s"});
  M.push_back({"trace.overhead_share", "ratio"});
  M.push_back({"trace.passes", "count"});
  M.push_back({"trace.op_samples", "count"});
  M.push_back({"setup.first_s", "s"});
  return M;
}

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold-record-replay|warm-record-replay|batch-sessions "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

void printValue(const std::string &Name, double V, const std::string &Unit,
                bool Integer, bool First) {
  std::printf("%s\"%s\": {\"value\": ", First ? "" : ", ", Name.c_str());
  if (Integer)
    std::printf("%.0f", V);
  else
    std::printf("%.17g", V);
  std::printf(", \"unit\": \"%s\"}", Unit.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name, WorkDir = ".bench_build/work";
  uint64_t Seed = 0, Seconds = 0, Trace = 2;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (!V)
      return usage(("missing value for " + A).c_str());
    ++I;
    if (A == "--workload")
      Name = V;
    else if (A == "--seed")
      HaveSeed = parseUnsigned(V, Seed);
    else if (A == "--seconds")
      HaveSeconds = parseUnsigned(V, Seconds) && Seconds > 0;
    else if (A == "--trace") {
      if (!parseUnsigned(V, Trace) || Trace > 1)
        return usage("--trace takes 0 or 1");
    } else if (A == "--work-dir")
      WorkDir = V;
    else
      return usage(("unknown argument " + A).c_str());
  }
  if (!HaveSeed || !HaveSeconds || Trace > 1)
    return usage("--seed, --seconds and --trace are required");

  RunOptions O;
  O.Workload = Name;
  O.Seed = Seed;
  O.Seconds = static_cast<double>(Seconds);
  O.Trace = Trace == 1;
  O.WorkDir = WorkDir;
  std::unique_ptr<Workload> W;
  if (Name == "cold-record-replay")
    W = makeColdRecordReplay(O);
  else if (Name == "warm-record-replay")
    W = makeWarmRecordReplay(O);
  else if (Name == "batch-sessions")
    W = makeBatchSessions(O);
  else
    return usage(("unknown workload '" + Name + "'").c_str());

  std::error_code EC;
  std::filesystem::create_directories(WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 WorkDir.c_str(), EC.message().c_str());
    return 1;
  }

  std::string Detail;
  unsigned Plan = W->threadPlan(Detail);
  unsigned Cpus = hostCpus();
  std::printf("perfbench: workload %s, seed %llu, %llu s, trace %llu\n",
              Name.c_str(), static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(Seconds),
              static_cast<unsigned long long>(Trace));
  std::printf("perfbench: nproc %u; thread plan %u (%s)\n", Cpus, Plan,
              Detail.c_str());
  if (Plan > Cpus) {
    std::fprintf(stderr,
                 "perfbench: thread plan %u exceeds nproc %u; refusing to "
                 "run\n",
                 Plan, Cpus);
    return 1;
  }
  std::fflush(stdout);

  Tally Oracles;
  Report Out;
  std::vector<double> SetupTimes;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    double T0 = now();
    if (!W->setup(Oracles)) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 1;
    }
    SetupTimes.push_back(now() - T0);
  }
  Out.set("setup_s", median(SetupTimes));
  Out.set("setup.first_s", SetupTimes.front());

  Tracer Spans;
  W->run(O.Trace ? &Spans : nullptr, Oracles, Out);

  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  Out.set("peak_rss_mb", static_cast<double>(RU.ru_maxrss) / 1024.0);

  if (O.Trace) {
    std::string Path = WorkDir + "/spans-" + Name + "-" +
                       std::to_string(Seed) + ".jsonl";
    if (!Spans.write(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    else
      std::printf("perfbench: %zu spans written to %s\n", Spans.size(),
                  Path.c_str());
  }

  std::vector<MetricDef> Defs =
      O.Trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricDef &D : Defs)
    if (!O.Trace && !Out.find(D.Name)) {
      std::fprintf(stderr, "perfbench: internal error: %s not measured\n",
                   D.Name.c_str());
      return 1;
    }
  bool Correct = Oracles.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Oracles.attempted()),
              static_cast<unsigned long long>(Oracles.failed()));
  bool First = true;
  for (const MetricDef &D : Defs) {
    // A layer the workload does not exercise reads 0.
    const Metric *M = Out.find(D.Name);
    printValue(D.Name, M ? M->Value : 0, D.Unit, M && M->Integer, First);
    First = false;
  }
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
