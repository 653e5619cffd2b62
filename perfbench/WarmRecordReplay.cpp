//===- perfbench/WarmRecordReplay.cpp - Record/replay on derived plans ----===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `warm-record-replay` workload: the nine programs on pipelines
/// whose plans set-up derived, so no analysis runs while measuring and
/// the time is the runtime (machine, weak locks) and the log engine.
/// Each pass, per program: runOriginalNative (the simulated-cycle
/// baseline), recordStreamed to a .clog file, sequential open + recover
/// + replay, and replayParallel at ReplayJobs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>

using namespace chimera;

namespace perfbench {
namespace {

class WarmRecordReplay final : public Workload {
public:
  explicit WarmRecordReplay(const RunOptions &O) : O(O) {}

  unsigned threadPlan(std::string &Detail) const override {
    Detail = "one pipeline at a time, " + std::to_string(AnalysisJobs) +
             " analysis jobs, replayParallel at " +
             std::to_string(ReplayJobs) + " jobs";
    return std::max(AnalysisJobs, ReplayJobs);
  }

  bool setup(Tally &Oracles) override {
    core::PipelineConfig Config;
    Config.AnalysisJobs = AnalysisJobs;
    Progs = makePrograms(O.Seed, Config);
    Plain.clear();
    Observed.clear();
    Ref.clear();
    TracedPasses = 0;
    for (const Program &Prog : Progs) {
      auto P = createPipeline(Prog.Request);
      if (!P)
        return false;
      deriveStages(*P, nullptr, 0, -1);
      Plain.push_back(std::move(P));
      if (!O.Trace)
        continue;
      // Traced passes run with observability on; their logs must still
      // equal the untraced passes' byte for byte.
      core::PipelineRequest Req = Prog.Request;
      Req.Config.Observability = obs::ObsMode::Full;
      auto Q = createPipeline(Req);
      if (!Q)
        return false;
      deriveStages(*Q, nullptr, 0, -1);
      Observed.push_back(std::move(Q));
    }
    // The warm-up pass doubles as the reference: later passes must
    // reproduce its log bytes and outcomes exactly.
    PassResult Warm;
    runPass(nullptr, Warm, Oracles);
    return Ref.size() == Progs.size();
  }

  void run(Tracer *T, Tally &Oracles, Report &Out) override {
    std::vector<double> SimOverhead;
    runPasses(O, T,
              [&](Tracer *PT, PassResult &R) {
                SimOverhead.push_back(runPass(PT, R, Oracles));
              },
              Out);
    Out.set("runtime.sim_record_overhead", median(SimOverhead));
  }

private:
  struct Reference {
    uint64_t LogHash = 0;
    Outcome Record;
  };

  /// One pass; returns its simulated record overhead: the geomean of
  /// record makespan / native makespan, in simulated cycles.
  double runPass(Tracer *T, PassResult &R, Tally &Oracles) {
    const bool Fill = Ref.size() < Progs.size();
    std::vector<double> Overheads;
    LayerCounts C;
    uint64_t Epochs = 0, Fallbacks = 0;
    double CriticalPath = 0, Imbalance = 0;
    for (size_t I = 0; I != Progs.size(); ++I) {
      const Program &Prog = Progs[I];
      core::ChimeraPipeline &P = T ? *Observed[I] : *Plain[I];
      const std::string Path = O.WorkDir + "/warm-" + Prog.Name + ".clog";

      // -- native: the simulated-cycle baseline. Not an op of its own: a
      // failure here fails the record op that follows.
      Oracles.op();
      rt::ExecutionResult Native;
      {
        uint64_t Op = T ? T->newOp(Prog.Name) : 0;
        ScopedSpan Root(T, "bench.native", Op, -1);
        ScopedSpan S(T, "runtime.native", Op, Root.id());
        Native = P.runOriginalNative(Prog.RecordSeed);
      }
      if (!Native.Ok)
        Oracles.fail(Prog.Name + " native: " + Native.Error);

      // -- record: plan to a verified log file.
      uint64_t Op = T ? T->newOp(Prog.Name) : 0;
      double T0 = now();
      support::Expected<rt::ExecutionResult> Rec =
          support::Error::failure("not run");
      std::vector<uint8_t> Bytes;
      {
        ScopedSpan Root(T, "bench.record", Op, -1);
        {
          ScopedSpan S(T, "runtime.record", Op, Root.id());
          Rec = P.recordStreamed(Path, Prog.RecordSeed);
        }
        if (Rec && !readFile(Path, Bytes))
          Rec = support::Error::failure("cannot read " + Path);
      }
      R.addOp("record", Prog.Name, now() - T0);
      if (!Rec) {
        Oracles.fail(Prog.Name + " record: " + Rec.error().message());
        std::remove(Path.c_str());
        continue;
      }
      const Outcome RecOut = outcomeOf(*Rec);
      const uint64_t LogHash = hashBytes(Bytes);
      R.LogBytes += Bytes.size();
      if (Fill) {
        Ref.push_back({LogHash, RecOut});
      } else {
        Oracles.check(LogHash == Ref[I].LogHash,
                      Prog.Name + ": log bytes differ from the first pass");
        Oracles.check(RecOut == Ref[I].Record,
                      Prog.Name + ": record outcome differs from the first "
                                  "pass");
      }
      if (Native.Ok)
        Overheads.push_back(
            static_cast<double>(Rec->Stats.MakespanCycles) /
            static_cast<double>(Native.Stats.MakespanCycles));

      // -- sequential replay: log file to a verified result.
      Oracles.op();
      Op = T ? T->newOp(Prog.Name) : 0;
      T0 = now();
      bool SeqOk;
      {
        ScopedSpan Root(T, "bench.replay", Op, -1);
        SeqOk = replayLog(P, Path, Prog.Name, T, Op, Root.id(), &RecOut, C,
                          Oracles);
      }
      R.addOp("replay", Prog.Name, now() - T0);

      // -- epoch-parallel replay of the same file.
      Oracles.op();
      Op = T ? T->newOp(Prog.Name) : 0;
      T0 = now();
      {
        ScopedSpan Root(T, "bench.replay_parallel", Op, -1);
        std::optional<replay::LogReader> Reader =
            openLog(P, Path, Prog.Name, T, Op, Root.id(), Oracles);
        if (Reader) {
          replay::ParallelReplayer::Result Par;
          {
            ScopedSpan S(T, "replay.parallel", Op, Root.id());
            Par = P.replayParallel(*Reader, ReplayJobs);
          }
          if (!Par.LogComplete || !Par.Exec.Ok)
            Oracles.fail(Prog.Name + " parallel replay: " +
                         (Par.LogComplete ? Par.Exec.Error : Par.LogError));
          else
            Oracles.check(SeqOk && outcomeOf(Par.Exec) == RecOut,
                          Prog.Name + ": parallel replay differs from "
                                      "sequential");
          Epochs += Par.Epochs;
          Fallbacks += Par.FellBackSequential;
          uint64_t Slowest = 0, Total = 0;
          for (uint64_t Us : Par.EpochWallUs) {
            Slowest = std::max(Slowest, Us);
            Total += Us;
          }
          CriticalPath += Slowest / 1e6;
          // Slowest epoch over the mean epoch, minus 1.
          if (Total)
            Imbalance += static_cast<double>(Slowest) *
                             Par.EpochWallUs.size() / Total -
                         1;
        }
      }
      R.addOp("replay_parallel", Prog.Name, now() - T0);
      std::remove(Path.c_str());

      if (T) {
        C.Pairs += P.raceReport().Pairs.size();
        C.addRecord(Rec->Stats);
      }
    }

    if (T) {
      // Registry counters accumulate over a pipeline's life and every
      // traced pass does the same work: divide by the traced passes.
      ++TracedPasses;
      for (auto &Q : Observed)
        if (auto M = Q->metrics()) {
          C.Polls += M->value("runtime.record.weak.poll");
          C.RawBytes += M->value("record.compress.bytes_raw");
        }
      C.Polls /= TracedPasses;
      C.RawBytes /= TracedPasses;
      C.LogBytes = R.LogBytes;
      C.report(R.Counts);
      R.Counts.set("replay.parallel.critical_path_s", CriticalPath);
      R.Counts.set("replay.parallel.imbalance", Imbalance / Progs.size());
      R.Counts.count("replay.parallel.epochs", static_cast<double>(Epochs));
      R.Counts.count("replay.parallel.fallbacks",
                     static_cast<double>(Fallbacks));
    }
    return geomean(Overheads);
  }

  RunOptions O;
  std::vector<Program> Progs;
  /// Pipelines with derived plans: observability off, and (traced runs
  /// only) on.
  std::vector<std::unique_ptr<core::ChimeraPipeline>> Plain, Observed;
  std::vector<Reference> Ref;
  uint64_t TracedPasses = 0;
};

} // namespace

std::unique_ptr<Workload> makeWarmRecordReplay(const RunOptions &O) {
  return std::make_unique<WarmRecordReplay>(O);
}

} // namespace perfbench
