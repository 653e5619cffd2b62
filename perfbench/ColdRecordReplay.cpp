//===- perfbench/ColdRecordReplay.cpp - CLI-path record then replay -------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cold-record-replay` workload: what `chimera record` followed by
/// `chimera replay` costs for each Table-1 program. Every op starts from
/// source with the process SummaryCache cleared and no artifact cache,
/// as a fresh CLI process does:
///
///  - record: create, derive the static stages, recordStreamed to a
///    .clog file, read the file back;
///  - replay: a second fresh pipeline re-derives the plan (as the CLI
///    does today), then LogReader::open, recover, replay at one job.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "race/SummaryCache.h"

#include <cstdio>

using namespace chimera;

namespace perfbench {
namespace {

class ColdRecordReplay final : public Workload {
public:
  explicit ColdRecordReplay(const RunOptions &O) : O(O) {}

  unsigned threadPlan(std::string &Detail) const override {
    Detail = "one pipeline at a time, " + std::to_string(AnalysisJobs) +
             " analysis jobs";
    return AnalysisJobs;
  }

  bool setup(Tally &Oracles) override {
    core::PipelineConfig Config;
    Config.AnalysisJobs = AnalysisJobs;
    Progs = makePrograms(O.Seed, Config);
    Ref.clear();
    // The warm-up pass doubles as the reference: later passes must
    // reproduce its log bytes and outcomes exactly.
    PassResult Warm;
    runPass(nullptr, Warm, Oracles);
    return Ref.size() == Progs.size();
  }

  void run(Tracer *T, Tally &Oracles, Report &Out) override {
    runPasses(O, T,
              [&](Tracer *PT, PassResult &R) { runPass(PT, R, Oracles); },
              Out);
  }

private:
  struct Reference {
    uint64_t LogHash = 0;
    Outcome Record;
  };

  core::PipelineRequest requestFor(const Program &P, bool Traced) const {
    core::PipelineRequest Req = P.Request;
    if (Traced)
      Req.Config.Observability = obs::ObsMode::Full;
    return Req;
  }

  void runPass(Tracer *T, PassResult &R, Tally &Oracles) {
    const bool Fill = Ref.size() < Progs.size();
    LayerCounts C;
    for (size_t I = 0; I != Progs.size(); ++I) {
      const Program &Prog = Progs[I];
      const std::string Path = O.WorkDir + "/cold-" + Prog.Name + ".clog";

      // -- record: source to a verified log file.
      Oracles.op();
      race::SummaryCache::global().clear();
      uint64_t Op = T ? T->newOp(Prog.Name) : 0;
      double T0 = now();
      support::Expected<rt::ExecutionResult> Rec =
          support::Error::failure("create failed");
      std::vector<uint8_t> Bytes;
      {
        ScopedSpan Root(T, "bench.record", Op, -1);
        std::unique_ptr<core::ChimeraPipeline> P;
        {
          ScopedSpan S(T, "lang.create", Op, Root.id());
          P = createPipeline(requestFor(Prog, T != nullptr));
        }
        if (P) {
          deriveStages(*P, T, Op, Root.id());
          {
            ScopedSpan S(T, "runtime.record", Op, Root.id());
            Rec = P->recordStreamed(Path, Prog.RecordSeed);
          }
          if (Rec && !readFile(Path, Bytes))
            Rec = support::Error::failure("cannot read " + Path);
          if (Rec && T) {
            C.Pairs += P->raceReport().Pairs.size();
            C.addRecord(Rec->Stats);
            if (auto M = P->metrics()) {
              C.Polls += M->value("runtime.record.weak.poll");
              C.RawBytes += M->value("record.compress.bytes_raw");
            }
          }
        }
      }
      R.addOp("record", Prog.Name, now() - T0);
      Outcome RecOut;
      if (!Rec) {
        Oracles.fail(Prog.Name + " record: " + Rec.error().message());
      } else {
        RecOut = outcomeOf(*Rec);
        const uint64_t LogHash = hashBytes(Bytes);
        R.LogBytes += Bytes.size();
        if (Fill) {
          Ref.push_back({LogHash, RecOut});
        } else {
          Oracles.check(LogHash == Ref[I].LogHash,
                        Prog.Name + ": log bytes differ from the first pass");
          Oracles.check(RecOut == Ref[I].Record,
                        Prog.Name + ": record outcome differs from the "
                                    "first pass");
        }
      }

      // -- replay: log file to a verified result, re-deriving the plan.
      Oracles.op();
      race::SummaryCache::global().clear();
      Op = T ? T->newOp(Prog.Name) : 0;
      T0 = now();
      {
        ScopedSpan Root(T, "bench.replay", Op, -1);
        std::unique_ptr<core::ChimeraPipeline> P;
        {
          ScopedSpan S(T, "lang.create", Op, Root.id());
          P = createPipeline(requestFor(Prog, T != nullptr));
        }
        if (!P) {
          Oracles.fail(Prog.Name + " replay: create failed");
        } else {
          deriveStages(*P, T, Op, Root.id());
          replayLog(*P, Path, Prog.Name, T, Op, Root.id(),
                    Rec ? &RecOut : nullptr, C, Oracles);
        }
      }
      R.addOp("replay", Prog.Name, now() - T0);
      std::remove(Path.c_str());
    }

    if (T) {
      C.LogBytes = R.LogBytes;
      C.report(R.Counts);
    }
  }

  RunOptions O;
  std::vector<Program> Progs;
  std::vector<Reference> Ref;
};

} // namespace

std::unique_ptr<Workload> makeColdRecordReplay(const RunOptions &O) {
  return std::make_unique<ColdRecordReplay>(O);
}

} // namespace perfbench
