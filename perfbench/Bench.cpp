//===- perfbench/Bench.cpp - Shared benchmark infrastructure --------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

using namespace chimera;

namespace perfbench {

namespace {
const Clock::time_point Epoch = Clock::now();

std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}
} // namespace

double now() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

// -- Tracer ------------------------------------------------------------------

int64_t Tracer::begin(const std::string &Name, uint64_t Op, int64_t Parent) {
  double T = now();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, Op, Parent, T, T});
  return static_cast<int64_t>(Spans.size()) - 1;
}

void Tracer::end(int64_t Id) {
  double T = now();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Id)].End = T;
}

int64_t Tracer::add(const std::string &Name, uint64_t Op, int64_t Parent,
                    double Start, double End) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, Op, Parent, Start, End});
  return static_cast<int64_t>(Spans.size()) - 1;
}

uint64_t Tracer::newOp(const std::string &Tag) {
  std::lock_guard<std::mutex> Lock(Mu);
  OpTags[NextOp] = Tag;
  return NextOp++;
}

std::string Tracer::opTag(uint64_t Op) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = OpTags.find(Op);
  return It == OpTags.end() ? std::string() : It->second;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, "
                 "\"parent\": %lld, \"start\": %.9f, \"end\": %.9f}\n",
                 I, S.Name.c_str(), static_cast<unsigned long long>(S.Op),
                 static_cast<long long>(S.Parent), S.Start, S.End);
  }
  return std::fclose(F) == 0;
}

std::map<std::string, double> selfTimeByLayer(const std::vector<Span> &S) {
  std::vector<std::vector<size_t>> Children(S.size());
  for (size_t I = 0; I != S.size(); ++I)
    if (S[I].Parent >= 0)
      Children[static_cast<size_t>(S[I].Parent)].push_back(I);

  std::map<std::string, double> Self;
  for (size_t I = 0; I != S.size(); ++I) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> Iv;
    for (size_t C : Children[I])
      Iv.push_back({std::max(S[C].Start, S[I].Start),
                    std::min(S[C].End, S[I].End)});
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0, Lo = 0, Hi = -1;
    for (auto [A, B] : Iv) {
      if (B <= A)
        continue;
      if (A > Hi) {
        Covered += Hi > Lo ? Hi - Lo : 0;
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    Covered += Hi > Lo ? Hi - Lo : 0;
    Self[layerOf(S[I].Name)] += (S[I].End - S[I].Start) - Covered;
  }
  return Self;
}

// -- Tally -------------------------------------------------------------------

bool Tally::check(bool Ok, const std::string &What) {
  if (!Ok)
    fail(What);
  return Ok;
}

void Tally::fail(const std::string &What) {
  if (!CurrentFailed)
    ++Failed;
  CurrentFailed = true;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
}

// -- Inputs ------------------------------------------------------------------

uint64_t mixSeed(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

std::vector<Program> makePrograms(uint64_t Seed,
                                  const core::PipelineConfig &Config) {
  std::vector<Program> Out;
  uint64_t S = Seed;
  for (workloads::WorkloadKind K : workloads::allWorkloads()) {
    S = mixSeed(S);
    Out.push_back({K, workloads::workloadInfo(K).Name,
                   workloads::pipelineRequest(K, ProgramWorkers, Config),
                   S % 1'000'000'007ull});
  }
  return Out;
}

std::unique_ptr<core::ChimeraPipeline>
createPipeline(const core::PipelineRequest &Req) {
  auto P = core::ChimeraPipeline::create(Req);
  if (!P) {
    std::fprintf(stderr, "perfbench: create %s: %s\n", Req.Tag.c_str(),
                 P.error().message().c_str());
    return nullptr;
  }
  return P.take();
}

void deriveStages(const core::ChimeraPipeline &P, Tracer *T, uint64_t Op,
                  int64_t Parent) {
  {
    ScopedSpan S(T, "analysis.mhp", Op, Parent);
    P.mhp();
  }
  {
    ScopedSpan S(T, "race.relay", Op, Parent);
    P.raceReport();
  }
  // The planner consults the profile only under function locks.
  if (P.config().Planner.UseFunctionLocks) {
    ScopedSpan S(T, "profile.profile", Op, Parent);
    P.profileData();
  }
  {
    ScopedSpan S(T, "instrument.plan", Op, Parent);
    P.plan();
  }
  {
    ScopedSpan S(T, "instrument.instrument", Op, Parent);
    P.instrumentedModule();
  }
  {
    ScopedSpan S(T, "instrument.audit", Op, Parent);
    P.planAudit();
    P.lockOrderAudit();
  }
}

bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return !In.bad();
}

uint64_t hashBytes(const std::vector<uint8_t> &Bytes) {
  Hasher H;
  H.addBytes(Bytes.data(), Bytes.size());
  return H.digest();
}

Outcome outcomeOf(const rt::ExecutionResult &R) {
  return {R.StateHash, R.Output};
}

std::optional<replay::LogReader>
openLog(const core::ChimeraPipeline &P, const std::string &Path,
        const std::string &Name, Tracer *T, uint64_t Op, int64_t Parent,
        Tally &Oracles) {
  ScopedSpan S(T, "replay.open", Op, Parent);
  std::vector<uint8_t> Bytes;
  if (!readFile(Path, Bytes)) {
    Oracles.fail(Name + " replay open: cannot read " + Path);
    return std::nullopt;
  }
  replay::LogReader::Options RO;
  RO.ExpectedFingerprint = P.workloadFingerprint();
  RO.CheckFingerprint = true;
  auto Reader = replay::LogReader::open(std::move(Bytes), RO);
  if (!Reader) {
    Oracles.fail(Name + " replay open: " + Reader.error().message());
    return std::nullopt;
  }
  return Reader.take();
}

bool replayLog(core::ChimeraPipeline &P, const std::string &Path,
               const std::string &Name, Tracer *T, uint64_t Op,
               int64_t Parent, const Outcome *Expect, LayerCounts &C,
               Tally &Oracles) {
  std::optional<replay::LogReader> Reader =
      openLog(P, Path, Name, T, Op, Parent, Oracles);
  if (!Reader)
    return false;
  replay::LogReader::RecoveredLog RL;
  {
    ScopedSpan S(T, "replay.recover", Op, Parent);
    RL = Reader->recover();
  }
  C.addRecovery(RL);
  if (!RL.Complete) {
    Oracles.fail(Name + " recover: " + RL.Failure.message());
    return false;
  }
  rt::ExecutionResult Rep;
  {
    ScopedSpan S(T, "runtime.replay", Op, Parent);
    Rep = P.replay(RL.Log);
  }
  if (!Rep.Ok) {
    Oracles.fail(Name + " replay: " + Rep.Error);
    return false;
  }
  return Oracles.check(Expect && outcomeOf(Rep) == *Expect,
                       Name + ": replay differs from record");
}

void LayerCounts::addRecord(const rt::RunStats &St) {
  Instructions += St.Instructions;
  Revocations += St.Revocations;
  for (unsigned G = 0; G != 4; ++G)
    Acquires[G] += St.WeakAcquires[G];
}

void LayerCounts::addRecovery(const replay::LogReader::RecoveredLog &RL) {
  LogRecords += RL.RecordsRecovered;
  Checkpoints += RL.CheckpointsMerged;
}

void LayerCounts::report(Report &Out) const {
  Out.count("race.pairs", static_cast<double>(Pairs));
  Out.count("runtime.instructions", static_cast<double>(Instructions));
  Out.count("runtime.revocations", static_cast<double>(Revocations));
  static const char *Gran[4] = {"func", "loop", "bblock", "instr"};
  for (unsigned G = 0; G != 4; ++G)
    Out.count(std::string("runtime.weak_acquires.") + Gran[G],
              static_cast<double>(Acquires[G]));
  Out.count("runtime.weak.poll", static_cast<double>(Polls));
  Out.set("runtime.weak.poll_per_inst",
          Instructions ? static_cast<double>(Polls) / Instructions : 0);
  Out.count("replay.log_records", static_cast<double>(LogRecords));
  Out.count("replay.checkpoints", static_cast<double>(Checkpoints));
  Out.set("replay.compress_ratio",
          LogBytes ? static_cast<double>(RawBytes) / LogBytes : 0);
  Out.count("replay.log_bytes", static_cast<double>(LogBytes));
}

// -- Shared reporting --------------------------------------------------------

std::vector<double> finiteOr(std::vector<double> V, double Worst) {
  // A failed op is +inf: beyond every percentile. It can be no slower
  // than the whole measured interval, which is what gets printed.
  for (double &X : V)
    if (!std::isfinite(X))
      X = Worst;
  return V;
}

namespace {
/// Per-pass totals of every non-root span, as "<span>_s" and, per
/// program, "<span>_s.<program>".
std::map<std::string, double> passTotals(const Tracer &T,
                                         const std::vector<Span> &S,
                                         size_t From, size_t To) {
  std::map<std::string, double> Out;
  for (size_t I = From; I != To; ++I) {
    if (S[I].Parent < 0)
      continue;
    double D = S[I].End - S[I].Start;
    Out[S[I].Name + "_s"] += D;
    std::string Tag = T.opTag(S[I].Op);
    if (!Tag.empty())
      Out[S[I].Name + "_s." + Tag] += D;
  }
  return Out;
}
} // namespace

void runPasses(const RunOptions &O, Tracer *T,
               const std::function<void(Tracer *, PassResult &)> &Pass,
               Report &Out) {
  // Hard stop well inside the per-run limit, whatever --seconds says.
  constexpr double MaxSeconds = 120;
  std::vector<PassResult> Passes;
  std::vector<std::pair<size_t, size_t>> SpanRange;
  double T0 = now();
  // A traced run needs one traced and one untraced pass at least.
  const size_t MinPasses = T ? 2 : 1;
  while (Passes.size() < MinPasses ||
         (now() - T0 < O.Seconds && now() - T0 < MaxSeconds)) {
    PassResult R;
    R.Traced = T && Passes.size() % 2 == 1;
    size_t From = T ? T->size() : 0;
    double P0 = now();
    Pass(R.Traced ? T : nullptr, R);
    R.Wall = now() - P0;
    SpanRange.push_back({From, T ? T->size() : 0});
    Passes.push_back(std::move(R));
  }

  // End-to-end metrics: untraced passes only. Every pass runs the same
  // op mix, so op percentiles are taken within a pass (the rank then
  // always lands on the same op of the mix) and the median over passes
  // is reported.
  std::vector<double> Bytes, P50, P90, Rate;
  std::map<std::string, std::vector<double>> ByOp;
  size_t NumOps = 0;
  for (const PassResult &R : Passes) {
    if (R.Traced)
      continue;
    for (size_t K = 0; K != R.OpSeconds.size(); ++K)
      ByOp[R.OpNames[K]].push_back(R.OpSeconds[K]);
    Bytes.push_back(static_cast<double>(R.LogBytes));
    std::vector<double> V = finiteOr(R.OpSeconds, R.Wall);
    P50.push_back(percentile(V, 50));
    P90.push_back(percentile(V, 90));
    Rate.push_back(static_cast<double>(V.size()) / R.Wall);
    NumOps += V.size();
  }
  // Suite totals: each program's median op, summed over the programs
  // (steadier than the median of per-pass sums: one slow op does not
  // spoil its pass).
  double RecordS = 0, ReplayS = 0;
  for (auto &[Name, V] : ByOp) {
    if (Name.rfind("record.", 0) == 0)
      RecordS += median(V);
    else if (Name.rfind("replay.", 0) == 0)
      ReplayS += median(V);
  }
  Out.set("record_s", RecordS);
  Out.set("replay_s", ReplayS);
  Out.count("log_bytes", median(Bytes));
  Out.set("ops_per_s", median(Rate));
  Out.set("op_p50_s", median(P50));
  Out.set("op_p90_s", median(P90));
  Out.count("trace.op_samples", static_cast<double>(NumOps));
  Out.count("trace.passes", static_cast<double>(Passes.size()));
  if (!T)
    return;

  // Per-layer metrics: traced passes only. Counts are deterministic per
  // seed, so the last traced pass stands for all.
  std::vector<Span> S = T->spans();
  std::map<std::string, std::vector<double>> Layer;
  std::vector<double> TracedWall, UntracedWall;
  const PassResult *LastTraced = nullptr;
  for (size_t I = 0; I != Passes.size(); ++I) {
    if (!Passes[I].Traced) {
      UntracedWall.push_back(Passes[I].Wall);
      continue;
    }
    TracedWall.push_back(Passes[I].Wall);
    LastTraced = &Passes[I];
    for (auto &[Name, Sec] :
         passTotals(*T, S, SpanRange[I].first, SpanRange[I].second))
      Layer[Name].push_back(Sec);
  }
  for (auto &[Name, V] : Layer)
    Out.set(Name, median(V));
  if (LastTraced)
    Out.merge(LastTraced->Counts);
  Out.set("trace.overhead_share",
          TracedWall.empty() || UntracedWall.empty()
              ? 0
              : median(TracedWall) / median(UntracedWall) - 1);
  reportSelfTime(S, Out);
}

void reportSelfTime(const std::vector<Span> &Spans, Report &Out) {
  std::map<std::string, double> Self = selfTimeByLayer(Spans);
  double Root = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Root += S.End - S.Start;
  Out.set("trace.root_s", Root);
  for (const char *Layer : {"bench", "lang", "analysis", "race", "profile",
                            "instrument", "runtime", "replay", "service"}) {
    auto It = Self.find(Layer);
    double V = It == Self.end() ? 0 : It->second;
    Out.set(std::string("self.") + Layer + "_share", Root > 0 ? V / Root : 0);
  }
}

} // namespace perfbench
