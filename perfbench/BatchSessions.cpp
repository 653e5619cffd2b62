//===- perfbench/BatchSessions.cpp - Closed-loop service sessions ---------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `batch-sessions` workload: a closed loop of Clients clients over
/// one service::SessionManager. A client submits its next request only
/// after its previous one completed. The deck holds SessionsPerProgram
/// requests per Table-1 program, each with its own record seed; the
/// clients play one continuous sequence of rounds, each round the deck in
/// its own seeded order, with no barrier between rounds. Set-up derives
/// every plan once, serializes the artifact cache (plans + RELAY
/// summaries), and records every (program, seed) one-shot as the
/// reference; the run reloads the cache bytes with
/// ArtifactCache::loadBytes, like a warm restart.
///
/// Every round holds the same mix, so latency percentiles are taken
/// within a round (the rank then always falls on the same program) and
/// the median over rounds is reported, as cold and warm do with passes.
///
/// Session stages are timed through the public SessionOptions::StageHook
/// boundaries: queue (submit -> admitted), build, plan, record, replay,
/// finish (replayed -> the client sees the result).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "race/SummaryCache.h"
#include "replay/LogCodec.h"
#include "service/SessionManager.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <thread>

using namespace chimera;

namespace perfbench {
namespace {

constexpr unsigned Clients = 2;
constexpr unsigned SessionWorkers = 2;
constexpr unsigned SessionAnalysisJobs = 2;
/// Sessions per program in the deck. A run plays whole rounds until
/// --seconds have passed and it has at least MinOps sessions, so p90 over
/// the run keeps ten samples beyond it.
constexpr unsigned SessionsPerProgram = 3;
constexpr size_t MinOps = 100;
/// Hard stop, well inside the per-run limit.
constexpr double MaxSeconds = 100;

/// Stage names in hook order, and the span each interval becomes.
constexpr const char *Hooks[] = {"admitted", "built", "planned", "recorded",
                                 "replayed"};
constexpr const char *Stages[] = {"queue", "build", "plan",
                                  "record", "replay", "finish"};
constexpr const char *StageSpans[] = {"service.queue",  "lang.create",
                                      "service.plan",   "runtime.record",
                                      "runtime.replay", "service.finish"};
constexpr size_t NumStages = 6;

struct Request {
  size_t Program = 0;
  uint64_t RecordSeed = 0;
};

struct Reference {
  uint64_t StateHash = 0;
  uint64_t LogHash = 0;
};

/// What one client observed of one session.
struct SessionTiming {
  size_t Program = 0;
  size_t Round = 0;
  bool Ok = false;
  bool Traced = false;
  double Latency = std::numeric_limits<double>::infinity();
  /// Stage durations; negative when the session never reached it.
  double Stage[NumStages] = {-1, -1, -1, -1, -1, -1};
};

class BatchSessions final : public Workload {
public:
  explicit BatchSessions(const RunOptions &O) : O(O) {}

  unsigned threadPlan(std::string &Detail) const override {
    Detail = std::to_string(Clients) + " closed-loop clients, " +
             std::to_string(SessionWorkers) + " session workers x " +
             std::to_string(SessionAnalysisJobs) + " analysis jobs";
    return SessionWorkers * SessionAnalysisJobs;
  }

  bool setup(Tally &Oracles) override {
    core::PipelineConfig Config;
    Config.AnalysisJobs = SessionAnalysisJobs;
    Progs = makePrograms(O.Seed, Config);
    RacePairs = 0;

    // Cache: derive every plan (RELAY fills the SummaryCache on the way)
    // and persist plans and summaries.
    race::SummaryCache::global().clear();
    service::ArtifactCache Cache;
    for (const Program &Prog : Progs) {
      core::PipelineRequest Req = Prog.Request;
      Req.Config.AnalysisJobs = AnalysisJobs;
      Req.Config.Artifacts = &Cache;
      auto P = createPipeline(Req);
      if (!P)
        return false;
      deriveStages(*P, nullptr, 0, -1);
      RacePairs += P->raceReport().Pairs.size();
    }
    service::exportSummaries(race::SummaryCache::global(), Cache);
    CacheBytes = Cache.serialize();

    // The deck: exactly SessionsPerProgram requests per program whatever
    // the seed, each with a seeded record seed. Each round plays it in
    // its own seeded order (roundOrder).
    Deck.clear();
    uint64_t S = mixSeed(O.Seed ^ 0xba7c4ull);
    for (size_t P = 0; P != Progs.size(); ++P)
      for (unsigned K = 0; K != SessionsPerProgram; ++K) {
        S = mixSeed(S);
        Deck.push_back({P, S % 1'000'000'007ull});
      }

    // References: the one-shot record of every (program, seed), spread
    // over AnalysisJobs threads with one-job pipelines from the cache.
    Refs.assign(Deck.size(), Reference());
    std::atomic<size_t> Next{0};
    std::atomic<bool> Ok{true};
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W != AnalysisJobs; ++W)
      Threads.emplace_back([&] {
        std::vector<std::unique_ptr<core::ChimeraPipeline>> Own(Progs.size());
        for (size_t I; (I = Next.fetch_add(1)) < Deck.size();) {
          const Request &Q = Deck[I];
          auto &P = Own[Q.Program];
          if (!P) {
            core::PipelineRequest Req = Progs[Q.Program].Request;
            Req.Config.AnalysisJobs = 1;
            Req.Config.Artifacts = &Cache;
            P = createPipeline(Req);
            if (!P) {
              Ok = false;
              return;
            }
          }
          rt::ExecutionResult R = P->record(Q.RecordSeed);
          if (!R.Ok) {
            Ok = false;
            return;
          }
          Refs[I] = {R.StateHash, hashBytes(replay::encodeLog(R.Log))};
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    if (!Ok)
      Oracles.fail("batch set-up: a reference record failed");
    return Ok;
  }

  void run(Tracer *T, Tally &Oracles, Report &Out) override {
    // Warm restart: a fresh process-wide SummaryCache and artifact cache
    // loaded from the bytes set-up serialized.
    race::SummaryCache::global().clear();
    service::ArtifactCache Cache;
    double L0 = now();
    auto Loaded = Cache.loadBytes(CacheBytes);
    service::importSummaries(Cache, race::SummaryCache::global());
    Out.set("service.load_s", now() - L0);
    if (!Loaded)
      Oracles.fail("artifact cache reload: " + Loaded.error().message());
    obs::Registry Before;
    race::SummaryCache::global().publishTo(obs::Scope(&Before, "s"));

    std::vector<SessionTiming> Timings;
    double Wall = 0;
    {
      service::SessionManager::Options MO;
      MO.Concurrency = SessionWorkers;
      MO.Artifacts = &Cache;
      service::SessionManager Manager(MO);
      double T0 = now();
      playRounds(T0, Manager, T, Oracles, Timings);
      Wall = now() - T0;
    }

    // End-to-end: latency percentiles within each round, median over
    // rounds; suite totals of each program's median stage time.
    std::vector<std::vector<double>> ByRound;
    for (const SessionTiming &S : Timings) {
      if (ByRound.size() <= S.Round)
        ByRound.resize(S.Round + 1);
      ByRound[S.Round].push_back(S.Latency);
    }
    std::vector<double> P50, P90;
    for (std::vector<double> &V : ByRound) {
      V = finiteOr(std::move(V), Wall);
      P50.push_back(percentile(V, 50));
      P90.push_back(percentile(V, 90));
    }
    Out.set("ops_per_s", Timings.size() / Wall);
    Out.set("op_p50_s", median(P50));
    Out.set("op_p90_s", median(P90));
    Out.count("trace.op_samples", static_cast<double>(Timings.size()));
    Out.set("record_s", stageSuiteTotal(Timings, 3));
    Out.set("replay_s", stageSuiteTotal(Timings, 4));
    Out.count("log_bytes", static_cast<double>(LogBytes) * Progs.size() /
                               std::max<size_t>(Timings.size(), 1));
    Out.count("trace.passes", static_cast<double>(ByRound.size()));
    if (!T)
      return;

    // Per-layer: stage percentiles over every session, suite totals of
    // the stage spans, cache hit ratios, and tracing overhead (traced
    // against untraced sessions of the same program).
    for (size_t K = 0; K != NumStages; ++K) {
      std::vector<double> V;
      for (const SessionTiming &S : Timings)
        if (S.Stage[K] >= 0)
          V.push_back(S.Stage[K]);
      Out.set(std::string("service.") + Stages[K] + "_p50_s",
              percentile(V, 50));
      Out.set(std::string("service.") + Stages[K] + "_p90_s",
              percentile(V, 90));
      Out.set(std::string(StageSpans[K]) + "_s",
              stageSuiteTotal(Timings, K));
      for (size_t P = 0; P != Progs.size(); ++P)
        if (K == 3 || K == 4)
          Out.set(std::string(StageSpans[K]) + "_s." + Progs[P].Name,
                  stageMedian(Timings, K, P));
    }
    obs::Registry Scratch;
    Cache.publishTo(obs::Scope(&Scratch, "a"));
    race::SummaryCache::global().publishTo(obs::Scope(&Scratch, "s"));
    obs::Snapshot A = Scratch.snapshot(), B = Before.snapshot();
    auto Ratio = [&](const char *Prefix, const obs::Snapshot &Base) {
      double H = static_cast<double>(A.value(std::string(Prefix) + ".hits") -
                                     Base.value(std::string(Prefix) + ".hits"));
      double M =
          static_cast<double>(A.value(std::string(Prefix) + ".misses") -
                              Base.value(std::string(Prefix) + ".misses"));
      return H + M > 0 ? H / (H + M) : 0;
    };
    Out.count("race.pairs", static_cast<double>(RacePairs));
    Out.set("service.artifact_hit_ratio", Ratio("a", obs::Snapshot()));
    Out.set("race.summary_cache_hit_ratio", Ratio("s", B));

    double Traced = 0, Untraced = 0;
    for (size_t P = 0; P != Progs.size(); ++P) {
      std::vector<double> Tr, Un;
      for (const SessionTiming &S : Timings)
        if (S.Program == P && S.Ok)
          (S.Traced ? Tr : Un).push_back(S.Latency);
      Traced += median(Tr);
      Untraced += median(Un);
    }
    Out.set("trace.overhead_share", Untraced > 0 ? Traced / Untraced - 1 : 0);
    reportSelfTime(T->spans(), Out);
  }

private:
  /// The seeded order in which round \p Round plays the deck.
  std::vector<size_t> roundOrder(size_t Round) const {
    std::vector<size_t> Order(Deck.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    uint64_t S = mixSeed(mixSeed(O.Seed ^ 0x0de7ull) + Round);
    for (size_t I = Order.size(); I > 1; --I) {
      S = mixSeed(S);
      std::swap(Order[I - 1], Order[S % I]);
    }
    return Order;
  }

  /// The closed loop: Clients clients take positions from one sequence
  /// of rounds until, at a round boundary, --seconds have passed since
  /// \p T0 and MinOps sessions ran. In a traced run, odd positions are
  /// traced and even ones are not.
  void playRounds(double T0, service::SessionManager &Manager, Tracer *T,
                  Tally &Oracles, std::vector<SessionTiming> &Timings) {
    std::mutex Mu; // Guards the sequence, Timings, Oracles and LogBytes.
    size_t Next = 0;
    bool Over = false;
    std::vector<size_t> Order;
    // The next position and its deck index, or false once the run is over.
    auto Take = [&](size_t &Pos, size_t &I) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Over && Next % Deck.size() == 0) {
        double Elapsed = now() - T0;
        Over = Next != 0 && ((Elapsed >= O.Seconds && Next >= MinOps) ||
                             Elapsed >= MaxSeconds);
        if (!Over)
          Order = roundOrder(Next / Deck.size());
      }
      if (Over)
        return false;
      Pos = Next++;
      I = Order[Pos % Deck.size()];
      return true;
    };
    auto Client = [&] {
      for (size_t Pos, I; Take(Pos, I);) {
        const Request &Q = Deck[I];
        const bool Traced = T && Pos % 2 == 1;
        const Program &Prog = Progs[Q.Program];

        // Stage boundaries land on the session's worker thread; the
        // client reads them after wait() returns.
        auto Marks = std::make_shared<std::vector<double>>();
        Marks->reserve(std::size(Hooks));
        service::SessionOptions SO;
        SO.Seed = Q.RecordSeed;
        SO.StageHook = [Marks](const char *) { Marks->push_back(now()); };

        SessionTiming S;
        S.Program = Q.Program;
        S.Round = Pos / Deck.size();
        S.Traced = Traced;
        double Submit = now();
        auto Id = Manager.submit(Prog.Request, SO);
        service::SessionResult R;
        if (Id)
          R = Manager.wait(*Id);
        double Done = now();

        std::lock_guard<std::mutex> Lock(Mu);
        Oracles.op();
        if (!Id) {
          Oracles.fail(Prog.Name + " submit: " + Id.error().message());
        } else if (!R.Ok) {
          Oracles.fail(Prog.Name + " session: " + R.Error);
        } else {
          const Reference &Ref = Refs[I];
          bool Same = Oracles.check(R.RecordStateHash == Ref.StateHash,
                                    Prog.Name + ": session record hash "
                                                "differs from one-shot");
          Same &= Oracles.check(hashBytes(R.LogBytes) == Ref.LogHash,
                                Prog.Name + ": session log differs from "
                                            "one-shot");
          S.Ok = Same;
          LogBytes += R.LogBytes.size();
        }
        if (S.Ok)
          S.Latency = Done - Submit;
        std::vector<double> B = {Submit};
        B.insert(B.end(), Marks->begin(), Marks->end());
        B.push_back(Done);
        for (size_t K = 0; K + 1 < B.size() && K < NumStages; ++K)
          S.Stage[K] = B[K + 1] - B[K];
        if (Traced) {
          uint64_t Op = T->newOp(Prog.Name);
          int64_t Root = T->add("bench.session", Op, -1, Submit, Done);
          for (size_t K = 0; K + 1 < B.size() && K < NumStages; ++K)
            T->add(StageSpans[K], Op, Root, B[K], B[K + 1]);
        }
        Timings.push_back(S);
      }
    };
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back(Client);
    for (std::thread &Th : Threads)
      Th.join();
  }

  /// Median duration of stage \p K over the sessions of program \p P.
  static double stageMedian(const std::vector<SessionTiming> &Timings,
                            size_t K, size_t P) {
    std::vector<double> V;
    for (const SessionTiming &S : Timings)
      if (S.Program == P && S.Stage[K] >= 0)
        V.push_back(S.Stage[K]);
    return median(V);
  }

  double stageSuiteTotal(const std::vector<SessionTiming> &Timings,
                         size_t K) const {
    double Total = 0;
    for (size_t P = 0; P != Progs.size(); ++P)
      Total += stageMedian(Timings, K, P);
    return Total;
  }

  RunOptions O;
  std::vector<Program> Progs;
  std::vector<uint8_t> CacheBytes;
  std::vector<Request> Deck;
  std::vector<Reference> Refs;
  uint64_t LogBytes = 0;
  uint64_t RacePairs = 0; ///< Over the nine programs, from set-up.
};

} // namespace

std::unique_ptr<Workload> makeBatchSessions(const RunOptions &O) {
  return std::make_unique<BatchSessions>(O);
}

} // namespace perfbench
