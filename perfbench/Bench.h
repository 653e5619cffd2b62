//===- perfbench/Bench.h - Shared benchmark infrastructure ------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three benchmark workloads share: the clock, in-memory spans
/// with per-layer self time, medians and percentiles, the oracle tally,
/// the metric report, and the seeded inputs (the nine Table-1 programs
/// with one record seed each).
///
/// Every timing is host wall time on std::chrono::steady_clock. Only
/// metrics whose name starts with `sim_` (or contains `.sim_`) are
/// simulated cycles; the two are never mixed in one number.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_PERFBENCH_BENCH_H
#define CHIMERA_PERFBENCH_BENCH_H

#include "core/Pipeline.h"
#include "replay/LogReader.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process started measuring (the tracer's time base).
double now();

// -- Statistics --------------------------------------------------------------

double median(std::vector<double> V);
/// Nearest-rank percentile \p P in [0, 100] of \p V (empty -> 0).
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

// -- Spans -------------------------------------------------------------------

/// One timed interval around a public call. Name is "<layer>.<what>"; the
/// layer (text before the first '.') is what self time is charged to.
/// Spans of one operation share Op; roots have Parent == -1.
struct Span {
  std::string Name;
  uint64_t Op = 0;
  int64_t Parent = -1;
  double Start = 0;
  double End = 0;
};

/// In-memory span store. Thread-safe (batch sessions report stage
/// boundaries from the service's worker threads). A null Tracer* means
/// "untraced": the ScopedSpan helpers then read no clock at all.
class Tracer {
public:
  int64_t begin(const std::string &Name, uint64_t Op, int64_t Parent);
  void end(int64_t Id);
  /// Adds an already-timed span (stage boundaries seen by a hook).
  int64_t add(const std::string &Name, uint64_t Op, int64_t Parent,
              double Start, double End);
  /// A fresh op id; \p Tag (the program) keys per-program totals.
  uint64_t newOp(const std::string &Tag);
  std::string opTag(uint64_t Op) const;
  size_t size() const;

  std::vector<Span> spans() const;
  /// Writes every span as JSON lines to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::map<uint64_t, std::string> OpTags;
  uint64_t NextOp = 1;
};

/// RAII span; a no-op when \p T is null.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const std::string &Name, uint64_t Op,
             int64_t Parent)
      : T(T), Id(T ? T->begin(Name, Op, Parent) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int64_t id() const { return Id; }

private:
  Tracer *T;
  int64_t Id;
};

/// Self time per layer: each span's duration minus the union of its
/// children's intervals, summed by layer. By construction the values add
/// up to the summed duration of the root spans.
std::map<std::string, double> selfTimeByLayer(const std::vector<Span> &S);

// -- Oracles and report ------------------------------------------------------

/// Counts operations and failed oracles. A failed oracle fails its op.
class Tally {
public:
  /// Starts the next op; later failures count against it, once.
  void op() {
    ++Attempted;
    CurrentFailed = false;
  }
  /// Records oracle \p Ok for the current op; prints \p What on failure.
  bool check(bool Ok, const std::string &What);
  /// Fails the current op without an oracle (the call itself failed).
  void fail(const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool CurrentFailed = false;
};

struct Metric {
  double Value = 0;
  bool Integer = false;
};

/// Name -> measured value. Workloads set what they measure; main prints
/// the subset the run mode asks for, with the units it lists.
class Report {
public:
  void set(const std::string &Name, double Value) {
    Values[Name] = {Value, false};
  }
  void count(const std::string &Name, double Value) {
    Values[Name] = {Value, true};
  }
  void merge(const Report &O) {
    for (const auto &[Name, M] : O.Values)
      Values[Name] = M;
  }
  const Metric *find(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? nullptr : &It->second;
  }

private:
  std::map<std::string, Metric> Values;
};

// -- Inputs ------------------------------------------------------------------

/// Simulated-program workers per Table-1 program (the paper's 4).
inline constexpr unsigned ProgramWorkers = 4;
/// Host threads the cold and warm workloads give each pipeline.
inline constexpr unsigned AnalysisJobs = 4;
/// Epoch-parallel replay width on the warm workload.
inline constexpr unsigned ReplayJobs = 4;

/// One Table-1 program with the record seed the workload seed gave it.
struct Program {
  chimera::workloads::WorkloadKind Kind;
  std::string Name;
  chimera::core::PipelineRequest Request;
  uint64_t RecordSeed = 0;
};

/// SplitMix64 step: the benchmark's only source of derived seeds.
uint64_t mixSeed(uint64_t X);

/// The nine programs (Table-1 order) with sources generated through
/// workloads::pipelineRequest and \p Config for every other knob, and
/// record seeds derived from \p Seed.
std::vector<Program> makePrograms(uint64_t Seed,
                                  const chimera::core::PipelineConfig &Config);

/// Builds a pipeline, or prints the error and returns null.
std::unique_ptr<chimera::core::ChimeraPipeline>
createPipeline(const chimera::core::PipelineRequest &Req);

/// Forces every static stage in pipeline order, with one span each:
/// analysis.mhp, race.relay, profile.profile, instrument.plan,
/// instrument.instrument, instrument.audit. The same work the first
/// record or replay would otherwise do lazily.
void deriveStages(const chimera::core::ChimeraPipeline &P, Tracer *T,
                  uint64_t Op, int64_t Parent);

bool readFile(const std::string &Path, std::vector<uint8_t> &Out);
uint64_t hashBytes(const std::vector<uint8_t> &Bytes);

/// The parts of an execution the replay oracles compare.
struct Outcome {
  uint64_t StateHash = 0;
  std::vector<uint64_t> Output;
  bool operator==(const Outcome &O) const {
    return StateHash == O.StateHash && Output == O.Output;
  }
};
Outcome outcomeOf(const chimera::rt::ExecutionResult &R);

// -- Workloads ---------------------------------------------------------------

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string WorkDir; ///< Log files and the span file go here.
};

/// A workload: a set-up (repeated by main for setup_s) and a measured
/// run over the state the last set-up built.
class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Host threads the workload keeps busy at most.
  virtual unsigned threadPlan(std::string &Detail) const = 0;
  /// Builds the state run() needs, dropping any earlier one. Returns
  /// false (after printing why) when set-up itself failed.
  virtual bool setup(Tally &Oracles) = 0;
  virtual void run(Tracer *T, Tally &Oracles, Report &Out) = 0;
};

std::unique_ptr<Workload> makeColdRecordReplay(const RunOptions &O);
std::unique_ptr<Workload> makeWarmRecordReplay(const RunOptions &O);
std::unique_ptr<Workload> makeBatchSessions(const RunOptions &O);


/// Per-layer counts of one pass over the nine programs: RunStats of the
/// records, log recovery, and the Observability=Full registry.
struct LayerCounts {
  uint64_t Pairs = 0, Instructions = 0, Revocations = 0, Polls = 0;
  uint64_t Acquires[4] = {0, 0, 0, 0}; ///< By ir::WeakLockGranularity.
  uint64_t LogRecords = 0, Checkpoints = 0, RawBytes = 0, LogBytes = 0;

  void addRecord(const chimera::rt::RunStats &St);
  void addRecovery(const chimera::replay::LogReader::RecoveredLog &RL);
  void report(Report &Out) const;
};

/// Opens the segmented log at \p Path for replay on \p P, checking the
/// workload fingerprint as the CLI does (span replay.open). On failure
/// fails the current op, naming \p Name, and returns nothing.
std::optional<chimera::replay::LogReader>
openLog(const chimera::core::ChimeraPipeline &P, const std::string &Path,
        const std::string &Name, Tracer *T, uint64_t Op, int64_t Parent,
        Tally &Oracles);

/// Sequential replay of the log at \p Path on \p P, as `chimera replay`
/// does it: openLog, recover (span replay.recover), replay (span
/// runtime.replay). Checks the result against \p Expect, the record's
/// outcome (null when there was no record to compare against, which
/// fails). Returns true when the replay reproduced it.
bool replayLog(chimera::core::ChimeraPipeline &P,
               const std::string &Path, const std::string &Name, Tracer *T,
               uint64_t Op, int64_t Parent, const Outcome *Expect,
               LayerCounts &C, Tally &Oracles);

/// One pass over the nine programs (cold and warm workloads).
struct PassResult {
  bool Traced = false;
  double Wall = 0;
  std::vector<double> OpSeconds;    ///< Every op's latency.
  std::vector<std::string> OpNames; ///< "<kind>.<program>" per op.
  uint64_t LogBytes = 0;            ///< On-disk .clog bytes, suite total.
  Report Counts;                    ///< Per-layer counts (traced passes).

  void addOp(const std::string &Kind, const std::string &Program,
             double Seconds) {
    OpNames.push_back(Kind + "." + Program);
    OpSeconds.push_back(Seconds);
  }
};

/// Runs whole passes until \p O.Seconds have elapsed. With a tracer,
/// odd passes are traced and even ones are not, so one run gives both the
/// per-layer numbers and the tracing overhead. Fills the end-to-end
/// metrics from the untraced passes and the per-layer ones from the
/// traced passes.
void runPasses(const RunOptions &O, Tracer *T,
               const std::function<void(Tracer *, PassResult &)> &Pass,
               Report &Out);

/// \p V with every non-finite value (a failed op) replaced by \p Worst.
std::vector<double> finiteOr(std::vector<double> V, double Worst);
/// Reports the self-time shares of a traced run.
void reportSelfTime(const std::vector<Span> &Spans, Report &Out);

} // namespace perfbench

#endif // CHIMERA_PERFBENCH_BENCH_H
