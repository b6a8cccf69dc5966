//===- jvmbench.cpp - End-to-end benchmark program -----------------------------===//
///
/// \file
/// One process runs one workload: it sets the workload up several times,
/// measures a closed-loop window of whole rounds lasting at least
/// --seconds, checks every op against an independent reference, and
/// prints one JSON object: the time of each set-up, throughput and exact
/// latency percentiles per block of the window, the per-op counts and
/// every per-layer metric. run.py builds this binary, runs it in fresh
/// processes, takes the medians and formats the result; README.md
/// explains the metrics and why each workload exists.
///
/// jvmbench measures each layer from outside: it only calls public VM
/// entry points (buildBenchmarkSet, Isolate::call, waitForCompilerIdle,
/// runCompilePipeline, emitNativeCode, Heap::gcRecords,
/// CompileLog::recordsFor and the metrics structs). With --trace it also
/// records its own spans around those calls, keeps them in memory and
/// writes them as Chrome trace JSON when the run ends.
///
/// A round holds every input of the workload once, in an order shuffled
/// from the seed, and the window always ends on a round boundary. Counts
/// per op therefore do not depend on how many rounds fit in the window.
///
/// Usage: jvmbench --workload NAME [--seed N] [--seconds S] [--min-ops N]
///                 [--setups K] [--trace FILE]
///
//===----------------------------------------------------------------------===//

#include "compiler/PhasePlan.h"
#include "interp/Profile.h"
#include "jit/CodeCache.h"
#include "jit/NativeCode.h"
#include "memory/Object.h"
#include "vm/CompileBroker.h"
#include "vm/Isolate.h"
#include "workloads/Suites.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

using namespace jvm;
using namespace jvm::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the only source of randomness, so one seed fixes every
/// input the VM receives.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }

private:
  uint64_t S;
};

/// Exact nearest-rank percentile of \p V: the smallest sample with at
/// least a fraction \p Q of all samples at or below it. No bucketing.
uint64_t percentile(std::vector<uint64_t> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

//===----------------------------------------------------------------------===//
// Bench-side spans (Chrome trace "X" events)
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  unsigned Tid;
  uint64_t Start, End;
  uint64_t Id, Parent;
  std::string Args; ///< extra JSON members, each preceded by a comma
};

std::atomic<uint64_t> NextSpanId{1};
uint64_t newSpanId() { return NextSpanId.fetch_add(1); }

/// Writes \p Spans as a Chrome trace JSON file (loadable by Perfetto).
bool writeTrace(const std::string &Path, const std::vector<Span> &Spans,
                uint64_t Origin) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  const char *Sep = "\n";
  for (const Span &S : Spans) {
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu%s}}",
                 Sep, S.Name, S.Tid, (S.Start - Origin) / 1e3,
                 (S.End - S.Start) / 1e3, (unsigned long long)S.Id,
                 (unsigned long long)S.Parent, S.Args.c_str());
    Sep = ",\n";
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

/// Counters of one isolate that spans record as deltas. All of them are
/// written by the isolate's mutator thread only, so that thread may read
/// them between calls without locking.
struct Counters {
  uint64_t Allocs = 0, Bytes = 0, MonitorOps = 0, InterpOps = 0,
           CompiledOps = 0, Deopts = 0, StallNs = 0;
  size_t GcRecords = 0;
  uint64_t GcPauseNs = 0; ///< see readCounters
};

/// Reads \p VM's counters; with \p Prev, GcPauseNs also sums the pauses
/// of the GC records added since \p Prev was read.
Counters readCounters(Isolate &VM, const Counters *Prev = nullptr) {
  const Runtime &RT = VM.runtime();
  Counters C;
  C.Allocs = RT.heap().allocationCount();
  C.Bytes = RT.heap().allocatedBytes();
  C.MonitorOps = RT.metrics().MonitorOps;
  C.InterpOps = RT.metrics().InterpretedOps;
  C.CompiledOps = RT.metrics().CompiledOps;
  C.Deopts = RT.metrics().Deopts;
  C.StallNs = VM.jitMetrics().MutatorStallNanos;
  const auto &Recs = RT.heap().gcRecords();
  C.GcRecords = Recs.size();
  if (Prev)
    for (size_t I = Prev->GcRecords; I < Recs.size(); ++I)
      C.GcPauseNs += Recs[I].PauseNanos;
  return C;
}

/// Span arguments: the counter deltas between \p A and \p B.
std::string counterArgs(const Counters &A, const Counters &B) {
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                ", \"allocs\": %llu, \"bytes\": %llu, \"monitor_ops\": %llu, "
                "\"gc_records\": %llu, \"gc_pause_ns\": %llu, "
                "\"stall_ns\": %llu, \"interp_ops\": %llu, "
                "\"compiled_ops\": %llu, \"deopts\": %llu",
                (unsigned long long)(B.Allocs - A.Allocs),
                (unsigned long long)(B.Bytes - A.Bytes),
                (unsigned long long)(B.MonitorOps - A.MonitorOps),
                (unsigned long long)(B.GcRecords - A.GcRecords),
                (unsigned long long)(B.GcPauseNs - A.GcPauseNs),
                (unsigned long long)(B.StallNs - A.StallNs),
                (unsigned long long)(B.InterpOps - A.InterpOps),
                (unsigned long long)(B.CompiledOps - A.CompiledOps),
                (unsigned long long)(B.Deopts - A.Deopts));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Throughput and latency of one block of the window (see cutBlocks).
struct Block {
  double OpsPerS, P50Ms, P99Ms;
  uint64_t Ops;
};

struct Result {
  std::vector<Metric> E2E, Layer;
  std::vector<Block> Blocks;
  std::vector<double> SetupSeconds;
  std::vector<std::pair<std::string, std::string>> Header; ///< raw JSON
  std::vector<std::pair<std::string, uint64_t>> Samples;   ///< per statistic
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< the first few, for the log
  std::string TraceError;

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 5)
      Failures.push_back(Why);
  }
  void e2e(const char *N, double V, const char *U) { E2E.push_back({N, V, U}); }
  void layer(const std::string &N, double V, const char *U) {
    Layer.push_back({N, V, U});
  }
};

void printResult(const std::string &Workload, uint64_t Seed,
                 const Result &R) {
  auto Metrics = [](const std::vector<Metric> &Ms) {
    std::string S = "{";
    const char *Sep = "";
    for (const Metric &M : Ms) {
      S += Sep + jsonStr(M.Name) + ": {\"value\": " + jsonNum(M.Value) +
           ", \"unit\": " + jsonStr(M.Unit) + "}";
      Sep = ", ";
    }
    return S + "}";
  };
  std::string Out = "{\"workload\": " + jsonStr(Workload) +
                    ", \"seed\": " + std::to_string(Seed) + ", \"header\": {";
  const char *Sep = "";
  for (const auto &H : R.Header) {
    Out += Sep + jsonStr(H.first) + ": " + H.second;
    Sep = ", ";
  }
  Out += "}, \"samples\": {";
  Sep = "";
  for (const auto &S : R.Samples) {
    Out += Sep + jsonStr(S.first) + ": " + std::to_string(S.second);
    Sep = ", ";
  }
  Out += "}, \"attempted\": " + std::to_string(R.Attempted) +
         ", \"failed\": " + std::to_string(R.Failed) + ", \"failures\": [";
  Sep = "";
  for (const std::string &F : R.Failures) {
    Out += Sep + jsonStr(F);
    Sep = ", ";
  }
  Out += "], \"setup_s\": [";
  Sep = "";
  for (double S : R.SetupSeconds) {
    Out += Sep + jsonNum(S);
    Sep = ", ";
  }
  Out += "], \"blocks\": [";
  Sep = "";
  for (const Block &B : R.Blocks) {
    Out += Sep + std::string("{\"ops_per_s\": ") + jsonNum(B.OpsPerS) +
           ", \"op_ms_p50\": " + jsonNum(B.P50Ms) +
           ", \"op_ms_p99\": " + jsonNum(B.P99Ms) +
           ", \"ops\": " + std::to_string(B.Ops) + "}";
    Sep = ", ";
  }
  Out += "], \"trace_error\": " + jsonStr(R.TraceError) +
         ", \"e2e\": " + Metrics(R.E2E) + ", \"layer\": " + Metrics(R.Layer) +
         "}";
  std::printf("%s\n", Out.c_str());
}

//===----------------------------------------------------------------------===//
// The measured window
//===----------------------------------------------------------------------===//

/// Op latencies of one app thread, by round.
struct RoundLog {
  std::vector<uint64_t> OpNs;
  std::vector<size_t> RoundEnd;  ///< OpNs.size() after each round
  std::vector<uint64_t> RoundNs; ///< wall time of each round
  uint64_t TracedOps = 0, TracedNs = 0, UntracedOps = 0, UntracedNs = 0;
};

/// The closed loop of every workload: whole rounds, each a seeded
/// shuffle of the \p N inputs, until the deadline has passed and at least
/// \p MinOps ops ran. Traced runs alternate traced and untraced rounds,
/// so the tracing overhead is measured against the same warm state.
/// \p RunOp runs input I (traced or not) and returns its latency.
template <typename Fn>
void runRounds(size_t N, uint64_t Seed, uint64_t DeadlineNs, uint64_t MinOps,
               bool Trace, RoundLog &Log, Fn RunOp) {
  Rng R(Seed);
  std::vector<uint32_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  unsigned MinRounds = Trace ? 2 : 1;
  for (unsigned Round = 0;; ++Round) {
    if (Round >= MinRounds && nowNs() >= DeadlineNs &&
        Log.OpNs.size() >= MinOps)
      break;
    uint64_t T0 = nowNs();
    R.shuffle(Order);
    bool Traced = Trace && Round % 2 == 0;
    for (uint32_t I : Order) {
      uint64_t Ns = RunOp(I, Traced);
      Log.OpNs.push_back(Ns);
      (Traced ? Log.TracedOps : Log.UntracedOps) += 1;
      (Traced ? Log.TracedNs : Log.UntracedNs) += Ns;
    }
    Log.RoundEnd.push_back(Log.OpNs.size());
    Log.RoundNs.push_back(nowNs() - T0);
  }
}

/// The window is cut into blocks of at least MinBlockOps ops, so each
/// block's p99 has at least ten samples above it, and at most MaxBlocks.
constexpr uint64_t MinBlockOps = 1000;
constexpr size_t MaxBlocks = 5;

/// Cuts each thread's rounds into the same number of consecutive blocks
/// and records throughput and exact latency percentiles per block, over
/// all threads. run.py reports the fastest block: interference from
/// outside the process slows some blocks down and never speeds one up.
void cutBlocks(const std::vector<const RoundLog *> &Logs, Result &R) {
  uint64_t Ops = 0;
  size_t Blocks = MaxBlocks;
  for (const RoundLog *L : Logs) {
    Ops += L->OpNs.size();
    Blocks = std::min(Blocks, L->RoundNs.size());
  }
  Blocks = std::max<size_t>(1, std::min<size_t>(Blocks, Ops / MinBlockOps));
  for (size_t B = 0; B != Blocks; ++B) {
    double OpsPerS = 0;
    std::vector<uint64_t> Ns;
    for (const RoundLog *L : Logs) {
      size_t Rounds = L->RoundNs.size();
      size_t R0 = B * Rounds / Blocks, R1 = (B + 1) * Rounds / Blocks;
      size_t Op0 = R0 ? L->RoundEnd[R0 - 1] : 0, Op1 = L->RoundEnd[R1 - 1];
      uint64_t Wall = std::accumulate(L->RoundNs.begin() + R0,
                                      L->RoundNs.begin() + R1, uint64_t(0));
      OpsPerS += ratio(Op1 - Op0, Wall / 1e9);
      Ns.insert(Ns.end(), L->OpNs.begin() + Op0, L->OpNs.begin() + Op1);
    }
    R.Blocks.push_back({OpsPerS, percentile(Ns, 0.50) / 1e6,
                        percentile(Ns, 0.99) / 1e6, Ns.size()});
  }
}

/// How much slower traced ops ran than untraced ones, in percent.
double traceOverheadPct(const std::vector<const RoundLog *> &Logs) {
  double TracedNs = 0, TracedOps = 0, UntracedNs = 0, UntracedOps = 0;
  for (const RoundLog *L : Logs) {
    TracedNs += L->TracedNs;
    TracedOps += L->TracedOps;
    UntracedNs += L->UntracedNs;
    UntracedOps += L->UntracedOps;
  }
  double Base = ratio(UntracedNs, UntracedOps);
  return Base > 0 && TracedOps > 0
             ? 100 * (ratio(TracedNs, TracedOps) / Base - 1)
             : 0;
}

//===----------------------------------------------------------------------===//
// Options and workload definitions
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  uint64_t MinOps = 1000;
  unsigned Setups = 3;
  std::string TracePath;
  bool trace() const { return !TracePath.empty(); }
};

/// Calls per row before measuring, as in the Table 1 harness.
constexpr unsigned WarmupCalls = 12;

/// Every op runs its row at one of these fractions of the row's scale.
constexpr int64_t ScaleNum[] = {3, 4, 5};
constexpr int64_t ScaleDen = 4;

/// The compile threshold of the Table 1 harness and the multi-tenant runner:
/// high enough that profiles mature before a method compiles.
constexpr uint64_t CompileThreshold = 500;

/// A workload that executes guest code.
struct ExecWorkload {
  const char *Name;
  std::vector<std::string> Rows;
  int64_t ScaleDivisor; ///< ops run at Row.Scale / ScaleDivisor
  ExecMode Exec;
  unsigned Isolates; ///< one app thread each
  bool Async;        ///< compile through the process-wide broker
};

const std::vector<ExecWorkload> &execWorkloads() {
  static const std::vector<ExecWorkload> W = {
      // The rows where the paper's PEA removes >= 12% of allocated bytes.
      {"table1_pea",
       {"factorie", "specs", "sunflow", "actors", "specjbb2005", "scalac",
        "scaladoc", "scalariform"},
       1, ExecMode::Linear, 1, false},
      // The rows Table 1 omits for "no significant change".
      {"table1_flat",
       {"avrora", "batik", "eclipse", "luindex", "lusearch", "pmd",
        "tradesoap"},
       1, ExecMode::Native, 1, false},
      // The remaining twelve rows, small, on three concurrent tenants.
      {"tenants",
       {"fop", "h2", "jython", "tomcat", "tradebeans", "xalan", "apparat",
        "kiama", "scalap", "scalatest", "scalaxb", "tmt"},
       16, ExecMode::Linear, 3, true},
  };
  return W;
}

VMOptions vmOptions(ExecMode Exec, bool Async) {
  VMOptions VO;
  VO.CompileThreshold = CompileThreshold;
  VO.Exec = Exec;
  VO.CompilerThreads = Async ? defaultCompilerThreads() : 0;
  return VO;
}

/// The PEA counters and phase times of a set of compiles, per compile.
struct CompileStats {
  uint64_t Compiles = 0;
  PhaseTimes Phases;
  PEAStats Escape;
  uint64_t FixpointCapHits = 0;
  uint64_t NodesOut = 0;
  std::vector<uint64_t> EmitNs;

  void report(Result &R) const {
    static const char *Names[] = {"build", "canon", "inline", "gvn",
                                  "dce",   "verify", "schedule", "emit"};
    double N = static_cast<double>(Compiles);
    for (const char *Ph : Names)
      R.layer(std::string("compiler.phase_us.") + Ph,
              ratio(Phases.nanosFor(Ph) / 1e3, N), "us");
    R.layer("compiler.nodes_out", ratio(NodesOut, N), "nodes");
    R.layer("compiler.fixpoint_cap_hits", FixpointCapHits, "count");
    R.layer("pea.phase_us", ratio(Phases.nanosFor("escape-partial") / 1e3, N),
            "us");
    R.layer("pea.virtualized_allocs", ratio(Escape.VirtualizedAllocations, N),
            "1/compile");
    R.layer("pea.materialize_sites", ratio(Escape.MaterializeSites, N),
            "1/compile");
    R.layer("pea.scalar_replaced_loads", ratio(Escape.ScalarReplacedLoads, N),
            "1/compile");
    R.layer("pea.elided_monitor_ops", ratio(Escape.ElidedMonitorOps, N),
            "1/compile");
    R.layer("pea.loop_iterations", ratio(Escape.LoopIterations, N),
            "1/compile");
    R.layer("jit.emit_us_p50", percentile(EmitNs, 0.5) / 1e3, "us");
    R.Samples.push_back({"jit.emit_us", EmitNs.size()});
  }
};

//===----------------------------------------------------------------------===//
// Execution workloads: table1_pea, table1_flat, tenants
//===----------------------------------------------------------------------===//

struct Input {
  const BenchmarkRow *Row;
  int64_t Scale;
};

struct OpRecord {
  uint32_t Input;
  int64_t Result;
};

/// What one app thread measured in the window.
struct ThreadWindow {
  RoundLog Log;
  std::vector<OpRecord> Ops;
  /// Traced ops only: op time minus GC pause and compile stall, i.e. the
  /// time spent executing guest code.
  uint64_t TracedExecNs = 0;
  uint64_t EndNs = 0;
  std::vector<Span> Spans;
};

/// One set-up of an execution workload: the program, the isolates, and
/// what set-up cost before the metrics were reset.
struct ExecSetup {
  std::unique_ptr<BenchmarkSet> Set;
  std::vector<std::unique_ptr<Isolate>> VMs;
  std::vector<Input> Inputs;
  uint64_t Ns = 0;
  uint64_t InterpOps = 0, StallNs = 0, QueueHw = 0;
  uint64_t NativeFallbacks = 0;
  uint64_t SpeshPlans = 0, SpeshGuardFailures = 0, OsrEntries = 0;
  CompileStats Compile; ///< phase times and PEA counters, all compiles
};

/// Adds the JitMetrics/SpeshMetrics accumulated since the last reset.
void harvest(ExecSetup &S, Isolate &VM) {
  JitMetrics &J = VM.jitMetrics();
  S.Compile.Phases += J.PhaseNanos;
  S.Compile.Escape += J.EscapeStats;
  S.Compile.FixpointCapHits += J.FixpointCapHits;
  S.NativeFallbacks += J.NativeFallbacks;
  S.QueueHw = std::max(S.QueueHw, J.QueueDepthHighWater);
  S.SpeshPlans += VM.speshMetrics().Plans;
  S.SpeshGuardFailures += VM.speshMetrics().GuardFailures;
  S.OsrEntries += VM.speshMetrics().OsrEntries;
}

/// The warmup of every workload: the Table 1 harness's calls per row,
/// then each row's entry method is compiled (its hotness would only cross
/// the threshold mid-window), then the compiler drains. The window
/// starts from a fully compiled steady state.
void warmup(Isolate &VM, const std::vector<const BenchmarkRow *> &Rows,
            int64_t ScaleDivisor, unsigned Tid, bool Trace, uint64_t Parent,
            std::vector<Span> &Spans) {
  Counters C0 = readCounters(VM);
  uint64_t T0 = nowNs();
  for (const BenchmarkRow *Row : Rows) {
    for (unsigned I = 0; I != WarmupCalls; ++I)
      VM.call(Row->Driver, {Value::makeInt(Row->Scale / ScaleDivisor)});
    VM.compileNow(Row->Driver);
  }
  uint64_t T1 = nowNs();
  VM.waitForCompilerIdle();
  uint64_t T2 = nowNs();
  if (Trace) {
    Counters C1 = readCounters(VM, &C0);
    Spans.push_back({"warmup", Tid, T0, T1, newSpanId(), Parent,
                     counterArgs(C0, C1)});
    Spans.push_back({"wait_idle", Tid, T1, T2, newSpanId(), Parent, ""});
  }
}

ExecSetup setupExec(const ExecWorkload &W, const Options &O,
                    std::vector<Span> &Spans) {
  ExecSetup S;
  uint64_t T0 = nowNs();
  uint64_t SetupId = newSpanId();
  S.Set = std::make_unique<BenchmarkSet>(buildBenchmarkSet());
  uint64_t T1 = nowNs();
  for (unsigned I = 0; I != W.Isolates; ++I)
    S.VMs.push_back(std::make_unique<Isolate>(S.Set->WP.P,
                                              vmOptions(W.Exec, W.Async)));
  uint64_t T2 = nowNs();
  for (auto &VM : S.VMs)
    VM->call(S.Set->WP.Setup, {});
  uint64_t T3 = nowNs();
  if (O.trace()) {
    Spans.push_back({"build_program", 0, T0, T1, newSpanId(), SetupId, ""});
    Spans.push_back({"create_isolates", 0, T1, T2, newSpanId(), SetupId, ""});
    Spans.push_back({"guest_setup", 0, T2, T3, newSpanId(), SetupId, ""});
  }
  std::vector<const BenchmarkRow *> Rows;
  for (const std::string &Name : W.Rows)
    Rows.push_back(S.Set->find(Name));
  // One app thread per isolate warms it, as the window will run it.
  if (S.VMs.size() == 1) {
    warmup(*S.VMs[0], Rows, W.ScaleDivisor, 0, O.trace(), SetupId, Spans);
  } else {
    std::vector<std::vector<Span>> PerThread(S.VMs.size());
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != S.VMs.size(); ++I)
      Threads.emplace_back([&, I] {
        warmup(*S.VMs[I], Rows, W.ScaleDivisor, I + 1, O.trace(), SetupId,
               PerThread[I]);
      });
    for (std::thread &T : Threads)
      T.join();
    for (auto &V : PerThread)
      Spans.insert(Spans.end(), V.begin(), V.end());
  }
  S.Ns = nowNs() - T0;
  if (O.trace())
    Spans.push_back({"setup", 0, T0, T0 + S.Ns, SetupId, 0, ""});

  for (auto &VM : S.VMs) {
    S.InterpOps += VM->runtime().metrics().InterpretedOps;
    S.StallNs += VM->jitMetrics().MutatorStallNanos;
    harvest(S, *VM);
  }
  for (const BenchmarkRow *Row : Rows)
    for (int64_t Num : ScaleNum)
      S.Inputs.push_back(
          {Row, Row->Scale / W.ScaleDivisor * Num / ScaleDen});
  return S;
}

/// One app thread's share of the window.
void runWindow(Isolate &VM, const std::vector<Input> &Inputs, uint64_t Seed,
               unsigned Tid, uint64_t DeadlineNs, uint64_t MinOps, bool Trace,
               uint64_t WindowSpan, ThreadWindow &Out) {
  runRounds(Inputs.size(), Seed * 1000003 + Tid, DeadlineNs, MinOps, Trace,
            Out.Log, [&](uint32_t I, bool Traced) {
              const Input &In = Inputs[I];
              Counters C0;
              if (Traced)
                C0 = readCounters(VM);
              uint64_t T0 = nowNs();
              int64_t Res =
                  VM.call(In.Row->Driver, {Value::makeInt(In.Scale)}).asInt();
              uint64_t T1 = nowNs();
              Out.Ops.push_back({I, Res});
              if (Traced) {
                Counters C1 = readCounters(VM, &C0);
                uint64_t Waits = (C1.GcPauseNs - C0.GcPauseNs) +
                                 (C1.StallNs - C0.StallNs);
                Out.TracedExecNs += T1 - T0 > Waits ? T1 - T0 - Waits : 0;
                Out.Spans.push_back(
                    {"op", Tid, T0, T1, newSpanId(), WindowSpan,
                     ", \"row\": " + jsonStr(In.Row->Name) +
                         ", \"scale\": " + std::to_string(In.Scale) +
                         counterArgs(C0, C1)});
              }
              return T1 - T0;
            });
  Out.EndNs = nowNs();
}

/// Per-method compile-log facts of one isolate.
struct LogFacts {
  std::vector<uint64_t> InstallNs, EmitNs;
  uint64_t Records = 0, NodesOut = 0;
  std::vector<unsigned> Installs; ///< installed records per method
};

LogFacts readLog(Isolate &VM) {
  LogFacts F;
  unsigned N = VM.runtime().program().numMethods();
  F.Installs.resize(N);
  for (unsigned M = 0; M != N; ++M)
    for (const CompileLog::Record &Rec : VM.compileLog().recordsFor(M)) {
      ++F.Records;
      F.NodesOut += Rec.FinalNodes;
      if (!Rec.Installed)
        continue;
      ++F.Installs[M];
      F.InstallNs.push_back(Rec.EnqueueToInstallNanos);
      if (Rec.NativeBytes)
        F.EmitNs.push_back(Rec.NativeEmitNanos);
    }
  return F;
}

Result runExec(const ExecWorkload &W, const Options &O, uint64_t Origin) {
  Result R;
  std::vector<Span> Spans;
  ExecSetup S;
  for (unsigned I = 0; I != O.Setups; ++I) {
    S.VMs.clear(); // the isolates go before the program they run
    S = setupExec(W, O, Spans);
    R.SetupSeconds.push_back(S.Ns / 1e9);
  }

  // Installs before the window, to count the window's recompiles.
  std::vector<LogFacts> Before;
  for (auto &VM : S.VMs) {
    Before.push_back(readLog(*VM));
    VM->resetMetrics();
  }

  std::vector<ThreadWindow> Threads(S.VMs.size());
  uint64_t WindowSpan = newSpanId();
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  uint64_t MinOpsPerThread = (O.MinOps + S.VMs.size() - 1) / S.VMs.size();
  if (S.VMs.size() == 1) {
    runWindow(*S.VMs[0], S.Inputs, O.Seed, 0, Deadline, MinOpsPerThread,
              O.trace(), WindowSpan, Threads[0]);
  } else {
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I != S.VMs.size(); ++I)
      Ts.emplace_back([&, I] {
        runWindow(*S.VMs[I], S.Inputs, O.Seed, I + 1, Deadline,
                  MinOpsPerThread, O.trace(), WindowSpan, Threads[I]);
      });
    for (std::thread &T : Ts)
      T.join();
  }
  uint64_t End = 0;
  for (const ThreadWindow &T : Threads)
    End = std::max(End, T.EndNs);
  for (auto &VM : S.VMs)
    VM->waitForCompilerIdle();
  double PeakRss = peakRssMb();
  if (O.trace())
    Spans.push_back({"window", 0, Start, End, WindowSpan, 0, ""});

  // Window counters, summed over isolates.
  uint64_t Allocs = 0, Bytes = 0, Monitors = 0, Interp = 0, Compiled = 0,
           Deopts = 0, Invalidations = 0, Recompiles = 0, CodeBytes = 0,
           CodeMethods = 0, Scavenges = 0, FullGcs = 0, Promoted = 0,
           Cards = 0;
  std::vector<uint64_t> Pauses;
  unsigned GcWorkers = 0;
  LogFacts All;
  for (unsigned V = 0; V != S.VMs.size(); ++V) {
    Isolate &VM = *S.VMs[V];
    const Runtime &RT = VM.runtime();
    Allocs += RT.heap().allocationCount();
    Bytes += RT.heap().allocatedBytes();
    Monitors += RT.metrics().MonitorOps;
    Interp += RT.metrics().InterpretedOps;
    Compiled += RT.metrics().CompiledOps;
    Deopts += RT.metrics().Deopts;
    Invalidations += VM.jitMetrics().Invalidations;
    Scavenges += RT.heap().scavenges();
    FullGcs += RT.heap().fullGcs();
    Promoted += RT.heap().bytesPromoted();
    Cards += RT.heap().cardsScanned();
    GcWorkers = std::max(GcWorkers, RT.heap().lastGcWorkers());
    for (const auto &G : RT.heap().gcRecords())
      Pauses.push_back(G.PauseNanos);
    harvest(S, VM);
    for (unsigned M = 0; M != RT.program().numMethods(); ++M)
      if (const NativeCode *N = VM.compiledNative(M)) {
        CodeBytes += N->codeSize();
        ++CodeMethods;
      }
    LogFacts F = readLog(VM);
    for (unsigned M = 0; M != F.Installs.size(); ++M)
      if (F.Installs[M] > Before[V].Installs[M])
        Recompiles +=
            F.Installs[M] - std::max(Before[V].Installs[M], 1u);
    All.InstallNs.insert(All.InstallNs.end(), F.InstallNs.begin(),
                         F.InstallNs.end());
    All.EmitNs.insert(All.EmitNs.end(), F.EmitNs.begin(), F.EmitNs.end());
    All.Records += F.Records;
    All.NodesOut += F.NodesOut;
  }

  std::vector<const RoundLog *> Logs;
  uint64_t OpNsSum = 0, TracedOps = 0, TracedExecNs = 0;
  for (ThreadWindow &T : Threads) {
    Logs.push_back(&T.Log);
    OpNsSum += std::accumulate(T.Log.OpNs.begin(), T.Log.OpNs.end(),
                               uint64_t(0));
    R.Attempted += T.Ops.size();
    TracedOps += T.Log.TracedOps;
    TracedExecNs += T.TracedExecNs;
    Spans.insert(Spans.end(), T.Spans.begin(), T.Spans.end());
  }
  double Ops = static_cast<double>(R.Attempted);

  // The reference: every distinct input once on an interpreter-only
  // isolate, after the window and after peak RSS was read.
  std::vector<int64_t> Expected(S.Inputs.size());
  uint64_t RefNs = 0, RefBytecodes = 0;
  {
    uint64_t T0 = nowNs();
    VMOptions VO = vmOptions(W.Exec, false);
    VO.EnableJit = false;
    Isolate Ref(S.Set->WP.P, VO);
    Ref.call(S.Set->WP.Setup, {});
    Ref.resetMetrics();
    for (size_t I = 0; I != S.Inputs.size(); ++I) {
      uint64_t C0 = nowNs();
      Expected[I] = Ref.call(S.Inputs[I].Row->Driver,
                             {Value::makeInt(S.Inputs[I].Scale)})
                        .asInt();
      RefNs += nowNs() - C0;
    }
    RefBytecodes = Ref.runtime().metrics().InterpretedOps;
    if (O.trace())
      Spans.push_back({"oracle", 0, T0, nowNs(), newSpanId(), 0, ""});
  }
  uint64_t OpIndex = 0;
  for (const ThreadWindow &T : Threads)
    for (const OpRecord &Op : T.Ops) {
      if (Op.Result != Expected[Op.Input]) {
        const Input &In = S.Inputs[Op.Input];
        R.fail("op " + std::to_string(OpIndex) + ": " + In.Row->Name + "(" +
               std::to_string(In.Scale) + ") returned " +
               std::to_string(Op.Result) + ", interpreter returned " +
               std::to_string(Expected[Op.Input]));
      }
      ++OpIndex;
    }

  uint64_t PauseSum = std::accumulate(Pauses.begin(), Pauses.end(), 0ull);
  cutBlocks(Logs, R);
  R.e2e("allocs_per_op", ratio(Allocs, Ops), "1/op");
  R.e2e("kb_per_op", ratio(Bytes / 1024.0, Ops), "KiB/op");
  R.e2e("monitor_ops_per_op", ratio(Monitors, Ops), "1/op");
  R.e2e("code_kb", CodeBytes / 1024.0, "KiB");
  R.e2e("peak_rss_mb", PeakRss, "MiB");

  R.layer("interp.ns_per_bytecode", ratio(RefNs, RefBytecodes), "ns");
  R.layer("interp.bytecodes_setup", S.InterpOps, "count");
  S.Compile.Compiles = All.Records;
  S.Compile.NodesOut = All.NodesOut;
  S.Compile.EmitNs = All.EmitNs;
  S.Compile.report(R);
  R.layer("compiler.stall_ms", S.StallNs / 1e6, "ms");
  R.layer("spesh.plans", S.SpeshPlans, "count");
  R.layer("spesh.guard_failures", S.SpeshGuardFailures, "count");
  R.layer("spesh.osr_entries", S.OsrEntries, "count");
  R.layer("vm.compiled_ops_per_op", ratio(Compiled, Ops), "1/op");
  R.layer("vm.compiled_op_share", ratio(Compiled, Compiled + Interp), "ratio");
  R.layer("vm.exec_ms_per_op", ratio(TracedExecNs / 1e6, TracedOps), "ms");
  R.layer("vm.deopts", ratio(Deopts, Ops), "1/op");
  R.layer("vm.invalidations", ratio(Invalidations, Ops), "1/op");
  R.layer("vm.recompiles", ratio(Recompiles, Ops), "1/op");
  R.layer("vm.install_ms_p50", percentile(All.InstallNs, 0.5) / 1e6, "ms");
  R.layer("vm.install_ms_max", percentile(All.InstallNs, 1.0) / 1e6, "ms");
  R.layer("vm.broker_queue_hw", S.QueueHw, "count");
  R.Samples.push_back({"vm.install_ms", All.InstallNs.size()});
  R.layer("jit.native_methods", CodeMethods, "count");
  R.layer("jit.native_fallbacks", S.NativeFallbacks, "count");
  R.layer("jit.code_bytes_per_method", ratio(CodeBytes, CodeMethods), "B");
  R.layer("memory.scavenges", ratio(Scavenges * 1000.0, Ops), "1/kop");
  R.layer("memory.full_gcs", ratio(FullGcs * 1000.0, Ops), "1/kop");
  R.layer("memory.bytes_promoted", ratio(Promoted, Ops), "B/op");
  R.layer("memory.cards_scanned", ratio(Cards, Ops), "1/op");
  R.layer("memory.gc_pause_ms_p50", percentile(Pauses, 0.5) / 1e6, "ms");
  R.layer("memory.gc_pause_ms_max", percentile(Pauses, 1.0) / 1e6, "ms");
  R.layer("memory.gc_share_pct", 100 * ratio(PauseSum, OpNsSum), "%");
  R.Samples.push_back({"memory.gc_pause_ms", Pauses.size()});
  R.layer("trace.overhead_pct", traceOverheadPct(Logs), "%");

  R.Header.push_back({"tier", jsonStr(execModeName(W.Exec))});
  R.Header.push_back({"isolates", std::to_string(S.VMs.size())});
  R.Header.push_back(
      {"broker_threads",
       W.Async ? std::to_string(CompileBroker::process().numThreads()) : "0"});
  R.Header.push_back({"gc_workers_max_seen", std::to_string(GcWorkers)});
  R.Header.push_back(
      {"gc_workers_config",
       std::to_string(S.VMs[0]->runtime().heap().config().GcWorkers)});
  if (O.trace() && !writeTrace(O.TracePath, Spans, Origin))
    R.TraceError = "cannot write " + O.TracePath;
  return R;
}

//===----------------------------------------------------------------------===//
// The compile workload
//===----------------------------------------------------------------------===//

/// Fingerprint of a method's linear code: how often each opcode occurs,
/// the constant pool as a set, and the size of every side table. Order
/// and register operands are left out: repeat compiles of methods with
/// inlined callees schedule independent instructions in a different
/// order and number registers differently. Native bytes are left out
/// too: they embed per-emission absolute addresses (the NativeCode
/// object and its phi scratch buffer), so only their length repeats.
uint64_t linearShape(const LinearCode &L) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  std::vector<uint64_t> Ops;
  for (const LInst &I : L.Insts)
    Ops.push_back(static_cast<uint64_t>(I.Op) | uint64_t(I.Sub) << 8);
  std::vector<int64_t> Pool = L.IntPool;
  std::sort(Ops.begin(), Ops.end());
  std::sort(Pool.begin(), Pool.end());
  for (uint64_t Op : Ops)
    Mix(Op);
  for (int64_t V : Pool)
    Mix(static_cast<uint64_t>(V));
  for (size_t N : {L.Moves.size(), L.Calls.size(), L.Slots.size(),
                   L.Objects.size(), L.Mats.size(), L.Frames.size(),
                   L.Deopts.size(), size_t(L.numRegs())})
    Mix(N);
  return H;
}

/// What a compile leaves in the code: allocation sites (explicit
/// allocations plus objects committed by materializations), their
/// minimum size, and monitor operations. The compile workload's analog
/// of the paper's per-iteration allocation and lock counts.
struct StaticAllocs {
  uint64_t Allocs = 0, Bytes = 0, Monitors = 0;
};

StaticAllocs staticAllocs(const LinearCode &L, const Program &P) {
  StaticAllocs S;
  auto InstanceBytes = [&P](ClassId C) {
    return HeapObject::allocationSize(P.classAt(C).Fields.size());
  };
  for (const LInst &I : L.Insts) {
    switch (I.Op) {
    case LOp::NewInstance:
      ++S.Allocs;
      S.Bytes += InstanceBytes(static_cast<ClassId>(I.A));
      break;
    case LOp::NewArray: // length is dynamic: count the header only
      ++S.Allocs;
      S.Bytes += HeapObject::allocationSize(0);
      break;
    case LOp::Materialize: {
      const LinearCode::MatDesc &M = L.Mats[I.A];
      for (uint32_t K = 0; K != M.NumObjs; ++K) {
        const LinearCode::ObjTemplate &T = L.Objects[M.FirstObj + K];
        ++S.Allocs;
        S.Bytes += T.IsArray ? HeapObject::allocationSize(T.NumEntries)
                             : InstanceBytes(T.Cls);
      }
      break;
    }
    case LOp::MonitorEnter:
    case LOp::MonitorExit:
      ++S.Monitors;
      break;
    default:
      break;
    }
  }
  return S;
}

struct CompileSetup {
  std::unique_ptr<BenchmarkSet> Set;
  std::unique_ptr<Isolate> VM;
  std::vector<MethodId> Hot;
  std::vector<ProfileSnapshot> Snapshots;
  uint64_t Ns = 0, InterpOps = 0, StallNs = 0;
};

CompileSetup setupCompile(const Options &O, std::vector<Span> &Spans) {
  CompileSetup S;
  uint64_t T0 = nowNs();
  uint64_t SetupId = newSpanId();
  S.Set = std::make_unique<BenchmarkSet>(buildBenchmarkSet());
  uint64_t T1 = nowNs();
  S.VM = std::make_unique<Isolate>(S.Set->WP.P,
                                   vmOptions(ExecMode::Linear, false));
  uint64_t T2 = nowNs();
  S.VM->call(S.Set->WP.Setup, {});
  uint64_t T3 = nowNs();
  std::vector<const BenchmarkRow *> Rows;
  for (const BenchmarkRow &Row : S.Set->Rows)
    Rows.push_back(&Row);
  warmup(*S.VM, Rows, 1, 0, O.trace(), SetupId, Spans);
  uint64_t T4 = nowNs();
  const Program &P = S.Set->WP.P;
  for (unsigned M = 0; M != P.numMethods(); ++M)
    if (S.VM->compiledGraph(M)) {
      S.Hot.push_back(M);
      S.Snapshots.emplace_back(S.VM->profiles(), P, M);
    }
  uint64_t T5 = nowNs();
  S.Ns = T5 - T0;
  S.InterpOps = S.VM->runtime().metrics().InterpretedOps;
  S.StallNs = S.VM->jitMetrics().MutatorStallNanos;
  if (O.trace()) {
    Spans.push_back({"setup", 0, T0, T5, SetupId, 0, ""});
    Spans.push_back({"build_program", 0, T0, T1, newSpanId(), SetupId, ""});
    Spans.push_back({"create_isolates", 0, T1, T2, newSpanId(), SetupId, ""});
    Spans.push_back({"guest_setup", 0, T2, T3, newSpanId(), SetupId, ""});
    Spans.push_back({"snapshot_profiles", 0, T4, T5, newSpanId(), SetupId, ""});
  }
  return S;
}

/// One compile op's output, kept for the repeat-compile check.
struct CompileOp {
  uint32_t Method; ///< index into CompileSetup::Hot
  uint64_t Shape;
  uint64_t NativeBytes; ///< 0: the emitter fell back to linear
};

Result runCompile(const Options &O, uint64_t Origin) {
  Result R;
  std::vector<Span> Spans;
  CompileSetup S;
  for (unsigned I = 0; I != O.Setups; ++I) {
    S.VM.reset(); // the isolate goes before the program it runs
    S = setupCompile(O, Spans);
    R.SetupSeconds.push_back(S.Ns / 1e9);
  }
  const Program &P = S.Set->WP.P;
  CompilerOptions CO = S.VM->options().Compiler;
  PhasePlan Plan = makeDefaultPhasePlan(CO);

  std::vector<CompileOp> Ops;
  RoundLog Log;
  CompileStats Stats;
  StaticAllocs Static;
  uint64_t Fallbacks = 0;
  uint64_t WindowSpan = newSpanId();
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  runRounds(S.Hot.size(), O.Seed * 1000003, Deadline, O.MinOps, O.trace(),
            Log, [&](uint32_t I, bool Traced) {
    MethodId M = S.Hot[I];
    uint64_t T0 = nowNs();
    CompileResult CR =
        runCompilePipeline(Plan, P, M, S.Snapshots[I], CO, S.VM->id());
    uint64_t T1 = nowNs();
    std::unique_ptr<NativeCode> N =
        CR.Code ? emitNativeCode(*CR.Code, CodeCache::process()) : nullptr;
    uint64_t T2 = nowNs();
    ++Stats.Compiles;
    Stats.Phases += CR.Phases;
    Stats.Escape += CR.Stats;
    Stats.FixpointCapHits += CR.FixpointCapHits;
    Stats.NodesOut += CR.G ? CR.G->numLiveNodes() : 0;
    CompileOp Op{I, 0, N ? N->codeSize() : 0};
    if (N)
      Stats.EmitNs.push_back(T2 - T1);
    else
      ++Fallbacks;
    if (CR.Code) {
      Op.Shape = linearShape(*CR.Code);
      StaticAllocs SA = staticAllocs(*CR.Code, P);
      Static.Allocs += SA.Allocs;
      Static.Bytes += SA.Bytes;
      Static.Monitors += SA.Monitors;
    }
    Ops.push_back(Op);
    if (Traced) {
      uint64_t OpId = newSpanId();
      std::string Method = ", \"method\": " + jsonStr(P.methodAt(M).Name);
      char Args[160];
      std::snprintf(Args, sizeof(Args),
                    ", \"nodes_out\": %u, \"linear_insts\": %u, "
                    "\"native_bytes\": %llu",
                    CR.G ? CR.G->numLiveNodes() : 0,
                    CR.Code ? CR.Code->numInsts() : 0,
                    (unsigned long long)Op.NativeBytes);
      Spans.push_back({"op", 0, T0, T2, OpId, WindowSpan, Method + Args});
      Spans.push_back({"pipeline", 0, T0, T1, newSpanId(), OpId, Method});
      Spans.push_back({"emit", 0, T1, T2, newSpanId(), OpId, Method});
    }
    return T2 - T0;
  });
  uint64_t End = nowNs();
  double PeakRss = peakRssMb();
  if (O.trace())
    Spans.push_back({"window", 0, Start, End, WindowSpan, 0, ""});

  // The reference: one more compile of every hot method. Every op must
  // have produced the same linear code and native length.
  std::vector<CompileOp> Ref;
  uint64_t CodeBytes = 0, CodeMethods = 0;
  uint64_t T0 = nowNs();
  for (uint32_t I = 0; I != S.Hot.size(); ++I) {
    CompileResult CR = runCompilePipeline(Plan, P, S.Hot[I], S.Snapshots[I],
                                          CO, S.VM->id());
    std::unique_ptr<NativeCode> N =
        CR.Code ? emitNativeCode(*CR.Code, CodeCache::process()) : nullptr;
    Ref.push_back({I, CR.Code ? linearShape(*CR.Code) : 0,
                   N ? N->codeSize() : 0});
    CodeBytes += Ref.back().NativeBytes;
    CodeMethods += N != nullptr;
  }
  if (O.trace())
    Spans.push_back({"oracle", 0, T0, nowNs(), newSpanId(), 0, ""});
  R.Attempted = Ops.size();
  for (size_t K = 0; K != Ops.size(); ++K) {
    const CompileOp &Op = Ops[K], &Want = Ref[Op.Method];
    std::string Where =
        "op " + std::to_string(K) + ": " + P.methodAt(S.Hot[Op.Method]).Name;
    if (Op.Shape != Want.Shape)
      R.fail(Where + ": linear code differs from its repeat compile");
    else if (Op.NativeBytes && Want.NativeBytes &&
             Op.NativeBytes != Want.NativeBytes)
      R.fail(Where + ": " + std::to_string(Op.NativeBytes) +
             " native bytes, repeat compile " +
             std::to_string(Want.NativeBytes));
  }

  double N = static_cast<double>(Ops.size());
  cutBlocks({&Log}, R);
  R.e2e("allocs_per_op", ratio(Static.Allocs, N), "1/op");
  R.e2e("kb_per_op", ratio(Static.Bytes / 1024.0, N), "KiB/op");
  R.e2e("monitor_ops_per_op", ratio(Static.Monitors, N), "1/op");
  R.e2e("code_kb", CodeBytes / 1024.0, "KiB");
  R.e2e("peak_rss_mb", PeakRss, "MiB");

  R.layer("interp.bytecodes_setup", S.InterpOps, "count");
  Stats.report(R);
  R.layer("compiler.stall_ms", S.StallNs / 1e6, "ms");
  R.layer("jit.native_methods", CodeMethods, "count");
  R.layer("jit.native_fallbacks", Fallbacks, "count");
  R.layer("jit.code_bytes_per_method", ratio(CodeBytes, CodeMethods), "B");
  R.layer("trace.overhead_pct", traceOverheadPct({&Log}), "%");
  // Nothing is interpreted, executed or collected in this window.
  static const char *Idle[][2] = {
      {"interp.ns_per_bytecode", "ns"},   {"spesh.plans", "count"},
      {"spesh.guard_failures", "count"},  {"spesh.osr_entries", "count"},
      {"vm.compiled_ops_per_op", "1/op"}, {"vm.compiled_op_share", "ratio"},
      {"vm.exec_ms_per_op", "ms"},        {"vm.deopts", "1/op"},
      {"vm.invalidations", "1/op"},       {"vm.recompiles", "1/op"},
      {"vm.install_ms_p50", "ms"},        {"vm.install_ms_max", "ms"},
      {"vm.broker_queue_hw", "count"},    {"memory.scavenges", "1/kop"},
      {"memory.full_gcs", "1/kop"},       {"memory.bytes_promoted", "B/op"},
      {"memory.cards_scanned", "1/op"},   {"memory.gc_pause_ms_p50", "ms"},
      {"memory.gc_pause_ms_max", "ms"},   {"memory.gc_share_pct", "%"}};
  for (const auto &M : Idle)
    R.layer(M[0], 0, M[1]);

  R.Header.push_back({"tier", jsonStr("compile-only")});
  R.Header.push_back({"isolates", "1"});
  R.Header.push_back({"broker_threads", "0"});
  R.Header.push_back({"hot_methods", std::to_string(S.Hot.size())});
  if (O.trace() && !writeTrace(O.TracePath, Spans, Origin))
    R.TraceError = "cannot write " + O.TracePath;
  return R;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "jvmbench: %s\nusage: jvmbench --workload "
               "{table1_pea,table1_flat,compile,tenants} [--seed N] "
               "[--seconds S] [--min-ops N] [--setups K] [--trace FILE]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (!(O.Seconds >= 0 && O.Seconds <= 3600))
        usage("--seconds must be within [0, 3600]");
    } else if (A == "--min-ops") {
      O.MinOps = std::strtoull(V, &End, 10);
    } else if (A == "--setups") {
      O.Setups = static_cast<unsigned>(std::strtoul(V, &End, 10));
      if (O.Setups == 0 || O.Setups > 100)
        usage("--setups must be within [1, 100]");
    } else if (A == "--trace") {
      O.TracePath = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
    if (End && *End)
      usage(("malformed value for " + A).c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Origin = nowNs();
  Options O = parseArgs(Argc, Argv);
  Result R;
  if (O.Workload == "compile") {
    R = runCompile(O, Origin);
  } else {
    const ExecWorkload *W = nullptr;
    for (const ExecWorkload &E : execWorkloads())
      if (O.Workload == E.Name)
        W = &E;
    if (!W)
      usage(("unknown workload " + O.Workload).c_str());
    R = runExec(*W, O, Origin);
  }
  R.Header.insert(R.Header.begin(),
                  {{"nproc", std::to_string(std::thread::hardware_concurrency())},
                   {"build_type", jsonStr(JVMBENCH_BUILD_TYPE)},
                   {"native_backend", nativeBackendSupported() ? "true" : "false"}});
  printResult(O.Workload, O.Seed, R);
  return R.Failed || !R.TraceError.empty() ? 1 : 0;
}
