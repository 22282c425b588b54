// Host-cost benchmark binary: runs one workload of the benchmark for a fixed
// time, checks every operation's outcome against a computation made apart
// from the tool (a closed form, the untooled reference run or the formal
// oracle), and prints one JSON document with the per-round samples. The
// wrapper perfbench/run.py builds this binary and turns the samples into the
// benchmark's metrics; perfbench/README.md documents the workloads.
//
//   wst_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   wst_perfbench --self-test
//
// Every stack runs on one thread, on the engine `wst run` uses by default
// (ParallelEngine with one worker; ServeServer with one thread).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <unordered_map>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/classifier.hpp"
#include "analysis/trace_program.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/interpreter.hpp"
#include "fuzz/oracle.hpp"
#include "mpi/config.hpp"
#include "mpi/runtime.hpp"
#include "must/harness.hpp"
#include "must/hybrid.hpp"
#include "must/recorder.hpp"
#include "must/serve.hpp"
#include "must/tool.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "support/rng.hpp"
#include "workloads/spec.hpp"
#include "workloads/stress.hpp"

#ifndef WST_BUILD_TYPE
#define WST_BUILD_TYPE "unknown"
#endif
#ifndef WST_COMPILER
#define WST_COMPILER "unknown"
#endif

namespace {

using namespace wst;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Inputs ------------------------------------------------------------------
//
// Every constant that shapes a workload lives here, so a change elsewhere in
// the repository cannot move a metric without changing the program.

/// Paper Fig. 9/12 application model: Sierra-like nodes of 12 ranks.
mpi::RuntimeConfig sierraRuntime() {
  mpi::RuntimeConfig cfg;
  cfg.ranksPerNode = 12;
  cfg.intraNodeLatency = 400;
  cfg.interNodeLatency = 1'800;
  cfg.eagerThreshold = 4096;
  cfg.bufferStandardSends = true;
  return cfg;
}

/// Paper Fig. 9/12 distributed tool cost model.
must::ToolConfig paperTool(std::int32_t fanIn) {
  must::ToolConfig cfg;
  cfg.fanIn = fanIn;
  cfg.newOpCost = 3'500;
  cfg.matchInfoCost = 1'000;
  cfg.intralayerCost = 9'000;
  cfg.collectiveMsgCost = 2'000;
  cfg.controlMsgCost = 1'000;
  cfg.appEventCost = 400;
  cfg.overlay.appToLeaf.credits = 64;
  cfg.overlay.treeUp.perByte = 16;
  cfg.overlay.treeDown.perByte = 16;
  return cfg;
}

constexpr std::int32_t kStressProcs = 4096;
constexpr std::int32_t kStressFanIn = 8;
constexpr std::int32_t kWildcardProcs = 2048;
constexpr std::int32_t kWildcardFanIn = 4;
constexpr std::uint64_t kServeFirstSeed = 1;
constexpr std::int32_t kServeSessions = 4096;
constexpr std::int32_t kServeCap = 64;
constexpr std::uint64_t kServeSlice = 4096;
constexpr std::int32_t kSpecProcs = 1024;
constexpr std::int32_t kSpecFanIn = 4;
constexpr std::int32_t kSpecIterations = 20;
constexpr std::int32_t kSpecCredits = 16;
/// Set-up-only repetitions per round on the workloads whose set-up takes
/// milliseconds: one sample per round would not be steady.
constexpr int kExtraSetups = 24;

workloads::StressParams stressParams() {
  workloads::StressParams params;
  params.iterations = 50;
  params.bytes = 4;
  params.barrierEvery = 10;
  params.neighborDistance = 1;
  return params;
}

/// A plain `wst run --workload wildcard --procs 2048 --fanin 4`.
must::ToolConfig wildcardTool() {
  must::ToolConfig cfg;
  cfg.fanIn = kWildcardFanIn;
  return cfg;
}

mpi::RuntimeConfig specRuntime() {
  mpi::RuntimeConfig cfg = sierraRuntime();
  cfg.unexpectedScanPenalty = 500;
  cfg.eagerQueueLimit = 32;
  return cfg;
}

must::ToolConfig specTool() {
  must::ToolConfig cfg = paperTool(kSpecFanIn);
  cfg.overlay.appToLeaf.credits = kSpecCredits;
  return cfg;
}

workloads::SpecScale specScale(std::int32_t procs) {
  workloads::SpecScale scale;
  scale.iterations = kSpecIterations;
  scale.computeScale = 256.0 / procs;
  return scale;
}

/// The session configuration of `wst serve` for one fuzz scenario.
must::SessionSpec serveSession(
    const std::shared_ptr<const fuzz::Scenario>& scenario, int injectBug) {
  must::SessionSpec spec;
  spec.name = "s" + std::to_string(scenario->seed);
  spec.procs = scenario->procs;
  spec.mpiConfig.ranksPerNode = 2;
  spec.tool.fanIn = scenario->fanIn;
  spec.tool.appEventCost = 0;
  spec.tool.overlay.appToLeaf.credits = 0;
  spec.tool.detectOnQuiescence = true;
  spec.tool.periodicDetection = scenario->periodic;
  spec.tool.detectionJitter = scenario->detectionJitter;
  spec.tool.detectionJitterSeed = scenario->seed + 1;
  spec.tool.maxPeriodicRounds = 64;
  spec.tool.consumedHistory = scenario->consumedHistory;
  spec.tool.overlay.intralayer.latency = scenario->latIntra;
  spec.tool.overlay.treeUp.latency = scenario->latUp;
  spec.tool.overlay.treeDown.latency = scenario->latDown;
  spec.tool.injectBug = injectBug;
  spec.program = fuzz::scenarioProgram(scenario);
  return spec;
}

// --- Checks ------------------------------------------------------------------
//
// Each returns an empty string when the outcome is right, else what is wrong.

/// MPI calls of the cyclic exchange, counted from its definition: per rank,
/// one Sendrecv per iteration, one Barrier every `barrierEvery` iterations,
/// and MPI_Finalize.
std::uint64_t stressCalls(const workloads::StressParams& params,
                          std::int32_t procs) {
  const std::uint64_t barriers =
      params.barrierEvery > 0
          ? static_cast<std::uint64_t>(params.iterations / params.barrierEvery)
          : 0;
  return static_cast<std::uint64_t>(procs) *
         (static_cast<std::uint64_t>(params.iterations) + barriers + 1);
}

std::string checkStress(const must::HarnessResult& r,
                        std::uint64_t expectedCalls) {
  if (r.deadlockReported) return "stress: deadlock reported";
  if (!r.allFinalized) return "stress: not every rank finalized";
  if (r.appCalls != expectedCalls) {
    return "stress: " + std::to_string(r.appCalls) +
           " MPI calls, closed form " + std::to_string(expectedCalls);
  }
  return {};
}

std::string checkWildcard(const must::HarnessResult& r, std::int32_t procs) {
  if (!r.deadlockReported || !r.report) return "wildcard: no deadlock reported";
  std::vector<trace::ProcId> got = r.report->check.deadlocked;
  std::sort(got.begin(), got.end());
  std::vector<trace::ProcId> all(static_cast<std::size_t>(procs));
  std::iota(all.begin(), all.end(), 0);
  if (got != all) return "wildcard: deadlocked set is not every rank";
  const std::uint64_t arcs = static_cast<std::uint64_t>(procs) *
                             static_cast<std::uint64_t>(procs - 1);
  if (r.report->check.arcCount != arcs) {
    return "wildcard: " + std::to_string(r.report->check.arcCount) +
           " arcs, expected p(p-1) = " + std::to_string(arcs);
  }
  return {};
}

/// 126.lammps must report its send-send deadlock; every other app is clean,
/// finalizes, and makes as many MPI calls as its untooled reference run.
std::string checkSpec(const workloads::SpecApp& app,
                      const must::HarnessResult& r,
                      const must::HarnessResult& reference) {
  const std::string name = app.name;
  if (name == "126.lammps") {
    if (!r.deadlockReported) return name + ": send-send deadlock not reported";
    return {};
  }
  if (r.deadlockReported) return name + ": deadlock reported";
  if (!r.allFinalized) return name + ": not every rank finalized";
  if (r.appCalls != reference.appCalls) {
    return name + ": " + std::to_string(r.appCalls) +
           " MPI calls, reference run made " +
           std::to_string(reference.appCalls);
  }
  return {};
}

std::string checkSession(const must::SessionResult& r,
                         const fuzz::Outcome& formal) {
  if (!r.completed) return r.name + ": session did not complete";
  if (r.deadlock != formal.deadlock) {
    return r.name + ": verdict " + (r.deadlock ? "deadlock" : "clean") +
           ", formal oracle says " + (formal.deadlock ? "deadlock" : "clean");
  }
  return {};
}

std::string checkHash(const std::string& what, std::uint64_t first,
                      std::uint64_t now) {
  if (first == now) return {};
  return what + ": engine trace hash changed between repetitions";
}

// --- Samples and spans -------------------------------------------------------

/// One round: every operation of the workload once.
struct Round {
  double setupS = 0.0;
  double wallS = 0.0;
  /// Process CPU time of the round; below wallS when the host descheduled
  /// the benchmark.
  double cpuS = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  bool traced = false;
  /// Per-layer values (traced rounds only).
  std::map<std::string, double> layers;
};

/// Spans and counts taken around the calls into each layer. Null = untraced.
struct Layers {
  std::map<std::string, double> values;
  void add(const std::string& name, double v) { values[name] += v; }
  void max(const std::string& name, double v) {
    values[name] = std::max(values[name], v);
  }
};

void addToolCounts(Layers& layers, const must::HarnessResult& r,
                   must::DistributedTool& tool, double runS) {
  layers.add("must.run_s", runS);
  layers.add("sim.events", static_cast<double>(r.eventsExecuted));
  layers.add("waitstate.transitions", static_cast<double>(r.transitions));
  layers.max("waitstate.max_window", static_cast<double>(r.maxWindow));
  layers.add("waitstate.consumed_evictions",
             static_cast<double>(
                 tool.metrics().counter("tracker/consumed_evictions").value()));
  layers.add("waitstate.consumed_pinned",
             static_cast<double>(
                 tool.metrics().counter("tracker/consumed_pinned").value()));
  layers.add("tbon.messages", static_cast<double>(r.toolMessages));
  layers.add("tbon.channel_messages", static_cast<double>(r.channelMessages));
  layers.max("tbon.max_queue_depth", static_cast<double>(r.maxQueueDepth));
  if (r.report) {
    const wfg::DetectionTimes& t = r.report->times;
    layers.add("wfg.arcs", static_cast<double>(r.report->check.arcCount));
    layers.add("wfg.build_s", static_cast<double>(t.graphBuildNs) / 1e9);
    layers.add("wfg.check_s", static_cast<double>(t.deadlockCheckNs) / 1e9);
    layers.add("wfg.output_s", static_cast<double>(t.outputGenerationNs) / 1e9);
  }
}

// --- One tooled run ----------------------------------------------------------

/// Engine, runtime and tool of one `wst run`, destroyed in reverse order.
struct Stack {
  sim::ParallelEngine engine{1};
  mpi::Runtime runtime;
  must::DistributedTool tool;
  Stack(std::int32_t procs, const mpi::RuntimeConfig& mpiCfg,
        const must::ToolConfig& toolCfg)
      : runtime(engine, mpiCfg, procs), tool(engine, runtime, toolCfg) {}
};

struct ToolRun {
  double setupS = 0.0;
  double wallS = 0.0;
  must::HarnessResult result;
};

/// Set up (construct and start) on one clock, then run to the verdict, report
/// included, on another.
ToolRun runTooled(std::int32_t procs, const mpi::RuntimeConfig& mpiCfg,
                  const must::ToolConfig& toolCfg,
                  const mpi::Runtime::Program& program, Layers* layers) {
  ToolRun out;
  const auto t0 = Clock::now();
  auto stack = std::make_unique<Stack>(procs, mpiCfg, toolCfg);
  stack->runtime.start(program);
  out.setupS = secondsSince(t0);
  const auto t1 = Clock::now();
  stack->engine.run();
  stack->tool.attachTelemetryToReport();
  out.wallS = secondsSince(t1);
  out.result = must::collectToolResult(stack->engine, stack->runtime,
                                       stack->tool);
  if (layers != nullptr) {
    addToolCounts(*layers, out.result, stack->tool, out.wallS);
  }
  return out;
}

/// Set-up only: construct and start a stack, then tear it down unrun.
double stackSetupOnly(std::int32_t procs, const mpi::RuntimeConfig& mpiCfg,
                      const must::ToolConfig& toolCfg,
                      const mpi::Runtime::Program& program) {
  const auto t0 = Clock::now();
  auto stack = std::make_unique<Stack>(procs, mpiCfg, toolCfg);
  stack->runtime.start(program);
  return secondsSince(t0);
}

/// Untooled reference run, timed as the mpi layer's span.
must::HarnessResult reference(std::int32_t procs,
                              const mpi::RuntimeConfig& mpiCfg,
                              const mpi::Runtime::Program& program,
                              double& seconds) {
  const auto t0 = Clock::now();
  must::HarnessResult r = must::runReference(procs, mpiCfg, program);
  seconds += secondsSince(t0);
  return r;
}

// --- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed: references and oracle verdicts the rounds are checked against.
  virtual void prepare(std::uint64_t seed) = 0;
  /// One round; `layers` is null in untraced rounds.
  virtual Round round(Layers* layers) = 0;
  /// Tooled over untooled virtual completion time.
  virtual double virtualSlowdown() const = 0;
  /// Host time of one round's set-up alone, torn down unrun; nullopt where
  /// set-up is too costly to repeat beside the rounds.
  virtual std::optional<double> setupOnly() { return std::nullopt; }

  std::vector<std::string> errors;
  /// Host time of the untooled reference runs made in prepare().
  double referenceS = 0.0;

 protected:
  void fail(Round& r, const std::string& error) {
    if (error.empty()) return;
    ++r.failed;
    if (errors.size() < 16) errors.push_back(error);
  }
  /// First-round trace hash per operation; later rounds must repeat it.
  void hashCheck(Round& r, std::size_t op, const std::string& what,
                 std::uint64_t hash) {
    if (firstHash_.size() <= op) firstHash_.resize(op + 1, std::nullopt);
    if (!firstHash_[op]) {
      firstHash_[op] = hash;
      return;
    }
    fail(r, checkHash(what, *firstHash_[op], hash));
  }

 private:
  std::vector<std::optional<std::uint64_t>> firstHash_;
};

/// One tooled run per round (stress_p4096, wildcard_p2048).
class SingleRunWorkload final : public Workload {
 public:
  using Check = std::function<std::string(const must::HarnessResult&)>;

  SingleRunWorkload(std::string name, std::int32_t procs,
                    mpi::RuntimeConfig mpiCfg, must::ToolConfig toolCfg,
                    mpi::Runtime::Program program, Check check)
      : name_(std::move(name)),
        procs_(procs),
        mpiCfg_(mpiCfg),
        toolCfg_(std::move(toolCfg)),
        program_(std::move(program)),
        check_(std::move(check)) {}

  void prepare(std::uint64_t) override {
    ref_ = reference(procs_, mpiCfg_, program_, referenceS);
  }

  Round round(Layers* layers) override {
    Round r;
    const ToolRun run = runTooled(procs_, mpiCfg_, toolCfg_, program_, layers);
    r.setupS = run.setupS;
    r.wallS = run.wallS;
    r.calls = run.result.appCalls;
    r.ops = 1;
    fail(r, check_(run.result));
    hashCheck(r, 0, name_, run.result.traceHash);
    slowdown_ = run.result.slowdownOver(ref_);
    return r;
  }

  double virtualSlowdown() const override { return slowdown_; }

  std::optional<double> setupOnly() override {
    return stackSetupOnly(procs_, mpiCfg_, toolCfg_, program_);
  }

 private:
  std::string name_;
  std::int32_t procs_;
  mpi::RuntimeConfig mpiCfg_;
  must::ToolConfig toolCfg_;
  mpi::Runtime::Program program_;
  Check check_;
  must::HarnessResult ref_;
  double slowdown_ = 0.0;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::int32_t sessions = kServeSessions,
                         int injectBug = 0)
      : sessions_(sessions), injectBug_(injectBug) {}

  void prepare(std::uint64_t seed) override {
    // The seed orders the submissions; the scenarios are fixed.
    order_.resize(static_cast<std::size_t>(sessions_));
    std::iota(order_.begin(), order_.end(), 0);
    support::Rng rng(seed);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
    mpi::RuntimeConfig mpiCfg;
    mpiCfg.ranksPerNode = 2;
    for (std::int32_t i = 0; i < sessions_; ++i) {
      const fuzz::Scenario sc = fuzz::makeScenario(kServeFirstSeed + i);
      formal_.push_back(fuzz::runFormalOracle(sc));
      refs_.push_back(reference(
          sc.procs, mpiCfg,
          fuzz::scenarioProgram(std::make_shared<const fuzz::Scenario>(sc)),
          referenceS));
    }
  }

  Round round(Layers* layers) override {
    Round r;
    const auto t0 = Clock::now();
    Batch batch = setUp();
    r.setupS = secondsSince(t0);
    const std::vector<std::shared_ptr<const fuzz::Scenario>>& scenarios =
        batch.scenarios;
    must::ServeServer& server = *batch.server;
    const auto t1 = Clock::now();
    server.run();
    r.wallS = secondsSince(t1);

    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      index["s" + std::to_string(scenarios[i]->seed)] = i;
    }
    r.ops = order_.size();
    std::uint64_t events = 0;
    double tooledTime = 0.0;
    double refTime = 0.0;
    std::vector<bool> seen(scenarios.size(), false);
    for (const must::SessionResult& s : server.results()) {
      const auto it = index.find(s.name);
      if (it == index.end() || seen[it->second]) {
        fail(r, s.name + ": unknown or repeated session result");
        continue;
      }
      seen[it->second] = true;
      r.calls += refs_[it->second].appCalls;
      events += s.eventsExecuted;
      tooledTime += static_cast<double>(s.completionTime);
      refTime += static_cast<double>(refs_[it->second].completionTime);
      fail(r, checkSession(s, formal_[it->second]));
      hashCheck(r, it->second, s.name, s.traceHash);
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (!seen[i]) fail(r, "s" + std::to_string(i + 1) + ": no result");
    }
    slowdown_ = refTime > 0 ? tooledTime / refTime : 0.0;

    if (layers != nullptr) {
      layers->add("fuzz.generate_s", batch.generateS);
      layers->add("must.run_s", r.wallS);
      layers->add("sim.events", static_cast<double>(events));
      layers->add("serve.rounds", static_cast<double>(server.roundsRun()));
      for (const must::SessionResult& s : server.results()) {
        replaySolo(*layers, r, scenarios[index[s.name]], s);
      }
    }
    return r;
  }

  double virtualSlowdown() const override { return slowdown_; }

  std::optional<double> setupOnly() override {
    const auto t0 = Clock::now();
    setUp();
    return secondsSince(t0);
  }

 private:
  /// The closed batch of one round: every scenario generated and every
  /// session queued at start.
  struct Batch {
    std::vector<std::shared_ptr<const fuzz::Scenario>> scenarios;
    std::unique_ptr<must::ServeServer> server;
    double generateS = 0.0;
  };

  Batch setUp() const {
    Batch b;
    const auto t0 = Clock::now();
    b.scenarios.resize(order_.size());
    for (const std::size_t i : order_) {
      b.scenarios[i] = std::make_shared<const fuzz::Scenario>(
          fuzz::makeScenario(kServeFirstSeed + i));
    }
    b.generateS = secondsSince(t0);
    must::ServeServer::Config cfg;
    cfg.threads = 1;
    cfg.sessionCap = kServeCap;
    cfg.sliceEvents = kServeSlice;
    b.server = std::make_unique<must::ServeServer>(cfg);
    for (const std::size_t i : order_) {
      b.server->submit(serveSession(b.scenarios[i], injectBug_));
    }
    return b;
  }

  /// The served stacks are private to ServeServer, so the traced round
  /// replays each session alone (byte-identical by serve's determinism
  /// contract, checked through the trace hash) to read the tool's counters
  /// and time the terminal wait-for-graph steps serve performs.
  void replaySolo(Layers& layers, Round& r,
                  const std::shared_ptr<const fuzz::Scenario>& scenario,
                  const must::SessionResult& served) {
    const must::SessionSpec spec = serveSession(scenario, injectBug_);
    sim::Engine engine;
    mpi::Runtime runtime(engine, spec.mpiConfig, spec.procs);
    must::DistributedTool tool(engine, runtime, spec.tool);
    runtime.runToCompletion(spec.program);
    const must::HarnessResult h =
        must::collectToolResult(engine, runtime, tool);
    Layers counts;
    addToolCounts(counts, h, tool, 0.0);
    for (const auto& [name, v] : counts.values) {
      if (name == "waitstate.max_window" || name == "tbon.max_queue_depth") {
        layers.max(name, v);
      } else if (name != "must.run_s" && name != "sim.events") {
        layers.add(name, v);
      }
    }
    auto t = Clock::now();
    wfg::WaitForGraph graph(runtime.procCount());
    for (trace::ProcId p = 0; p < runtime.procCount(); ++p) {
      graph.setNode(
          tool.tracker(tool.topology().nodeOfProc(p)).waitConditions(p));
    }
    graph.pruneCollectiveCoWaiters();
    layers.add("wfg.build_s", secondsSince(t));
    t = Clock::now();
    const wfg::CheckResult check = graph.check();
    layers.add("wfg.check_s", secondsSince(t));
    t = Clock::now();
    std::string dot;
    wfg::makeReport(graph, check,
                    [&dot](std::string_view chunk) { dot += chunk; });
    layers.add("wfg.output_s", secondsSince(t));
    layers.add("wfg.arcs", static_cast<double>(check.arcCount));
    if (h.traceHash != served.traceHash || dot != served.dot) {
      fail(r, served.name + ": solo replay diverged from the served session");
    }
  }

  std::int32_t sessions_;
  int injectBug_;
  std::vector<std::size_t> order_;
  std::vector<fuzz::Outcome> formal_;
  std::vector<must::HarnessResult> refs_;
  double slowdown_ = 0.0;
};

class SpecWorkload final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    for (const workloads::SpecApp& app : workloads::specSuite()) {
      if (std::string(app.name) == "128.GAPgeofem") continue;
      apps_.push_back(&app);
    }
    // The seed orders the apps within a round; the apps are fixed.
    support::Rng rng(seed);
    for (std::size_t i = apps_.size(); i > 1; --i) {
      std::swap(apps_[i - 1], apps_[rng.below(i)]);
    }
    for (const workloads::SpecApp* app : apps_) {
      refs_.push_back(reference(kSpecProcs, specRuntime(),
                                app->make(specScale(kSpecProcs)), referenceS));
    }
  }

  Round round(Layers* layers) override {
    Round r;
    double slowdownSum = 0.0;
    int averaged = 0;
    std::uint64_t certified = 0;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      const workloads::SpecApp& app = *apps_[i];
      const auto t0 = Clock::now();
      const mpi::Runtime::Program program = app.make(specScale(kSpecProcs));
      const analysis::Certificate cert =
          layers != nullptr ? certifyTraced(*layers, program)
                            : must::certifyWorkload(kSpecProcs, specRuntime(),
                                                    program);
      const double certifyS = secondsSince(t0);
      must::ToolConfig toolCfg = specTool();
      toolCfg.certificate = &cert;
      const ToolRun run =
          runTooled(kSpecProcs, specRuntime(), toolCfg, program, layers);
      r.setupS += certifyS + run.setupS;
      r.wallS += run.wallS;
      r.calls += run.result.appCalls;
      ++r.ops;
      certified += cert.certifiedOps();
      fail(r, checkSpec(app, run.result, refs_[i]));
      hashCheck(r, i, app.name, run.result.traceHash);
      if (std::string(app.name) != "126.lammps") {
        slowdownSum += run.result.slowdownOver(refs_[i]);
        ++averaged;
      }
    }
    slowdown_ = averaged > 0 ? slowdownSum / averaged : 0.0;
    if (layers != nullptr) {
      layers->add("analysis.certified_frac",
                  r.calls > 0 ? static_cast<double>(certified) /
                                    static_cast<double>(r.calls)
                              : 0.0);
    }
    return r;
  }

  double virtualSlowdown() const override { return slowdown_; }

 private:
  /// must::certifyWorkload, step by step, with a span around the profiling
  /// run (match layer) and one around the classifier (analysis layer).
  analysis::Certificate certifyTraced(Layers& layers,
                                      const mpi::Runtime::Program& program) {
    auto t = Clock::now();
    sim::Engine engine;
    mpi::Runtime runtime(engine, specRuntime(), kSpecProcs);
    must::Recorder recorder(runtime);
    runtime.runToCompletion(program);
    if (!runtime.allFinalized()) {
      layers.add("match.profile_s", secondsSince(t));
      analysis::Certificate empty;
      empty.procCount = kSpecProcs;
      empty.sampleUntil.assign(static_cast<std::size_t>(kSpecProcs), 0);
      return empty;
    }
    const trace::MatchedTrace trace = recorder.finish();
    layers.add("match.profile_s", secondsSince(t));
    t = Clock::now();
    analysis::Certificate cert =
        analysis::analyzeProgram(analysis::programFromTrace(trace));
    layers.add("analysis.classify_s", secondsSince(t));
    return cert;
  }

  std::vector<const workloads::SpecApp*> apps_;
  std::vector<must::HarnessResult> refs_;
  double slowdown_ = 0.0;
};

// --- Provenance --------------------------------------------------------------

/// Keeps the calibration loops' results observable, so they are not folded
/// away.
volatile std::uint64_t g_calibrationSink = 0;

/// Host times of two fixed loops that use none of the program's code, so
/// machine drift shows in them and a change in the program does not:
/// [0] a register-only xorshift chain; [1] a sort, a hash map and small
/// allocations, which slow down with the host's memory and cache contention
/// as the workloads do.
std::array<double, 2> calibrate() {
  auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x & 0xFF;
  }
  const double alu = secondsSince(t0);

  t0 = Clock::now();
  support::Rng rng(7);
  std::vector<std::uint64_t> keys(1 << 20);
  for (std::uint64_t& k : keys) k = rng.next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 300'000; ++i) map[rng.below(500'000)] += i;
  std::vector<std::unique_ptr<std::string>> strings;
  for (int i = 0; i < 200'000; ++i) {
    strings.push_back(std::make_unique<std::string>(40, 'x'));
  }
  const double mix = secondsSince(t0);
  g_calibrationSink =
      acc + keys[keys.size() / 2] + map.size() + strings.size();
  return {alu, mix};
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Main loop ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfTest = false;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "stress_p4096") {
    return std::make_unique<SingleRunWorkload>(
        name, kStressProcs, sierraRuntime(), paperTool(kStressFanIn),
        workloads::cyclicExchange(stressParams()),
        [](const must::HarnessResult& r) {
          return checkStress(r, stressCalls(stressParams(), kStressProcs));
        });
  }
  if (name == "wildcard_p2048") {
    return std::make_unique<SingleRunWorkload>(
        name, kWildcardProcs, mpi::RuntimeConfig{}, wildcardTool(),
        workloads::wildcardDeadlock(), [](const must::HarnessResult& r) {
          return checkWildcard(r, kWildcardProcs);
        });
  }
  if (name == "serve_fuzz4096") return std::make_unique<ServeWorkload>();
  if (name == "spec_hybrid_p1024") return std::make_unique<SpecWorkload>();
  return nullptr;
}

int runBenchmark(const Args& args) {
  std::unique_ptr<Workload> w = makeWorkload(args.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 1;
  }
  const std::array<double, 2> calibBefore = calibrate();
  w->prepare(args.seed);

  // Whole rounds only, at least one, and no round that the last one's length
  // says would end past the time, so a run lasts about --seconds however long
  // its rounds are. The traced run alternates untraced and traced rounds, so
  // the tracing overhead compares rounds taken under the same machine
  // conditions.
  std::vector<Round> rounds;
  std::vector<double> setups;
  const auto start = Clock::now();
  double lastRoundS = 0.0;
  do {
    const auto roundStart = Clock::now();
    const bool traced = args.trace && rounds.size() % 2 == 1;
    Layers layers;
    const double cpu0 = cpuSeconds();
    Round r = w->round(traced ? &layers : nullptr);
    r.cpuS = cpuSeconds() - cpu0;
    r.traced = traced;
    r.layers = std::move(layers.values);
    setups.push_back(r.setupS);
    for (int i = 0; i < kExtraSetups; ++i) {
      const std::optional<double> s = w->setupOnly();
      if (!s) break;
      setups.push_back(*s);
    }
    rounds.push_back(std::move(r));
    lastRoundS = secondsSince(roundStart);
  } while (secondsSince(start) + lastRoundS <= args.seconds ||
           (args.trace && rounds.size() < 2));
  const double measuredS = secondsSince(start);
  const std::array<double, 2> calibAfter = calibrate();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Round& r : rounds) {
    attempted += r.ops;
    failed += r.failed;
  }

  std::string out = "{";
  out += "\"workload\": " + jsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < w->errors.size(); ++i) {
    out += (i ? ", " : "") + jsonString(w->errors[i]);
  }
  out += "], \"measured_s\": " + jsonNumber(measuredS);
  out += ", \"virtual_slowdown\": " + jsonNumber(w->virtualSlowdown());
  out += ", \"peak_rss_mb\": " + jsonNumber(peakRssMb());
  out += ", \"reference_s\": " + jsonNumber(w->referenceS);
  out += ", \"setup_samples\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out += (i ? ", " : "") + jsonNumber(setups[i]);
  }
  out += "], \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    out += i ? ", {" : "{";
    out += "\"traced\": " + std::string(r.traced ? "true" : "false");
    out += ", \"setup_s\": " + jsonNumber(r.setupS);
    out += ", \"wall_s\": " + jsonNumber(r.wallS);
    out += ", \"cpu_s\": " + jsonNumber(r.cpuS);
    out += ", \"calls\": " + std::to_string(r.calls);
    out += ", \"ops\": " + std::to_string(r.ops);
    out += ", \"layers\": {";
    bool first = true;
    for (const auto& [name, v] : r.layers) {
      out += (first ? "" : ", ") + jsonString(name) + ": " + jsonNumber(v);
      first = false;
    }
    out += "}}";
  }
  out += "], \"provenance\": {";
  out += "\"build_type\": " + jsonString(WST_BUILD_TYPE);
  out += ", \"compiler\": " + jsonString(WST_COMPILER);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"calibration_alu_s\": [" + jsonNumber(calibBefore[0]) + ", " +
         jsonNumber(calibAfter[0]) + "]";
  out += ", \"calibration_mix_s\": [" + jsonNumber(calibBefore[1]) + ", " +
         jsonNumber(calibAfter[1]) + "]";
  out += "}}";
  std::puts(out.c_str());
  return 0;
}

// --- Self-test ---------------------------------------------------------------
//
// Each check above must reject a wrong result, or the benchmark's
// `correct` field proves nothing. Small scales keep this quick.

int selfTest() {
  int bad = 0;
  const auto expect = [&bad](const char* what, bool rejected) {
    std::printf("%s: %s\n", rejected ? "ok  " : "FAIL", what);
    if (!rejected) ++bad;
  };
  const auto expectAccept = [&bad](const char* what, const std::string& err) {
    std::printf("%s: %s%s%s\n", err.empty() ? "ok  " : "FAIL", what,
                err.empty() ? "" : ": ", err.c_str());
    if (!err.empty()) ++bad;
  };

  // Stress: a run with one iteration fewer than the closed form expects.
  workloads::StressParams shorter = stressParams();
  shorter.iterations -= 1;
  const must::HarnessResult stress = must::runWithTool(
      64, sierraRuntime(), paperTool(kStressFanIn),
      workloads::cyclicExchange(shorter));
  expectAccept("stress check accepts the right call count",
               checkStress(stress, stressCalls(shorter, 64)));
  expect("stress check rejects a wrong call count",
         !checkStress(stress, stressCalls(stressParams(), 64)).empty());
  expect("stress check rejects a deadlocked run",
         !checkStress(must::runWithTool(64, sierraRuntime(),
                                        paperTool(kStressFanIn),
                                        workloads::wildcardDeadlock()),
                      stressCalls(stressParams(), 64))
              .empty());

  // Wildcard: accepted at p = 64, rejected for a clean run and a wrong p.
  const must::HarnessResult wildcard = must::runWithTool(
      64, mpi::RuntimeConfig{}, wildcardTool(), workloads::wildcardDeadlock());
  expectAccept("wildcard check accepts the p = 64 deadlock",
               checkWildcard(wildcard, 64));
  expect("wildcard check rejects a clean run",
         !checkWildcard(stress, 64).empty());
  expect("wildcard check rejects a deadlocked set that is not all ranks",
         !checkWildcard(wildcard, 65).empty());

  // SPEC: a clean app must not pass as 126.lammps, nor lammps as clean.
  const workloads::SpecApp* lammps = workloads::findSpecApp("126.lammps");
  const workloads::SpecApp* pop2 = workloads::findSpecApp("121.pop2");
  const auto specRun = [](const workloads::SpecApp& app) {
    return must::runWithTool(64, specRuntime(), specTool(),
                             app.make(specScale(64)));
  };
  const must::HarnessResult lammpsRun = specRun(*lammps);
  const must::HarnessResult pop2Run = specRun(*pop2);
  const must::HarnessResult pop2Ref =
      must::runReference(64, specRuntime(), pop2->make(specScale(64)));
  expectAccept("spec check accepts 121.pop2",
               checkSpec(*pop2, pop2Run, pop2Ref));
  expectAccept("spec check accepts 126.lammps",
               checkSpec(*lammps, lammpsRun, pop2Ref));
  expect("spec check rejects a clean run as 126.lammps",
         !checkSpec(*lammps, pop2Run, pop2Ref).empty());
  expect("spec check rejects a deadlock as a clean app",
         !checkSpec(*pop2, lammpsRun, pop2Ref).empty());
  must::HarnessResult offByOne = pop2Ref;
  offByOne.appCalls += 1;
  expect("spec check rejects a call count unlike the reference",
         !checkSpec(*pop2, pop2Run, offByOne).empty());

  // Serve: sessions with the planted lost-ack bug must disagree with the
  // formal oracle on some scenario, and the unbugged ones on none.
  ServeWorkload served(256);
  served.prepare(1);
  const Round clean = served.round(nullptr);
  expect("serve check accepts 256 correct sessions", clean.failed == 0);
  ServeWorkload bugged(256, /*injectBug=*/1);
  bugged.prepare(1);
  const Round wrong = bugged.round(nullptr);
  std::printf("      (%llu of 256 bugged sessions rejected)\n",
              static_cast<unsigned long long>(wrong.failed));
  expect("serve check rejects sessions run with ToolConfig::injectBug",
         wrong.failed > 0);

  expect("trace-hash check rejects a changed hash",
         !checkHash("op", 1, 2).empty());
  std::printf("self-test: %s\n", bad == 0 ? "all checks can fail" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      args.trace = value() == "1";
    } else if (arg == "--self-test") {
      args.selfTest = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (args.selfTest) return selfTest();
  return runBenchmark(args);
}
