// perfbench: the repository's benchmark. One seeded run of one workload,
// measured from outside the program through its public calls:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-file <path>]
//
// End-to-end numbers (--trace 0) time whole public calls with nothing
// recorded: sched::Registry::make + runtime::execute_online for a
// product, service::TcpClient::run for a job. Per-layer numbers
// (--trace 1) come from a separate, fixed-size traced phase whose spans
// wrap the calls into each module (sched, runtime, sim, matrix, service,
// model), plus the counters ExecutorReport and JobResult already return.
//
// Every product's and job's C is compared against a reference computed
// in set-up with the scalar tiled kernel (matrix::gemm_tiled), a code
// path independent of the packed kernel the workers run. A mismatch, a
// throw or a rejection counts as a failed operation; it never aborts
// the run. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it carry the provenance (host, kernel, blocking, build,
// seed), the host's CPU steal share during the measured phase, and
// sample counts.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/run.hpp"
#include "matrix/gemm.hpp"
#include "matrix/kernel_dispatch.hpp"
#include "matrix/matrix.hpp"
#include "matrix/partition.hpp"
#include "matrix/tuning.hpp"
#include "platform/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/fleet.hpp"
#include "sched/registry.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "sim/scheduler.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace hmxp;
using perfbench::Trace;
using Clock = std::chrono::steady_clock;

/// The executor's own verification tolerance (absolute, per element).
constexpr double kTolerance = 1e-9;
/// Set-up is repeated and its median reported, so one slow fork or
/// page-fault storm does not move setup_s.
constexpr int kSetupReps = 11;
constexpr int kFleetReps = 5;
/// Latency recorded for a failed or rejected operation: it misses any
/// limit.
constexpr double kMissed = 1e300;
/// At most this many spans go to the Chrome trace file (the analysis
/// uses all of them); a traced fine-grained phase records ~10^6.
constexpr std::size_t kMaxTraceEvents = 200000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile, p in (0, 1]; 0 for no values.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

// ---- metrics ----------------------------------------------------------------

/// Every workload prints every metric of its mode, in this order, so
/// the metric set never depends on the workload. A layer a workload
/// does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"gflops", "GFLOP/s"},
    {"latency_s_p10", "s"},
    {"setup_s", "s"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"matrix.kernel_gflops", "GFLOP/s"},
    {"matrix.flops", "flop"},
    {"sched.build_s", "s"},
    {"sched.next_s", "s"},
    {"sched.decisions", "count"},
    {"sim.replay_s", "s"},
    {"runtime.execute_s", "s"},
    {"runtime.execute_self_s", "s"},
    {"runtime.efficiency", "ratio"},
    {"runtime.messages", "count"},
    {"runtime.wire_bytes", "bytes"},
    {"runtime.serde_s", "s"},
    {"runtime.pool_reuse", "ratio"},
    {"runtime.imbalance", "ratio"},
    {"runtime.workers_active_min", "count"},
    {"runtime.fleet_spawn_s", "s"},
    {"runtime.fleet_shutdown_s", "s"},
    {"service.run_s_p50", "s"},
    {"service.overhead_s_p50", "s"},
    {"service.jobs_per_s", "1/s"},
    {"service.workers_used_mean", "count"},
    {"service.pool_allocs", "count"},
    {"service.rejected", "count"},
    {"service.failed", "count"},
    {"model.price_job_us", "us"},
    {"model.priced_over_achieved", "ratio"},
    {"platform.drift_max", "ratio"},
    {"platform.drift_min", "ratio"},
    {"trace.ops_attempted", "count"},
    {"trace.spans", "count"},
    {"trace.nesting_violations", "count"},
    {"trace.negative_self", "count"},
    {"trace.op_self_share", "ratio"},
    {"trace.overhead", "ratio"},
    {"bench.latency_s_p50", "s"},
    {"bench.latency_s_tail", "s"},
    {"bench.fail_frac", "ratio"},
};

using MetricValues = std::map<std::string, double>;

std::string number(double value) {
  if (!std::isfinite(value)) value = kMissed;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string result_json(
    bool correct, std::size_t attempted, std::size_t failed,
    const std::vector<std::pair<const char*, const char*>>& names,
    const MetricValues& values) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(names.begin(), names.end(), [&](auto& n) {
      return name == n.first;
    });
    if (!known) throw std::logic_error("unlisted metric " + name);
  }
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    const double value = it == values.end() ? 0.0 : it->second;
    out += std::string(first ? "" : ", ") + '"' + name +
           "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit +
           "\"}";
    first = false;
  }
  return out + "}}";
}

/// Operations the run attempted, and how many failed: threw, were
/// rejected, or returned a wrong C (`wrong` counts only the last).
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;

  Tally& operator+=(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    return *this;
  }
};

// ---- statistics -------------------------------------------------------------

/// One operation of an untraced phase.
struct Done {
  double latency_s = 0.0;  // kMissed for a failed operation
  double flops = 0.0;      // 2 n^3 of a job; products leave it 0
};

/// End-to-end figures come from the good decile of a run: the 10th
/// percentile of operation latency. On a shared host, contention from
/// other tenants comes in episodes that can last minutes and slow every
/// layer at once. Such an episode moved a run's median product latency
/// by up to 1.5x, its median job latency by up to 2.3x and the
/// daemon's jobs/s by up to 2x, but the good decile of latency by at
/// most 1.35x. A change to the program moves every operation, the good
/// decile included.
constexpr double kGoodDecile = 0.10;

/// A latency percentile over the operations of a phase of `flops` each,
/// or over all of them when `flops` is 0.
double phase_latency(const std::vector<Done>& done, double p,
                     double flops = 0.0) {
  std::vector<double> latency;
  for (const Done& d : done)
    if (flops == 0.0 || d.flops == flops) latency.push_back(d.latency_s);
  return percentile(latency, p);
}

// ---- provenance -------------------------------------------------------------

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// Fixes the packed kernel's blocking for the whole run: the autotuner's
/// search is itself a timing race whose winner can differ run to run,
/// and its cache would live outside the checkout. With tuning off every
/// run uses matrix::kDefaultBlocking, source "off".
matrix::TuneOutcome resolve_fixed_blocking() {
  matrix::set_tuning_cache_override("off");
  matrix::set_tune_mode(matrix::TuneMode::kOff);
  return matrix::resolve_blocking(matrix::active_micro_kernel_variant());
}

std::map<std::string, std::string> provenance(const std::string& workload,
                                              std::uint64_t seed) {
  const matrix::TuneOutcome blocking = resolve_fixed_blocking();
  return {
      {"workload", workload},
      {"seed", std::to_string(seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
      {"kernel_variant", matrix::packed_kernel_variant()},
      {"blocking", matrix::blocking_to_string(blocking.params)},
      {"blocking_source", blocking.source},
      {"build_type", "Release"},
  };
}

/// Aggregate CPU time counters of /proc/stat: {steal, total} ticks.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0.0;
  double total = 0.0;
  double ticks = 0.0;
  for (int field = 0; field < 8 && stat >> ticks; ++field) {
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

/// Share of CPU time the hypervisor gave to other tenants since `from`:
/// printed with every result, since it moves every figure at once.
void print_steal(const std::pair<double, double>& from) {
  const auto [steal, total] = cpu_steal_ticks();
  const double share =
      total > from.second ? (steal - from.first) / (total - from.second) : 0.0;
  std::cout << "host steal share during the measured phase: " << share
            << '\n';
}

void print_provenance(const std::map<std::string, std::string>& fields) {
  std::string line = "provenance {";
  bool first = true;
  for (const auto& [key, value] : fields) {
    line += std::string(first ? "" : ", ") + '"' + key + "\": \"" + value +
            '"';
    first = false;
  }
  std::cout << line << "}\n";
}

// ---- shared layer probes ----------------------------------------------------

/// gemm_auto GFLOP/s on one thread at an m x k x m step shape: median
/// over batches of ~20 ms, ~0.3 s in total.
double kernel_gflops(std::size_t m, std::size_t k, Trace& trace) {
  const Trace::Scope span(trace, "matrix.kernel", -1);
  util::Rng rng(99);
  const matrix::Matrix a = matrix::Matrix::random(m, k, rng);
  const matrix::Matrix b = matrix::Matrix::random(k, m, rng);
  matrix::Matrix c(m, m, 0.0);
  const double flops = matrix::gemm_flops(m, m, k);
  matrix::gemm_auto(a.view(), b.view(), c.view());  // warm packing buffers
  std::vector<double> rates;
  const Clock::time_point begin = Clock::now();
  while (seconds_since(begin) < 0.3 || rates.size() < 5) {
    std::size_t reps = 0;
    const Clock::time_point batch = Clock::now();
    do {
      matrix::gemm_auto(a.view(), b.view(), c.view());
      ++reps;
    } while (seconds_since(batch) < 0.02);
    rates.push_back(flops * static_cast<double>(reps) / seconds_since(batch) *
                    1e-9);
  }
  return median(rates);
}

/// Fleet constructor and shutdown() on the workload's platform and
/// transport: medians over kFleetReps spawns.
std::pair<double, double> fleet_spawn_shutdown(
    const platform::Platform& platform, runtime::TransportKind transport,
    std::size_t max_payload_doubles, Trace& trace) {
  std::vector<double> spawn;
  std::vector<double> shutdown;
  for (int rep = 0; rep < kFleetReps; ++rep) {
    runtime::ExecutorOptions options;
    options.transport = transport;
    options.verify = false;
    std::unique_ptr<runtime::Fleet> fleet;
    {
      const Trace::Scope span(trace, "runtime.fleet_spawn", -1);
      const Clock::time_point start = Clock::now();
      fleet = std::make_unique<runtime::Fleet>(platform, options,
                                               max_payload_doubles);
      spawn.push_back(seconds_since(start));
    }
    const Trace::Scope span(trace, "runtime.fleet_shutdown", -1);
    const Clock::time_point start = Clock::now();
    fleet->shutdown();
    shutdown.push_back(seconds_since(start));
  }
  return {median(spawn), median(shutdown)};
}

/// Fills the trace.* metrics from a finished trace; `op_span` names the
/// per-operation root span ("product" or "job").
void trace_metrics(const Trace& trace, const perfbench::TraceSummary& summary,
                   const char* op_span, MetricValues& m) {
  m["trace.spans"] = static_cast<double>(trace.spans().size());
  m["trace.nesting_violations"] =
      static_cast<double>(summary.nesting_violations);
  m["trace.negative_self"] = static_cast<double>(summary.negative_self);
  std::vector<double> shares;
  if (const auto it = summary.by_name.find(op_span);
      it != summary.by_name.end())
    for (const auto& [op, slot] : it->second)
      if (slot.total_s > 0.0) shares.push_back(slot.self_s / slot.total_s);
  m["trace.op_self_share"] = median(shares);
}

/// Median over ops of one span name's per-op total (or self) seconds.
double median_per_op(const perfbench::TraceSummary& summary, const char* name,
                     bool self = false) {
  std::vector<double> values;
  if (const auto it = summary.by_name.find(name); it != summary.by_name.end())
    for (const auto& [op, slot] : it->second)
      values.push_back(self ? slot.self_s : slot.total_s);
  return median(values);
}

void write_trace(const std::string& path, const Trace& trace,
                 const std::map<std::string, std::string>& metadata) {
  if (path.empty()) return;
  if (!perfbench::write_chrome_trace(path, trace.spans(), kMaxTraceEvents,
                                     metadata))
    std::cerr << "perfbench: cannot write trace file " << path << '\n';
}

// ---- product workloads ------------------------------------------------------

/// One live product per operation: Registry::make + execute_online over
/// a fresh per-run transport.
struct ProductWorkload {
  std::string algorithm;
  runtime::TransportKind transport = runtime::TransportKind::kThread;
  std::size_t n = 0;
  std::size_t q = 0;
  platform::Platform platform;
  /// Products in the fixed-size traced phase (~5 s on a 4-core host).
  std::size_t traced_products = 0;
};

/// c and w are host-matched: c near the in-memory cost of moving one
/// q x q block, w near the packed kernel's cost of one block update at
/// that q. A platform that overstates c makes the schedulers hoard work
/// on one worker (see README.md).
std::optional<ProductWorkload> product_workload(const std::string& name) {
  using platform::WorkerSpec;
  if (name == "paper-q80") {
    // The paper's q and memory heterogeneity: mu = 2, 3, 4.
    return ProductWorkload{
        "Het", runtime::TransportKind::kThread, 1280, 80,
        platform::Platform("paper-q80", {WorkerSpec{5e-6, 3e-5, 12, "mu2"},
                                         WorkerSpec{5e-6, 3e-5, 21, "mu3"},
                                         WorkerSpec{5e-6, 3e-5, 32, "mu4"}}),
        100};
  }
  if (name == "fine-q16" || name == "fine-q16-process") {
    const bool process = name == "fine-q16-process";
    return ProductWorkload{
        "ODDOML",
        process ? runtime::TransportKind::kProcess
                : runtime::TransportKind::kThread,
        960, 16, platform::Platform::homogeneous(3, 2e-7, 4e-7, 40),
        process ? std::size_t{25} : std::size_t{50}};
  }
  return std::nullopt;
}

struct ProductInputs {
  matrix::Partition partition;
  matrix::Matrix a;
  matrix::Matrix b;
  matrix::Matrix c0;
  matrix::Matrix reference;  // c0 + a * b
};

ProductInputs make_product_inputs(const ProductWorkload& w,
                                  std::uint64_t seed) {
  const matrix::Partition partition(w.n, w.n, w.n, w.q);
  core::OperandSet operands = core::generate_operands(partition, seed);
  matrix::Matrix reference = operands.c;
  matrix::gemm_tiled(operands.a.view(), operands.b.view(), reference.view());
  return {partition, std::move(operands.a), std::move(operands.b),
          std::move(operands.c), std::move(reference)};
}

/// Pass-through scheduler that records a sched.next span per decision.
class TracedScheduler final : public sim::Scheduler {
 public:
  TracedScheduler(sim::Scheduler& inner, Trace& trace, int op)
      : inner_(inner), trace_(trace), op_(op) {}
  std::string name() const override { return inner_.name(); }
  sim::Decision next(const sim::ExecutionView& view) override {
    const Trace::Scope span(trace_, "sched.next", op_);
    return inner_.next(view);
  }

 private:
  sim::Scheduler& inner_;
  Trace& trace_;
  int op_;
};

struct ProductSample {
  bool ok = false;
  double wall_s = 0.0;
  runtime::ExecutorReport report;
};

/// Runs one product into `c` (reset from c0 first, outside timing) and
/// checks it. With tracing on, the decisions are replayed afterwards on
/// a fresh sim::Engine (the sim.replay span, outside the product span).
ProductSample run_product(const ProductWorkload& w, const ProductInputs& in,
                          matrix::Matrix& c, Trace& trace, int op,
                          Tally& tally) {
  c = in.c0;
  ++tally.attempted;
  ProductSample sample;
  std::vector<sim::Decision> log;
  const Clock::time_point start = Clock::now();
  try {
    {
      const Trace::Scope product(trace, "product", op);
      std::unique_ptr<sim::Scheduler> scheduler;
      {
        const Trace::Scope span(trace, "sched.build", op);
        scheduler = sched::Registry::instance().make(w.algorithm, w.platform,
                                                     in.partition);
      }
      runtime::ExecutorOptions options;
      options.transport = w.transport;
      options.verify = false;  // checked below, against our own reference
      if (trace.enabled()) {
        TracedScheduler traced(*scheduler, trace, op);
        const Trace::Scope span(trace, "runtime.execute", op);
        sample.report = runtime::execute_online(
            traced, w.platform, in.partition, in.a, in.b, c, options, &log);
      } else {
        sample.report = runtime::execute_online(
            *scheduler, w.platform, in.partition, in.a, in.b, c, options);
      }
    }
    sample.wall_s = seconds_since(start);
    sample.ok = matrix::Matrix::max_abs_diff(c, in.reference) <= kTolerance;
    if (!sample.ok) ++tally.wrong;
  } catch (const std::exception& error) {
    sample.wall_s = seconds_since(start);
    std::cerr << "perfbench: product " << op << " failed: " << error.what()
              << '\n';
  }
  if (!sample.ok) ++tally.failed;
  if (trace.enabled() && sample.ok) {
    const Trace::Scope span(trace, "sim.replay", op);
    sim::ReplayScheduler replay("replay", std::move(log));
    sim::Engine engine(w.platform, in.partition, /*record_trace=*/false);
    sim::run(replay, engine);
  }
  return sample;
}

/// Effective GFLOP/s of a set of products: 2 n^3 over the median
/// product wall time (a failed product counts as missing any limit).
double product_gflops(const ProductWorkload& w,
                      const std::vector<ProductSample>& samples) {
  std::vector<double> wall;
  for (const ProductSample& s : samples)
    wall.push_back(s.ok ? s.wall_s : kMissed);
  return 2.0 * std::pow(static_cast<double>(w.n), 3) / median(wall) * 1e-9;
}

std::vector<ProductSample> products_until(const ProductWorkload& w,
                                          const ProductInputs& in,
                                          matrix::Matrix& c, double seconds,
                                          Tally& tally, double& phase_s) {
  Trace off(false);
  std::vector<ProductSample> samples;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds) {
    samples.push_back(run_product(w, in, c, off, -1, tally));
  }
  phase_s = seconds_since(start);
  return samples;
}

int run_products(const ProductWorkload& w, const std::string& name,
                 std::uint64_t seed, double seconds, bool traced,
                 const std::string& trace_file) {
  const ProductInputs in = make_product_inputs(w, seed);
  matrix::Matrix c;
  Tally tally;
  Trace off(false);

  // Set-up: blocking resolve and one warm-up product (pools, page
  // faults, the kernel's packing buffers), repeated; median reported.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    resolve_fixed_blocking();
    run_product(w, in, c, off, -1, tally);
    setup.push_back(seconds_since(start));
  }
  const auto fields = provenance(name, seed);
  print_provenance(fields);

  MetricValues m;
  double phase_s = 0.0;
  const auto steal_from = cpu_steal_ticks();
  const std::vector<ProductSample> untraced = products_until(
      w, in, c, traced ? seconds / 2.0 : seconds, tally, phase_s);
  print_steal(steal_from);
  std::vector<Done> done;
  std::size_t ok = 0;
  for (const ProductSample& s : untraced) {
    done.push_back({s.ok ? s.wall_s : kMissed, 0.0});
    ok += s.ok ? 1 : 0;
  }
  std::cout << "samples " << untraced.size() << " products in " << phase_s
            << " s\n";

  if (!traced) {
    const double p10 = phase_latency(done, kGoodDecile);
    m["gflops"] = 2.0 * std::pow(static_cast<double>(w.n), 3) / p10 * 1e-9;
    m["latency_s_p10"] = p10;
    m["setup_s"] = median(setup);
    std::cout << result_json(tally.wrong == 0 && ok > 0, tally.attempted,
                             tally.failed, kEndToEnd, m)
              << '\n';
    return 0;
  }

  // Traced phase: a fixed number of products, so its counts repeat
  // exactly for a seed.
  Trace trace(true);
  Tally traced_tally;
  std::vector<ProductSample> samples;
  for (std::size_t i = 0; i < w.traced_products; ++i)
    samples.push_back(run_product(w, in, c, trace, static_cast<int>(i),
                                  traced_tally));
  tally += traced_tally;

  const auto widest = std::max_element(
      w.platform.workers().begin(), w.platform.workers().end(),
      [](const auto& x, const auto& y) { return x.mu() < y.mu(); });
  const double kernel =
      kernel_gflops(static_cast<std::size_t>(widest->mu()) * w.q, w.q, trace);
  const auto [spawn_s, shutdown_s] = fleet_spawn_shutdown(
      w.platform, w.transport, w.n * w.n, trace);
  const perfbench::TraceSummary summary = perfbench::summarize(trace.spans());

  const double flops = 2.0 * std::pow(static_cast<double>(w.n), 3);
  const double workers = static_cast<double>(w.platform.size());
  std::vector<double> efficiency, messages, wire, serde, reuse, imbalance,
      drift;
  double workers_active_min = workers;
  const auto& execute = summary.by_name.at("runtime.execute");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ProductSample& s = samples[i];
    if (!s.ok) continue;
    const runtime::ExecutorReport& r = s.report;
    const double execute_s = execute.at(static_cast<int>(i)).total_s;
    efficiency.push_back(flops / (workers * kernel * 1e9 * execute_s));
    messages.push_back(static_cast<double>(
        r.transport_stats.messages_sent + r.transport_stats.messages_received));
    wire.push_back(static_cast<double>(r.transport_stats.bytes_sent +
                                       r.transport_stats.bytes_received));
    serde.push_back(r.transport_stats.serde_seconds);
    reuse.push_back(
        r.buffer_pool.acquires == 0
            ? 0.0
            : 1.0 - static_cast<double>(r.buffer_pool.allocations) /
                        static_cast<double>(r.buffer_pool.acquires));
    double max_updates = 0.0;
    double sum_updates = 0.0;
    double active = 0.0;
    for (const std::size_t u : r.updates_per_worker) {
      max_updates = std::max(max_updates, static_cast<double>(u));
      sum_updates += static_cast<double>(u);
      active += u > 0 ? 1.0 : 0.0;
    }
    imbalance.push_back(max_updates / (sum_updates / workers));
    workers_active_min = std::min(workers_active_min, active);
    for (const double d : r.observed_drift) drift.push_back(d);
  }
  std::vector<double> decisions;
  if (const auto it = summary.by_name.find("sched.next");
      it != summary.by_name.end())
    for (const auto& [op, slot] : it->second)
      decisions.push_back(static_cast<double>(slot.count));

  m["matrix.kernel_gflops"] = kernel;
  m["matrix.flops"] = flops * static_cast<double>(samples.size());
  m["sched.build_s"] = median_per_op(summary, "sched.build");
  m["sched.next_s"] = median_per_op(summary, "sched.next");
  m["sched.decisions"] = median(decisions);
  m["sim.replay_s"] = median_per_op(summary, "sim.replay");
  m["runtime.execute_s"] = median_per_op(summary, "runtime.execute");
  m["runtime.execute_self_s"] =
      median_per_op(summary, "runtime.execute", /*self=*/true);
  m["runtime.efficiency"] = median(efficiency);
  m["runtime.messages"] = median(messages);
  m["runtime.wire_bytes"] = median(wire);
  m["runtime.serde_s"] = median(serde);
  m["runtime.pool_reuse"] = median(reuse);
  m["runtime.imbalance"] = median(imbalance);
  m["runtime.workers_active_min"] = workers_active_min;
  m["runtime.fleet_spawn_s"] = spawn_s;
  m["runtime.fleet_shutdown_s"] = shutdown_s;
  if (!drift.empty()) {
    m["platform.drift_max"] = *std::max_element(drift.begin(), drift.end());
    m["platform.drift_min"] = *std::min_element(drift.begin(), drift.end());
  }
  m["trace.ops_attempted"] = static_cast<double>(traced_tally.attempted);
  trace_metrics(trace, summary, "product", m);
  // Tracing overhead: the traced products' GFLOP/s (timed as in the
  // untraced phase) against the untraced phase's.
  const double traced_gflops = product_gflops(w, samples);
  m["trace.overhead"] = 1.0 - traced_gflops / product_gflops(w, untraced);
  m["bench.latency_s_p50"] = phase_latency(done, 0.50);
  m["bench.latency_s_tail"] = phase_latency(done, 0.90);
  m["bench.fail_frac"] = static_cast<double>(tally.failed) /
                         static_cast<double>(tally.attempted);

  write_trace(trace_file, trace, fields);
  std::cout << result_json(tally.wrong == 0 && ok > 0, tally.attempted,
                           tally.failed, kPerLayer, m)
            << '\n';
  return 0;
}

// ---- service-mix ------------------------------------------------------------

/// The daemon's fleet: 3 workers with c/w host-matched at q=32 (the
/// q=16 constants scaled by q^2 and q^3). Memory is ample enough
/// (m = 10000 blocks) that admission's Table 2 working-set check never
/// binds: at m <= 300 it rejected up to 9% of jobs whenever one
/// worker's calibration drift spiked, since one slow worker stretches
/// the modelled service round of all of them.
platform::Platform service_platform() {
  return platform::Platform::homogeneous(3, 8e-7, 3.2e-6, 10000);
}

constexpr int kClients = 3;
constexpr std::size_t kTracedJobsPerClient = 1500;
constexpr std::size_t kMaxPayloadDoubles = 320 * 320;

struct JobKind {
  std::size_t n;
  std::size_t q;
  std::size_t pool;  // distinct data seeds of this size
};
/// 3 in 4 jobs small, 1 in 4 medium.
constexpr JobKind kSmall{64, 16, 4};
constexpr JobKind kMedium{320, 32, 2};

struct JobDraw {
  const JobKind* kind = nullptr;
  std::uint64_t data_seed = 0;
};

std::uint64_t data_seed(std::uint64_t seed, const JobKind& kind,
                        std::size_t index) {
  return seed * 1000 + (kind.n == kSmall.n ? 0 : 100) + index;
}

/// The job stream of one client: a pure function of (seed, client).
class JobStream {
 public:
  JobStream(std::uint64_t seed, int client)
      : seed_(seed), rng_(seed * 7919 + static_cast<std::uint64_t>(client)) {}
  JobDraw next() {
    const JobKind& kind = rng_.uniform_int(0, 3) == 0 ? kMedium : kSmall;
    const auto index = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kind.pool) - 1));
    return {&kind, data_seed(seed_, kind, index)};
  }

 private:
  std::uint64_t seed_;
  util::Rng rng_;
};

service::JobSpec job_spec(const JobDraw& draw) {
  service::JobSpec spec;
  spec.algorithm = "FT-ODDOML";
  spec.n_a = spec.n_ab = spec.n_b = draw.kind->n;
  spec.q = draw.kind->q;
  spec.data_seed = draw.data_seed;
  return spec;
}

/// Reference C for every (size, data seed) the run can draw.
std::map<std::uint64_t, matrix::Matrix> service_references(
    std::uint64_t seed) {
  std::map<std::uint64_t, matrix::Matrix> refs;
  for (const JobKind* kind : {&kSmall, &kMedium}) {
    const matrix::Partition partition(kind->n, kind->n, kind->n, kind->q);
    for (std::size_t i = 0; i < kind->pool; ++i) {
      const std::uint64_t ds = data_seed(seed, *kind, i);
      core::OperandSet operands = core::generate_operands(partition, ds);
      matrix::gemm_tiled(operands.a.view(), operands.b.view(),
                         operands.c.view());
      refs.emplace(ds, std::move(operands.c));
    }
  }
  return refs;
}

struct JobSample {
  bool ok = false;
  bool rejected = false;
  double latency_s = 0.0;
  double flops = 0.0;
  service::JobResult result;
};

/// One daemon over a 3-worker thread fleet plus one TCP connection per
/// client, warmed up by one medium and one small job per client.
struct Service {
  std::unique_ptr<service::Daemon> daemon;
  std::vector<std::unique_ptr<service::TcpClient>> clients;
};

JobSample run_job(service::TcpClient& client, const JobDraw& draw,
                  const std::map<std::uint64_t, matrix::Matrix>& refs,
                  Trace& trace, int op) {
  JobSample sample;
  sample.flops = 2.0 * std::pow(static_cast<double>(draw.kind->n), 3);
  const Clock::time_point start = Clock::now();
  try {
    {
      const Trace::Scope span(trace, "job", op);
      sample.result = client.run(job_spec(draw));
    }
    sample.latency_s = seconds_since(start);
    sample.rejected = sample.result.state == service::JobState::kRejected;
    sample.ok = sample.result.state == service::JobState::kCompleted &&
                matrix::Matrix::max_abs_diff(sample.result.c,
                                             refs.at(draw.data_seed)) <=
                    kTolerance;
    if (!sample.ok)
      std::cerr << "perfbench: job " << op << ' '
                << service::job_state_name(sample.result.state) << ' '
                << sample.result.error << '\n';
  } catch (const std::exception& error) {
    sample.latency_s = seconds_since(start);
    std::cerr << "perfbench: job " << op << " threw: " << error.what()
              << '\n';
  }
  sample.result.c = matrix::Matrix();  // keep only the counters
  return sample;
}

void count(const JobSample& j, Tally& tally) {
  ++tally.attempted;
  if (!j.ok) ++tally.failed;
  if (!j.ok && j.result.state == service::JobState::kCompleted) ++tally.wrong;
}

Service start_service(const std::map<std::uint64_t, matrix::Matrix>& refs,
                      std::uint64_t seed, Tally& tally) {
  Service s;
  service::DaemonConfig config;
  config.platform = service_platform();
  config.executor.verify = false;
  config.max_payload_doubles = kMaxPayloadDoubles;
  config.calibration_cache = "off";  // never read or write a user cache
  s.daemon = std::make_unique<service::Daemon>(std::move(config));
  const std::uint16_t port = s.daemon->serve_tcp(0);
  for (int i = 0; i < kClients; ++i)
    s.clients.push_back(
        std::make_unique<service::TcpClient>(port, kMaxPayloadDoubles));
  std::vector<JobSample> warm(2 * kClients);
  std::vector<std::thread> threads;
  Trace off(false);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const JobDraw medium{&kMedium, data_seed(seed, kMedium, 0)};
      const JobDraw small{&kSmall, data_seed(seed, kSmall, 0)};
      warm[2 * i] = run_job(*s.clients[i], medium, refs, off, -1);
      warm[2 * i + 1] = run_job(*s.clients[i], small, refs, off, -1);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const JobSample& j : warm) count(j, tally);
  return s;
}

/// Closed loop: each client sends its next job when the previous one
/// returns. Stops at `seconds` (when `per_client` is 0) or after
/// `per_client` jobs per client. Returns per-client samples.
std::vector<std::vector<JobSample>> job_loop(
    Service& s, std::uint64_t seed, double seconds, std::size_t per_client,
    const std::map<std::uint64_t, matrix::Matrix>& refs, Trace& trace,
    std::vector<double>& client_s) {
  std::vector<std::vector<JobSample>> samples(kClients);
  client_s.assign(kClients, 0.0);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      JobStream stream(seed, i);
      for (std::size_t j = 0;
           per_client > 0 ? j < per_client : seconds_since(start) < seconds;
           ++j) {
        const int op = static_cast<int>(i * per_client + j);
        samples[i].push_back(
            run_job(*s.clients[i], stream.next(), refs, trace, op));
      }
      client_s[i] = seconds_since(start);
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

void count(const std::vector<std::vector<JobSample>>& samples, Tally& tally) {
  for (const auto& per_client : samples)
    for (const JobSample& j : per_client) count(j, tally);
}

/// Jobs/s as the sum of each client's completed jobs over its own loop
/// time (clients of a fixed-size phase finish at different times).
double client_rate(const std::vector<std::vector<JobSample>>& samples,
                   const std::vector<double>& client_s) {
  double rate = 0.0;
  for (int i = 0; i < kClients; ++i) {
    double ok = 0.0;
    for (const JobSample& j : samples[i]) ok += j.ok ? 1.0 : 0.0;
    rate += ok / client_s[i];
  }
  return rate;
}

int run_service(std::uint64_t seed, double seconds, bool traced,
                const std::string& trace_file) {
  const auto refs = service_references(seed);
  Tally tally;

  // Set-up: blocking resolve, daemon and fleet spawn, TCP handshakes,
  // warm-up jobs. Repeated; the last service is kept.
  std::vector<double> setup;
  Service s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (s.daemon) {
      s.clients.clear();
      s.daemon->shutdown();
      s.daemon.reset();
    }
    const Clock::time_point start = Clock::now();
    resolve_fixed_blocking();
    s = start_service(refs, seed, tally);
    setup.push_back(seconds_since(start));
  }
  const auto fields = provenance("service-mix", seed);
  print_provenance(fields);

  MetricValues m;
  Trace off(false);
  std::vector<double> client_s;
  const auto steal_from = cpu_steal_ticks();
  const auto untraced = job_loop(s, seed, traced ? seconds / 2.0 : seconds,
                                 0, refs, off, client_s);
  print_steal(steal_from);
  count(untraced, tally);
  std::vector<Done> done;
  std::size_t ok = 0;
  for (const auto& per_client : untraced)
    for (const JobSample& j : per_client) {
      done.push_back({j.ok ? j.latency_s : kMissed, j.flops});
      ok += j.ok ? 1 : 0;
    }
  const double phase_s = *std::max_element(client_s.begin(), client_s.end());
  std::cout << "samples " << done.size() << " jobs in " << phase_s << " s\n";

  if (!traced) {
    s.clients.clear();
    s.daemon->shutdown();
    // The medium jobs carry 97% of the flops: GFLOP/s is that of one
    // medium job at the good decile of its latency.
    const double medium = 2.0 * std::pow(static_cast<double>(kMedium.n), 3);
    m["gflops"] = medium / phase_latency(done, kGoodDecile, medium) * 1e-9;
    m["latency_s_p10"] = phase_latency(done, kGoodDecile);
    m["setup_s"] = median(setup);
    std::cout << result_json(tally.wrong == 0 && ok > 0, tally.attempted,
                             tally.failed, kEndToEnd, m)
              << '\n';
    return 0;
  }

  const double untraced_rate = client_rate(untraced, client_s);
  Trace trace(true);
  const auto samples = job_loop(s, seed, 0.0, kTracedJobsPerClient, refs,
                                trace, client_s);
  Tally traced_tally;
  count(samples, traced_tally);
  tally += traced_tally;

  std::vector<double> run_s, overhead_s, workers_used, priced_ratio;
  double pool_allocs = 0.0;
  double rejected = 0.0;
  double failed = 0.0;
  double traced_flops = 0.0;
  for (const auto& per_client : samples)
    for (const JobSample& j : per_client) {
      traced_flops += j.flops;
      const service::JobResult& r = j.result;
      pool_allocs += static_cast<double>(r.pool_delta.allocations);
      rejected += j.rejected ? 1.0 : 0.0;
      failed += !j.ok && !j.rejected ? 1.0 : 0.0;
      if (!j.ok) continue;
      run_s.push_back(r.wall_seconds);
      overhead_s.push_back(j.latency_s - r.wall_seconds);
      workers_used.push_back(static_cast<double>(r.workers_used));
      const double achieved =
          static_cast<double>(r.updates_performed) / r.wall_seconds;
      priced_ratio.push_back(r.priced_throughput / achieved);
    }
  double used_sum = 0.0;
  for (const double u : workers_used) used_sum += u;

  // Admission's price over this run's spec mix, outside any job.
  runtime::Fleet& fleet = s.daemon->fleet();
  std::vector<double> drift(static_cast<std::size_t>(fleet.size()));
  std::vector<char> alive(drift.size());
  for (int w = 0; w < fleet.size(); ++w) {
    drift[static_cast<std::size_t>(w)] = fleet.drift(w);
    alive[static_cast<std::size_t>(w)] = fleet.alive(w) ? 1 : 0;
  }
  JobStream stream(seed, 0);
  std::vector<service::JobSpec> specs;
  for (int i = 0; i < 64; ++i) specs.push_back(job_spec(stream.next()));
  double price_us = 0.0;
  std::size_t priced = 0;
  std::size_t admitted = 0;
  {
    const Trace::Scope span(trace, "model.price_job", -1);
    std::vector<double> per_call;
    const Clock::time_point begin = Clock::now();
    while (seconds_since(begin) < 0.2 || per_call.size() < 5) {
      const Clock::time_point batch = Clock::now();
      for (const service::JobSpec& spec : specs) {
        admitted += service::price_job(spec, fleet.platform(), drift, alive,
                                       kMaxPayloadDoubles)
                        .admitted;
        ++priced;
      }
      per_call.push_back(seconds_since(batch) * 1e6 /
                         static_cast<double>(specs.size()));
    }
    price_us = median(per_call);
  }
  std::cout << "price_job admitted " << admitted << " of " << priced
            << " calls\n";
  s.clients.clear();
  s.daemon->shutdown();

  const double kernel = kernel_gflops(
      static_cast<std::size_t>(service_platform().worker(0).mu()) * kMedium.q,
      kMedium.q, trace);
  const auto [spawn_s, shutdown_s] =
      fleet_spawn_shutdown(service_platform(), runtime::TransportKind::kThread,
                           kMaxPayloadDoubles, trace);
  const perfbench::TraceSummary summary = perfbench::summarize(trace.spans());

  m["matrix.kernel_gflops"] = kernel;
  m["matrix.flops"] = traced_flops;
  m["runtime.fleet_spawn_s"] = spawn_s;
  m["runtime.fleet_shutdown_s"] = shutdown_s;
  m["service.run_s_p50"] = median(run_s);
  m["service.overhead_s_p50"] = median(overhead_s);
  m["service.jobs_per_s"] = untraced_rate;
  m["service.workers_used_mean"] =
      workers_used.empty() ? 0.0
                           : used_sum / static_cast<double>(workers_used.size());
  m["service.pool_allocs"] = pool_allocs;
  m["service.rejected"] = rejected;
  m["service.failed"] = failed;
  m["model.price_job_us"] = price_us;
  m["model.priced_over_achieved"] = median(priced_ratio);
  m["platform.drift_max"] = *std::max_element(drift.begin(), drift.end());
  m["platform.drift_min"] = *std::min_element(drift.begin(), drift.end());
  m["trace.ops_attempted"] = static_cast<double>(traced_tally.attempted);
  trace_metrics(trace, summary, "job", m);
  m["trace.overhead"] = 1.0 - client_rate(samples, client_s) / untraced_rate;
  m["bench.latency_s_p50"] = phase_latency(done, 0.50);
  m["bench.latency_s_tail"] = phase_latency(done, 0.99);
  m["bench.fail_frac"] = static_cast<double>(tally.failed) /
                         static_cast<double>(tally.attempted);

  write_trace(trace_file, trace, fields);
  std::cout << result_json(tally.wrong == 0 && ok > 0, tally.attempted,
                           tally.failed, kPerLayer, m)
            << '\n';
  return 0;
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload "
               "<paper-q80|fine-q16|fine-q16-process|service-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG)
  std::cerr << "perfbench: not an optimized build (NDEBUG unset); refusing "
               "to emit a result\n";
  return 3;
#endif
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) usage("every flag takes a value");
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (args.count(required) == 0)
      usage(std::string("missing ") + required);
  const std::string workload = args["--workload"];
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  try {
    seed = std::stoull(args["--seed"]);
    seconds = std::stod(args["--seconds"]);
    traced = std::stoi(args["--trace"]) != 0;
  } catch (const std::exception&) {
    usage("--seed, --seconds and --trace take numbers");
  }
  if (!(seconds > 0.0)) usage("--seconds must be positive");
  const std::string trace_file =
      args.count("--trace-file") ? args["--trace-file"] : "";

  try {
    if (workload == "service-mix")
      return run_service(seed, seconds, traced, trace_file);
    if (const auto w = product_workload(workload))
      return run_products(*w, workload, seed, seconds, traced, trace_file);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
  usage("unknown workload " + workload);
}
