// Benchmark driver: host time per simulated call, end to end (--trace 0)
// and layer by layer (--trace 1). See README.md for the workloads, the
// metrics and the layer -> metric -> workload map; run.py builds this
// binary and is the command to use.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    --work-dir <dir> [--commit <id>] [--rotate-us <n>]
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}. Any failed check makes the exit code non-zero.

#include <fcntl.h>
#include <linux/perf_event.h>
#include <sched.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ping_pair.h"
#include "fleet/shard_runner.h"
#include "layers.h"
#include "net/wired_link.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/registry_io.h"
#include "rtc/media.h"
#include "scenario/call_experiment.h"
#include "scenario/wild_population.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "transport/tcp_reno.h"
#include "wifi/edca.h"
#include "wifi/rate_table.h"

namespace kwikr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : stats::Percentile(values, 50.0);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- workloads ----

enum class Kind { kWild, kSaturated, kQuiet };

constexpr sim::Duration kCallDuration = sim::Seconds(60);
/// p95 needs at least ten samples beyond it.
constexpr std::uint64_t kMinCalls = 200;
/// Warm-up calls use this seed, not --seed, so set-up time does not depend
/// on which environment a seed happens to draw first.
constexpr std::uint64_t kWarmupSeed = 0x5EED5EED;
/// quiet_fleet's fork count (on a 4-core host, two cores stay free).
constexpr int kFleetProcesses = 2;
constexpr std::uint64_t kCheckpointEvery = 16;
/// What ReferenceMs takes at reference speed: its median on the 4-vCPU
/// Xeon VM this benchmark was tuned on, in a typical period.
constexpr double kReferenceMs = 1.4;
/// Cold set-ups per run, for the median setup_s.
constexpr int kColdSetups = 7;

struct WorkloadSpec {
  Kind kind;
  const char* name;
  /// Calls per --seconds: sized so a run fills --seconds on a 4-core Xeon.
  /// The call count is fixed by --seconds, not by a wall-clock deadline, so
  /// two builds compared on one seed run exactly the same calls.
  double calls_per_second;
  /// Calls in the traced run (each is run once untraced, once traced).
  std::uint64_t traced_calls;
};

constexpr WorkloadSpec kWorkloads[] = {
    {Kind::kWild, "wild_population", 14.0, 40},
    {Kind::kSaturated, "saturated_cell", 8.5, 24},
    {Kind::kQuiet, "quiet_fleet", 150.0, 120},
};

/// One call task's outputs.
struct CallOutput {
  std::string line;  ///< canonical scenario::EncodeWildCallLine bytes.
  std::string timeline;
  scenario::WildCallResult result;
  double call_seconds = 0.0;  ///< simulated call-seconds (both arms).
  bool cross_traffic = false;
  transport::CcAlgorithm cc = transport::CcAlgorithm::kReno;
  wifi::QdiscKind qdisc = wifi::QdiscKind::kDropTail;
  // The call's configuration, as the per-layer drivers' inputs need it.
  std::int64_t client_rate_bps = 0;
  int cross_stations = 0;
  int flows = 0;  ///< cross TCP flows.
  bool timeline_on = false;
};

void Describe(const scenario::ExperimentConfig& config, CallOutput* out) {
  out->cross_traffic = config.cross_stations > 0;
  out->cc = config.cross_cc;
  out->qdisc = config.qdisc.kind;
  out->client_rate_bps = config.client_rate_bps;
  out->cross_stations = config.cross_stations;
  out->flows = config.cross_stations * config.flows_per_station;
  out->timeline_on = config.timeline.enabled;
}

/// Where a traced call records: the registry and the loop profile.
struct TraceSink {
  obs::MetricsRegistry* registry = nullptr;
  bool profile_loop = false;
};

double PercentileMs(const std::vector<core::PingPairSample>& samples,
                    sim::Duration core::PingPairSample::*field) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const auto& s : samples) ms.push_back(sim::ToMillis(s.*field));
  return stats::Percentile(ms, 95.0);
}

/// The population's per-environment result, built the way the scenario
/// layer pairs its arms. `baseline` is null for single-arm workloads.
scenario::WildCallResult ToResult(const scenario::ExperimentConfig& config,
                                  const scenario::ExperimentMetrics* baseline,
                                  const scenario::ExperimentMetrics& kwikr) {
  scenario::WildCallResult r;
  const scenario::CallMetrics& k = kwikr.calls[0];
  r.p95_tq_ms = PercentileMs(k.probe_samples, &core::PingPairSample::tq);
  r.p95_ta_ms = PercentileMs(k.probe_samples, &core::PingPairSample::ta);
  r.p95_tc_ms = PercentileMs(k.probe_samples, &core::PingPairSample::tc);
  r.probe_samples = static_cast<int>(k.probe_samples.size());
  r.kwikr_rate_kbps = k.mean_rate_kbps;
  r.kwikr_loss_pct = k.loss_pct;
  r.kwikr_rtt_p50_ms = stats::Percentile(k.rtt_ms, 50.0);
  r.events_executed = kwikr.events_executed;
  if (baseline != nullptr) {
    const scenario::CallMetrics& b = baseline->calls[0];
    r.baseline_rate_kbps = b.mean_rate_kbps;
    r.baseline_loss_pct = b.loss_pct;
    r.baseline_rtt_p50_ms = stats::Percentile(b.rtt_ms, 50.0);
    r.events_executed += baseline->events_executed;
  }
  r.wmm_enabled = config.wmm_enabled;
  r.cross_stations = config.cross_stations;
  return r;
}

class Workload {
 public:
  Workload(const WorkloadSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {
    wild_.base_seed = seed;
    wild_.call_duration = kCallDuration;
    wild_.jobs = 1;
  }

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  /// Runs call `index` of this workload's population (seeded by --seed),
  /// or of the warm-up population when `warmup`.
  CallOutput Run(std::uint64_t index, TraceSink trace = {},
                 bool warmup = false) const {
    const std::uint64_t seed = warmup ? kWarmupSeed : seed_;
    if (spec_.kind == Kind::kWild) return RunWild(seed, index, trace);
    scenario::ExperimentConfig config = SingleArmConfig(seed, index);
    config.metrics = trace.registry;
    config.profile_loop = trace.profile_loop;
    obs::MetricsRegistry chunk_registry;
    if (spec_.kind == Kind::kQuiet && config.metrics == nullptr) {
      config.metrics = &chunk_registry;  // the registry is part of the load.
    }
    const scenario::ExperimentMetrics metrics =
        scenario::RunCallExperiment(config);
    CallOutput out;
    out.result = ToResult(config, nullptr, metrics);
    out.line = scenario::EncodeWildCallLine(index, out.result);
    out.timeline = metrics.timeline_jsonl;
    out.call_seconds = sim::ToSeconds(config.duration);
    Describe(config, &out);
    return out;
  }

 private:
  /// saturated_cell and quiet_fleet: one Kwikr call per task.
  [[nodiscard]] scenario::ExperimentConfig SingleArmConfig(
      std::uint64_t seed, std::uint64_t index) const {
    scenario::ExperimentConfig config;
    config.seed = sim::Rng(seed).Fork(index).Next();
    config.duration = kCallDuration;
    config.calls = {scenario::CallConfig{}};
    config.calls[0].kwikr = true;
    if (spec_.kind == Kind::kSaturated) {
      // 3 stations x 12 TCP flows from t=1 s to the end; the CC x qdisc
      // grid rotates with the index.
      config.cross_stations = 3;
      config.flows_per_station = 12;
      config.congestion_start = sim::Seconds(1);
      config.congestion_end = kCallDuration;
      config.cross_cc = index % 2 == 0 ? transport::CcAlgorithm::kReno
                                       : transport::CcAlgorithm::kCubic;
      constexpr wifi::QdiscKind kQdiscs[] = {wifi::QdiscKind::kDropTail,
                                             wifi::QdiscKind::kCoDel,
                                             wifi::QdiscKind::kFqCoDel};
      config.qdisc.kind = kQdiscs[(index / 2) % 3];
    } else {
      config.cross_stations = 0;
      config.dual_ping_pair = true;
      config.timeline.enabled = true;
      config.timeline.series_capacity = 128;
      config.timeline.call_index = static_cast<std::int64_t>(index);
    }
    return config;
  }

  CallOutput RunWild(std::uint64_t seed, std::uint64_t index,
                     TraceSink trace) const {
    scenario::WildConfig wild = wild_;
    wild.base_seed = seed;
    CallOutput out;
    out.call_seconds = 2.0 * sim::ToSeconds(kCallDuration);
    if (!trace.profile_loop) {
      wild.metrics = trace.registry;
      bool got = false;
      scenario::RunWildRange(
          wild, index, index + 1,
          [&](std::uint64_t, scenario::WildCallResult&& result) {
            out.result = std::move(result);
            got = true;
          });
      if (!got) throw std::runtime_error("RunWildRange produced no result");
    } else {
      // WildConfig cannot switch on the loop profile, so the traced run
      // replays the environment's two arms through RunCallExperiment. The
      // traced run checks the replayed line against RunWildRange's bytes.
      scenario::ExperimentConfig config = MirrorWildDraw(wild, index);
      config.metrics = trace.registry;
      config.profile_loop = true;
      const scenario::ExperimentMetrics baseline =
          scenario::RunCallExperiment(config);
      config.calls[0].kwikr = true;
      const scenario::ExperimentMetrics kwikr =
          scenario::RunCallExperiment(config);
      out.result = ToResult(config, &baseline, kwikr);
      Describe(config, &out);
    }
    out.line = scenario::EncodeWildCallLine(index, out.result);
    out.cross_traffic = out.result.cross_stations > 0;
    return out;
  }

  /// The fig10 environment draw for `index`, step for step as
  /// scenario::RunWildRange takes it from (base_seed, index).
  static scenario::ExperimentConfig MirrorWildDraw(
      const scenario::WildConfig& wild, std::uint64_t index) {
    sim::Rng rng = sim::Rng(wild.base_seed).Fork(index);
    scenario::ExperimentConfig config;
    config.seed = rng.Next();
    config.duration = wild.call_duration;
    config.band =
        rng.Bernoulli(0.5) ? wifi::Band::k2_4GHz : wifi::Band::k5GHz;
    config.wmm_enabled = rng.Bernoulli(wild.wmm_probability);
    const auto rates = wifi::McsRates(config.band);
    config.client_rate_bps = rates[static_cast<std::size_t>(
        rng.UniformInt(2, static_cast<std::int64_t>(rates.size()) - 1))];
    if (rng.Bernoulli(0.4)) {
      config.cross_stations = 0;
    } else {
      config.cross_stations = static_cast<int>(rng.UniformInt(1, 3));
      config.flows_per_station = static_cast<int>(rng.UniformInt(1, 12));
      const double len_frac = rng.Uniform(0.15, 0.5);
      const double start_frac = rng.Uniform(0.05, 0.9 - len_frac * 0.9);
      const auto duration = static_cast<double>(wild.call_duration);
      config.congestion_start =
          static_cast<sim::Time>(start_frac * duration);
      config.congestion_end =
          static_cast<sim::Time>((start_frac + len_frac) * duration);
    }
    config.calls = {scenario::CallConfig{}};
    return config;
  }

  WorkloadSpec spec_;
  std::uint64_t seed_;
  scenario::WildConfig wild_;
};

// -------------------------------------------------------- checks/helpers ----

bool AllFinite(const scenario::WildCallResult& r) {
  for (double v : {r.p95_tq_ms, r.p95_ta_ms, r.p95_tc_ms, r.baseline_rate_kbps,
                   r.kwikr_rate_kbps, r.baseline_loss_pct, r.kwikr_loss_pct,
                   r.baseline_rtt_p50_ms, r.kwikr_rtt_p50_ms}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Decode then encode must give back the line byte for byte, and every
/// field must be finite.
bool LineIsCanonical(const std::string& line, std::uint64_t index) {
  std::uint64_t decoded_index = 0;
  scenario::WildCallResult result;
  if (!scenario::DecodeWildCallLine(line, &decoded_index, &result)) {
    return false;
  }
  return decoded_index == index && AllFinite(result) &&
         scenario::EncodeWildCallLine(decoded_index, result) == line;
}

std::uint64_t ReadStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

void Fail(std::vector<std::string>& problems, std::string what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  problems.push_back(std::move(what));
}

/// FNV-1a over every canonical line, in index order.
std::uint64_t Digest(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& line : lines) {
    for (unsigned char c : line) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// The merged artifacts of a sweep: the fig10 delay-distribution table
/// over the calls' p95 Ping-Pair decomposition, plus the result lines.
void WriteArtifacts(const std::string& dir,
                    const std::vector<std::string>& lines) {
  constexpr stats::Histogram::Config kBinning{0.0, 1000.0, 2048};
  stats::Histogram tq(kBinning);
  stats::Histogram ta(kBinning);
  stats::Histogram tc(kBinning);
  stats::Histogram rate(stats::Histogram::Config{0.0, 5000.0, 1000});
  std::ofstream results(dir + "/results.jsonl",
                        std::ios::binary | std::ios::trunc);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::uint64_t index = 0;
    scenario::WildCallResult r;
    if (!scenario::DecodeWildCallLine(lines[i], &index, &r)) continue;
    tq.Add(r.p95_tq_ms);
    ta.Add(r.p95_ta_ms);
    tc.Add(r.p95_tc_ms);
    rate.Add(r.kwikr_rate_kbps);
    results << lines[i];
  }
  std::ofstream out(dir + "/percentiles.json",
                    std::ios::binary | std::ios::trunc);
  char buffer[160];
  out << "{\"calls\":" << lines.size();
  for (const auto& [name, h] :
       {std::pair<const char*, const stats::Histogram*>{"tq_ms", &tq},
        {"ta_ms", &ta},
        {"tc_ms", &tc},
        {"rate_kbps", &rate}}) {
    std::snprintf(buffer, sizeof(buffer),
                  ",\"%s\":{\"p50\":%.17g,\"p90\":%.17g,\"p95\":%.17g}", name,
                  h->Percentile(50.0), h->Percentile(90.0),
                  h->Percentile(95.0));
    out << buffer;
  }
  out << "}\n";
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// ------------------------------------------------------------ the report ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------- host record ----

bool PerfCounterWorks(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintFingerprint(const std::string& commit) {
  std::printf(
      "host: {\"commit\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
      "\"cpu\": \"%s\", \"hw_instructions\": %s, \"sw_task_clock\": %s}\n",
      commit.c_str(), PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      PerfCounterWorks(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS)
          ? "true"
          : "false",
      PerfCounterWorks(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK)
          ? "true"
          : "false");
}

// --------------------------------------------------------------- options ----

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
  /// CPU rotation period (CpuRotor); 0 leaves threads where the scheduler
  /// puts them. Only for measuring what rotation costs (README.md).
  long rotate_us = 25000;
  /// Set-up probe mode: set up as a run does, write the instant of the
  /// first timed call to this file and stop (see ColdSetups).
  std::string setup_probe;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--commit") {
      options->commit = value;
    } else if (flag == "--rotate-us") {
      options->rotate_us = std::strtol(value.c_str(), nullptr, 10);
    } else if (flag == "--setup-probe") {
      options->setup_probe = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->work_dir.empty() && options->seconds > 0.0 &&
         options->rotate_us >= 0;
}

// ------------------------------------------------------------- the run ----

/// One completed call task, in seconds on its worker's sweep clock: host
/// time since the sweep began, less the reference and merge samples.
struct CallSpan {
  double begin = 0.0;
  double end = 0.0;
  double call_seconds = 0.0;  ///< simulated.
  double reference_ms = 0.0;  ///< the host-speed reference right after it.
  int worker = 0;
};

/// Per-call host spans and result lines of a sweep, in index order.
struct Sweep {
  std::vector<CallSpan> spans;
  std::vector<std::string> lines;
  double wall_s = 0.0;
  Clock::time_point first_call;  ///< when the first timed call began.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t peak_worker_rss_kb = 0;
  std::uint64_t spill_bytes = 0;
  double merge_s = 0.0;       ///< at reference speed.
  double merge_host_s = 0.0;  ///< as the host ran it.
  std::size_t merge_reps = 0;
};

/// Moves the thread that creates it over every CPU the process may use,
/// to the next one every `period` (25 ms by default), from a helper thread,
/// until destroyed; a zero period leaves the thread alone. On a shared
/// 4-vCPU Xeon VM the vCPUs were measured to differ in speed by up to
/// ~1.45x at a time (other tenants on their sibling threads), and which
/// ones are slow changes over tens of seconds. Left where the scheduler
/// puts it, a sweep measures the luck of the CPUs it happened to sit on;
/// rotated, every CPU carries the same share of every sweep. Lane `lane` of
/// `lanes` runs `lane * n / lanes` CPUs ahead, and every lane moves at the
/// same instants of the shared monotonic clock, so fleet workers never
/// share a CPU.
class CpuRotor {
 public:
  CpuRotor(std::size_t lane, std::size_t lanes, long period_us)
      : tid_(static_cast<pid_t>(syscall(SYS_gettid))), period_(period_us) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
      }
    }
    if (period_.count() > 0 && cpus_.size() >= 2 && lanes <= cpus_.size()) {
      offset_ = lane * cpus_.size() / lanes;
      thread_ = std::thread([this] { Rotate(); });
    }
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  ~CpuRotor() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    if (!thread_.joinable()) return;
    thread_.join();
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int cpu : cpus_) CPU_SET(cpu, &all);
    sched_setaffinity(tid_, sizeof(all), &all);
  }

 private:
  void Rotate() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      const auto tick = Clock::now().time_since_epoch() / period_;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[(static_cast<std::size_t>(tick) + offset_) % cpus_.size()],
              &one);
      sched_setaffinity(tid_, sizeof(one), &one);
      wake_.wait_until(lock, Clock::time_point((tick + 1) * period_),
                       [this] { return stop_; });
    }
  }

  const pid_t tid_;
  const std::chrono::microseconds period_;
  std::vector<int> cpus_;
  std::size_t offset_ = 0;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  ///< guarded by mutex_.
  std::thread thread_;
};

/// Host-speed reference: fixed work that shares no code with the simulator
/// but is of its kind (take the earliest of 64 pending timestamps, push a
/// later one, update a random cell of a 512 KiB table with an integer
/// division), timed on the calling thread between calls. On the 4-vCPU VM
/// this benchmark was tuned on, the host's speed swings by up to 2x over
/// minutes as other tenants come and go: one saturated_cell run took
/// 118 ms per call, a run minutes later 173 ms and a later one 80 ms. The
/// reference slows with the calls, so the timing metrics are reported at
/// the speed where it takes kReferenceMs (README.md, "Host speed").
double ReferenceMs() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 16, 1);
  static volatile std::uint64_t sink = 0;
  std::vector<std::uint64_t> heap;
  heap.reserve(64);
  for (std::uint64_t i = 0; i < 64; ++i) heap.push_back(i);
  const auto later = std::greater<std::uint64_t>();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  const auto begin = Clock::now();
  for (int step = 0; step < 20'000; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::uint64_t t = heap.back();
    std::uint64_t& cell = table[x & 0xFFFF];
    cell += t / ((x >> 40) | 1);
    acc += cell;
    heap.back() = t + (x & 1023);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double ms = SecondsSince(begin) * 1e3;
  sink = sink + acc;
  return ms;
}

/// kReferenceMs over the median of three reference timings: what takes a
/// time measured now to reference speed.
double ReferenceFactor() {
  return kReferenceMs / Median({ReferenceMs(), ReferenceMs(), ReferenceMs()});
}

/// Times the reference once and adds the time it took to `*paused`, the
/// share of the clock the sweep's timing leaves out.
double TimeReference(double* paused) {
  const auto begin = Clock::now();
  const double ms = ReferenceMs();
  *paused += SecondsSince(begin);
  return ms;
}

/// Repeats a step for about a second (at least three times), each
/// repetition followed by a reference timing, and stores the median
/// repetition at reference speed and as the host ran it.
void TimeMerge(const std::function<void()>& step, Sweep* sweep) {
  constexpr double kWindowS = 1.0;
  std::vector<double> host;
  std::vector<double> at_reference;
  const auto window_begin = Clock::now();
  while (host.size() < 3 || SecondsSince(window_begin) < kWindowS) {
    const auto begin = Clock::now();
    step();
    host.push_back(SecondsSince(begin));
    at_reference.push_back(host.back() * kReferenceMs / ReferenceMs());
  }
  sweep->merge_reps = host.size();
  sweep->merge_host_s = Median(host);
  sweep->merge_s = Median(at_reference);
}

/// Per call of `sweep`, the factor that takes its host time to reference
/// speed: kReferenceMs over the median reference time of the nine calls
/// around it on the same worker. All 1 for the host's own figures.
std::vector<double> SpeedFactors(const Sweep& sweep, bool at_reference) {
  const std::size_t n = sweep.spans.size();
  std::vector<double> factors(n, 1.0);
  if (!at_reference) return factors;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> near;
    for (std::size_t j = i >= 4 ? i - 4 : 0; j < std::min(n, i + 5); ++j) {
      if (sweep.spans[j].worker == sweep.spans[i].worker) {
        near.push_back(sweep.spans[j].reference_ms);
      }
    }
    factors[i] = kReferenceMs / Median(near);
  }
  return factors;
}

std::vector<double> WallMs(const Sweep& sweep,
                           const std::vector<double>& factors) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < sweep.spans.size(); ++i) {
    ms.push_back((sweep.spans[i].end - sweep.spans[i].begin) * 1e3 *
                 factors[i]);
  }
  return ms;
}

/// Simulated call-seconds per host second, summed over the workers. A
/// worker's host time runs from its first call's start to its last call's
/// end; each stretch from one call's end to the next one's is taken at
/// that call's speed factor.
double CallSecondsPerSecond(const Sweep& sweep,
                            const std::vector<double>& factors) {
  std::map<int, std::pair<double, double>> workers;  // call-seconds, time.
  std::map<int, double> last_end;
  for (std::size_t i = 0; i < sweep.spans.size(); ++i) {
    const CallSpan& span = sweep.spans[i];
    const auto it = last_end.find(span.worker);
    const double from = it == last_end.end() ? span.begin : it->second;
    workers[span.worker].first += span.call_seconds;
    workers[span.worker].second += (span.end - from) * factors[i];
    last_end[span.worker] = span.end;
  }
  double rate = 0.0;
  for (const auto& [worker, done] : workers) {
    rate += Ratio(done.first, done.second);
  }
  return rate;
}

/// wild_population and saturated_cell: closed loop on one thread, the
/// host-speed reference timed after every call on a clock the sweep's own
/// timing excludes.
///
/// Their merge (results in RAM to the artifact files) takes about a
/// millisecond, so it is sampled through the second half of the sweep
/// instead of once after it: every fifth call, the artifacts of the lines
/// so far are written and the cost per line recorded at reference speed,
/// on the excluded clock too. merge_s is the median cost per line times the
/// sweep's line count.
Sweep RunInProcess(const Workload& workload, std::uint64_t calls,
                   const std::string& dir) {
  Sweep sweep;
  sweep.spans.reserve(calls);
  sweep.lines.reserve(calls);
  const auto begin = Clock::now();
  sweep.first_call = begin;
  double paused = 0.0;  // references and merge samples, kept out.
  const auto now = [&] { return SecondsSince(begin) - paused; };
  std::vector<double> merge_per_line;  // at reference speed.
  std::vector<double> host_per_line;
  for (std::uint64_t i = 0; i < calls; ++i) {
    ++sweep.attempted;
    const double call_begin = now();
    try {
      CallOutput out = workload.Run(i);
      const double call_end = now();
      sweep.spans.push_back(CallSpan{call_begin, call_end, out.call_seconds,
                                     TimeReference(&paused), 0});
      sweep.lines.push_back(std::move(out.line));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: call %llu threw: %s\n",
                   static_cast<unsigned long long>(i), e.what());
      ++sweep.failed;
      sweep.lines.emplace_back();
    }
    if ((i + 1) % 5 == 0 && 2 * (i + 1) >= calls) {
      const auto merge_begin = Clock::now();
      WriteArtifacts(dir, sweep.lines);
      const double s = SecondsSince(merge_begin);
      paused += s;
      host_per_line.push_back(s / static_cast<double>(sweep.lines.size()));
      merge_per_line.push_back(host_per_line.back() * kReferenceMs /
                               TimeReference(&paused));
    }
  }
  sweep.wall_s = now();
  WriteArtifacts(dir, sweep.lines);  // the final artifacts.
  sweep.merge_reps = merge_per_line.size();
  sweep.merge_s =
      Median(merge_per_line) * static_cast<double>(sweep.lines.size());
  sweep.merge_host_s =
      Median(host_per_line) * static_cast<double>(sweep.lines.size());
  return sweep;
}

fleet::ShardRunnerConfig FleetConfig(const std::string& dir,
                                     std::uint64_t calls, std::uint64_t seed) {
  fleet::ShardRunnerConfig config;
  config.total_items = calls;
  config.processes = kFleetProcesses;
  config.spill_dir = dir;
  config.checkpoint_every = kCheckpointEvery;
  config.fingerprint = "perfbench;quiet_fleet;seed=" + std::to_string(seed) +
                       ";calls=" + std::to_string(calls);
  return config;
}

/// quiet_fleet: forked ShardRunner workers spill-stream results, timelines
/// and chunk registries into `dir`. Each worker times the host-speed
/// reference after every call, on a clock its call timing excludes, and
/// appends its per-call host walls to a file of its own in `<dir>-walls`,
/// outside the spills. The sweep's clock starts at the first call any
/// worker begins, so the forks count in set-up, not in the sweep.
Sweep RunFleet(const Workload& workload, std::uint64_t calls,
               const Options& options, const std::string& dir) {
  Sweep sweep;
  const fleet::ShardRunnerConfig config = FleetConfig(dir, calls, options.seed);
  const std::string walls_dir = dir + "-walls";
  ResetDir(walls_dir);
  // steady_clock is CLOCK_MONOTONIC, one clock for every process.
  const auto runner_begin = Clock::now();
  double paused = 0.0;  // each forked worker keeps its own copy.
  fleet::ShardRunner runner(
      config, [&](std::uint64_t begin, std::uint64_t end) {
        fleet::ChunkOutput out;
        obs::MetricsRegistry chunk_registry;
        std::string walls;
        // Workers own contiguous index ranges; the lane is the worker's.
        const int lane =
            begin >= fleet::PartitionItems(calls, kFleetProcesses, 1).begin
                ? 1
                : 0;
        const CpuRotor rotor(lane, kFleetProcesses, options.rotate_us);
        for (std::uint64_t i = begin; i < end; ++i) {
          const double call_begin = SecondsSince(runner_begin) - paused;
          bool ok = true;
          CallOutput call;
          try {
            // One registry per chunk, serialized once, as fig10's spill
            // mode does.
            call = workload.Run(i, TraceSink{&chunk_registry, false});
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: call %llu threw: %s\n",
                         static_cast<unsigned long long>(i), e.what());
            ok = false;
            call.line =
                scenario::EncodeWildCallLine(i, scenario::WildCallResult{});
          }
          const double call_end = SecondsSince(runner_begin) - paused;
          walls += std::to_string(i) + " " + FormatNumber(call_begin) + " " +
                   FormatNumber(call_end) + (ok ? " 1 " : " 0 ") +
                   FormatNumber(TimeReference(&paused)) + " " +
                   std::to_string(lane) + "\n";
          out.results_jsonl += call.line;
          out.timeline_jsonl += call.timeline;
        }
        out.metrics_jsonl = obs::SerializeRegistry(chunk_registry);
        std::ofstream(walls_dir + "/walls." + std::to_string(getpid()) +
                          ".txt",
                      std::ios::app)
            << walls;
        return out;
      });
  const fleet::ShardRunStatus status = runner.Run();
  const double run_end = SecondsSince(runner_begin);
  sweep.attempted = calls;
  sweep.peak_worker_rss_kb = status.peak_worker_rss_kb;
  if (!status.ok) {
    std::fprintf(stderr, "perfbench: fleet run failed: %s\n",
                 status.error.c_str());
    sweep.failed = calls;
    return sweep;
  }

  std::vector<CallSpan> spans(calls, CallSpan{0.0, -1.0, 0.0});
  for (const auto& entry : std::filesystem::directory_iterator(walls_dir)) {
    std::ifstream in(entry.path());
    std::uint64_t index = 0;
    CallSpan span{0.0, 0.0, sim::ToSeconds(kCallDuration)};
    int ok = 0;
    while (in >> index >> span.begin >> span.end >> ok >> span.reference_ms >>
           span.worker) {
      if (index < calls && ok == 1) spans[index] = span;
    }
  }
  double first = run_end;
  for (const auto& span : spans) {
    if (span.end < 0.0) {
      ++sweep.failed;
    } else {
      first = std::min(first, span.begin);
      sweep.spans.push_back(span);
    }
  }
  for (auto& span : sweep.spans) {
    span.begin -= first;
    span.end -= first;
  }
  sweep.first_call = runner_begin + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(first));
  sweep.wall_s = run_end - first;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) sweep.spill_bytes += entry.file_size();
  }
  return sweep;
}

/// The fleet's merge to the final artifacts: results in index order, the
/// merged registry as Prometheus text, the index-ordered timeline. Repeated
/// for about a second; merge_s is the median repetition.
void MergeFleet(std::uint64_t calls, const Options& options,
                const std::string& dir, Sweep& sweep,
                obs::MetricsRegistry* merged_registry) {
  const fleet::ShardRunnerConfig config = FleetConfig(dir, calls, options.seed);
  const std::string merged = dir + "/merged";
  std::filesystem::create_directories(merged);
  fleet::MergeStatus merge;
  TimeMerge([&] {
    sweep.lines.assign(calls, std::string());
    obs::MetricsRegistry registry;
    std::ofstream timeline(merged + "/timeline.jsonl",
                           std::ios::binary | std::ios::trunc);
    fleet::MergeConsumer consumer;
    consumer.on_result_line = [&](std::uint64_t index, std::string_view line) {
      if (index < calls) sweep.lines[index] = line;
    };
    consumer.metrics = &registry;
    consumer.on_timeline = [&](std::string_view bytes) {
      timeline.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };
    merge = fleet::MergeShardSpills(config, consumer);
    WriteArtifacts(merged, sweep.lines);
    obs::WritePrometheus(registry, merged + "/metrics.prom");
    if (merged_registry != nullptr && merged_registry->size() == 0) {
      merged_registry->Merge(registry);
    }
  }, &sweep);
  sweep.peak_worker_rss_kb =
      std::max(sweep.peak_worker_rss_kb, merge.peak_worker_rss_kb);
  if (!merge.ok || !merge.complete || merge.items != calls) {
    std::fprintf(stderr, "perfbench: merge failed: %s\n", merge.error.c_str());
    sweep.failed = calls;
  }
}

/// Checks every line of `sweep` and replays four of its calls in this
/// process; returns the number of call tasks that failed a check.
std::uint64_t CheckSweep(const Workload& workload, const Sweep& sweep,
                         std::vector<std::string>& problems) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < sweep.lines.size(); ++i) {
    if (sweep.lines[i].empty()) continue;  // already counted as thrown.
    if (!LineIsCanonical(sweep.lines[i], i)) {
      Fail(problems, "call " + std::to_string(i) +
                         ": result line is not canonical or not finite");
      ++bad;
    }
  }
  const std::size_t n = sweep.lines.size();
  const bool fleet = workload.spec().kind == Kind::kQuiet;
  for (std::size_t i : {std::size_t{0}, n / 3, n / 2, n - 1}) {
    if (i >= n || sweep.lines[i].empty()) continue;
    const std::string replay = workload.Run(i).line;
    if (replay != sweep.lines[i]) {
      Fail(problems, "call " + std::to_string(i) +
                         (fleet ? ": merged result differs from an "
                                  "in-process rerun"
                                : ": replay in the same process differs"));
      ++bad;
    }
  }
  return bad;
}

/// Everything before the first timed call but the fleet's forks: a fresh
/// work directory and one untimed warm-up call.
void SetUp(const Workload& workload, const std::string& dir) {
  ResetDir(dir);
  (void)workload.Run(0, TraceSink{}, /*warmup=*/true);
}

/// Set-up and `calls` timed calls (no merge).
Sweep RunSweep(const Workload& workload, const Options& options,
               std::uint64_t calls) {
  const std::string dir = options.work_dir + "/sweep";
  const bool fleet = workload.spec().kind == Kind::kQuiet;
  Sweep sweep;
  {
    const CpuRotor rotor(0, 1, options.rotate_us);
    SetUp(workload, dir);
    if (!fleet) sweep = RunInProcess(workload, calls, dir);
  }
  // The fleet workers rotate themselves; no rotor thread may be live in
  // this process when it forks.
  if (fleet) sweep = RunFleet(workload, calls, options, dir);
  return sweep;
}

/// Set-up probe mode: set up exactly as a run does (the fleet forks its
/// workers and they begin one call each), then write the instant of the
/// first timed call, in steady_clock nanoseconds, to `options.setup_probe`.
int RunSetupProbe(const Workload& workload, const Options& options) {
  const bool fleet = workload.spec().kind == Kind::kQuiet;
  const Sweep sweep =
      RunSweep(workload, options, fleet ? kFleetProcesses : 0);
  if (sweep.failed > 0) return 1;
  std::ofstream(options.setup_probe)
      << std::chrono::duration_cast<std::chrono::nanoseconds>(
             sweep.first_call.time_since_epoch())
             .count()
      << "\n";
  return 0;
}

/// setup_s samples, as the host ran them and at reference speed.
struct Setups {
  std::vector<double> host;
  std::vector<double> at_reference;
};

/// setup_s samples, each cold: a fresh process of this binary in set-up
/// probe mode (stdout to /dev/null), timed from just before it is spawned
/// to the instant it reports. Process start, loading, first-touch
/// allocation and one-time initialisation all fall inside. steady_clock is
/// CLOCK_MONOTONIC, so the child's instant is on the parent's clock. The
/// host-speed reference is timed three times after each.
Setups ColdSetups(const Options& options, int count) {
  Setups setups;
  for (int i = 0; i < count; ++i) {
    const std::string dir = options.work_dir + "/setup" + std::to_string(i);
    const std::string instant_file = dir + ".ns";
    const std::vector<std::string> args = {
        "/proc/self/exe", "--workload", options.workload,
        "--seed", std::to_string(options.seed),
        "--seconds", FormatNumber(options.seconds),
        "--trace", "0",
        "--work-dir", dir,
        "--rotate-us", std::to_string(options.rotate_us),
        "--setup-probe", instant_file};
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const auto begin = Clock::now();
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    int status = 0;
    if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up probe " + std::to_string(i) +
                               " failed");
    }
    std::int64_t instant_ns = 0;
    if (!(std::ifstream(instant_file) >> instant_ns)) {
      throw std::runtime_error("set-up probe " + std::to_string(i) +
                               " wrote no instant");
    }
    setups.host.push_back(
        static_cast<double>(
            instant_ns - std::chrono::duration_cast<std::chrono::nanoseconds>(
                             begin.time_since_epoch())
                             .count()) /
        1e9);
    setups.at_reference.push_back(setups.host.back() * ReferenceFactor());
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "-walls");
    std::filesystem::remove(instant_file);
  }
  return setups;
}

std::uint64_t CallsFor(const WorkloadSpec& spec, double seconds) {
  return std::max<std::uint64_t>(
      kMinCalls,
      static_cast<std::uint64_t>(std::llround(spec.calls_per_second * seconds)));
}

int RunEndToEnd(const Workload& workload, const Options& options,
                Clock::time_point main_begin) {
  const WorkloadSpec& spec = workload.spec();
  const std::uint64_t calls = CallsFor(spec, options.seconds);
  Sweep sweep = RunSweep(workload, options, calls);
  const double own_setup_s =
      std::chrono::duration<double>(sweep.first_call - main_begin).count();
  if (spec.kind == Kind::kQuiet && sweep.failed == 0) {
    MergeFleet(calls, options, options.work_dir + "/sweep", sweep, nullptr);
  }
  // setup_s: driver start to the first timed call, cold, repeated in fresh
  // processes after the sweep; the median is reported.
  const Setups setups = ColdSetups(options, kColdSetups);

  std::vector<std::string> problems;
  const std::uint64_t thrown = sweep.failed;
  if (thrown > 0) Fail(problems, std::to_string(thrown) + " call tasks failed");
  const std::uint64_t bad = sweep.spans.empty()
                                ? 0
                                : CheckSweep(workload, sweep, problems);
  const std::uint64_t failed = std::min(sweep.attempted, thrown + bad);

  const double peak_rss_mb =
      static_cast<double>(std::max(ReadStatusKb("VmHWM:"),
                                   sweep.peak_worker_rss_kb)) /
      1024.0;
  std::printf("workload %s seed %llu: %zu calls timed in %.3f s\n", spec.name,
              static_cast<unsigned long long>(options.seed),
              sweep.spans.size(), sweep.wall_s);
  std::printf("  %-28s %16.6f ratio (%llu of %llu call tasks)\n",
              "failed_frac",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, sweep.attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(sweep.attempted));
  std::printf("  samples: call_ms n=%zu, setup_s n=%zu (this process, from "
              "main: %.6f s), merge_s n=%zu\n",
              sweep.spans.size(), setups.host.size(), own_setup_s,
              sweep.merge_reps);
  std::vector<double> references;
  for (const auto& span : sweep.spans) references.push_back(span.reference_ms);
  const std::vector<double> host = SpeedFactors(sweep, false);
  std::printf(
      "  as the host ran: call_seconds_per_s %.6f, call_ms_p50 %.6f, "
      "call_ms_p95 %.6f, setup_s %.6f, merge_s %.6f; reference median "
      "%.6f ms (%.6f ms at reference speed)\n",
      CallSecondsPerSecond(sweep, host),
      stats::Percentile(WallMs(sweep, host), 50.0),
      stats::Percentile(WallMs(sweep, host), 95.0), Median(setups.host),
      sweep.merge_host_s, Median(references), kReferenceMs);
  const std::vector<double> factors = SpeedFactors(sweep, true);
  const std::vector<Metric> metrics = {
      {"call_seconds_per_s", CallSecondsPerSecond(sweep, factors), "1/s"},
      {"call_ms_p50", stats::Percentile(WallMs(sweep, factors), 50.0), "ms"},
      {"call_ms_p95", stats::Percentile(WallMs(sweep, factors), 95.0), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setups.at_reference), "s"},
      {"merge_s", sweep.merge_s, "s"},
  };
  PrintResult(problems.empty(), sweep.attempted, failed, metrics);
  return problems.empty() ? 0 : 1;
}

// ------------------------------------------------------------ traced run ----

/// Per-call counts a traced call left in its registry.
struct Counts {
  std::map<std::string, double> events_by_type;
  double dispatched = 0.0;
  std::map<std::string, double> totals;  ///< `*_total` series, summed.
};

Counts ReadCounts(const obs::MetricsRegistry& registry) {
  Counts c;
  for (const auto& row : registry.Snapshot()) {
    if (row.kind != obs::MetricsRegistry::Row::Kind::kCounter) continue;
    const auto value = static_cast<double>(row.counter_value);
    if (row.name == "sim_events_total") {
      for (const auto& [key, label] : row.labels) {
        if (key == "type") c.events_by_type[label] += value;
      }
      c.dispatched += value;
    } else {
      c.totals[row.name] += value;
    }
  }
  return c;
}

double EventsWithPrefix(const Counts& c, const std::string& prefix) {
  double n = 0.0;
  for (const auto& [type, value] : c.events_by_type) {
    if (type.rfind(prefix, 0) == 0) n += value;
  }
  return n;
}

double Total(const Counts& c, const char* name) {
  const auto it = c.totals.find(name);
  return it == c.totals.end() ? 0.0 : it->second;
}

/// Median of every series of histogram `name` in `registry`, merged; 0 when
/// it holds no sample.
double HistogramMedian(const obs::MetricsRegistry& registry,
                       const char* name) {
  std::unique_ptr<stats::Histogram> merged;
  for (const auto& row : registry.Snapshot()) {
    if (row.kind != obs::MetricsRegistry::Row::Kind::kHistogram ||
        row.name != name) {
      continue;
    }
    if (merged == nullptr) {
      merged = std::make_unique<stats::Histogram>(row.histogram);
    } else {
      merged->Merge(row.histogram);
    }
  }
  return merged == nullptr || merged->count() == 0 ? 0.0
                                                   : merged->Percentile(50.0);
}

/// Scheduling delay of each dispatched event type, from the simulator's
/// defaults: EDCA backoff (AIFS + up to CWmin slots), a frame's airtime
/// from a TCP ACK to a full segment, the wired link's serialization of the
/// same sizes and its propagation, the periodic timers' periods (media
/// frames, media feedback, probe rounds, timeline samples when sampled; in
/// proportion to their firing rates), the RTO floor and the probe timeout.
/// Deliveries and untagged events run in the tick that schedules them.
std::vector<DelayClass> LoopMix(const Counts& c, std::int64_t phy_rate_bps,
                                bool timeline) {
  const wifi::PhyParams phy;
  const wifi::EdcaParams be =
      wifi::DefaultEdcaParams()[wifi::Index(wifi::AccessCategory::kBestEffort)];
  const net::WiredLink::Config wire;
  const transport::TcpSender::Config tcp;
  const std::int32_t ack = tcp.header_bytes;
  const std::int32_t segment = tcp.mss_bytes + tcp.header_bytes;
  std::vector<sim::Duration> periods = {
      rtc::MediaSender::Config{}.frame_interval,
      rtc::MediaReceiver::Config{}.feedback_interval,
      core::PingPairProber::Config{}.interval};
  if (timeline) {
    periods.push_back(scenario::ExperimentConfig::TimelineOptions{}.interval);
  }
  double timer_rate = 0.0;
  for (sim::Duration p : periods) timer_rate += 1.0 / sim::ToSeconds(p);

  std::vector<DelayClass> mix;
  for (const auto& [type, count] : c.events_by_type) {
    const double share = Ratio(count, c.dispatched);
    if (type == "wifi.arbitration") {
      mix.push_back({share, phy.Aifs(be), phy.Aifs(be) + be.cw_min * phy.slot});
    } else if (type == "wifi.tx_done" || type == "wifi.txop_burst") {
      mix.push_back({share, phy.FrameAirtime(ack, phy_rate_bps),
                     phy.FrameAirtime(segment, phy_rate_bps)});
    } else if (type == "net.wire_tx") {
      mix.push_back({share, sim::TransmissionTime(8 * ack, wire.rate_bps),
                     sim::TransmissionTime(8 * segment, wire.rate_bps)});
    } else if (type == "net.wire_prop") {
      mix.push_back({share, wire.propagation, wire.propagation});
    } else if (type == "timer") {
      for (sim::Duration p : periods) {
        mix.push_back({share / sim::ToSeconds(p) / timer_rate, p, p});
      }
    } else if (type == "tcp.rto") {
      mix.push_back({share, tcp.min_rto, tcp.min_rto});
    } else if (type == "probe.timeout") {
      const sim::Duration t = core::PingPairProber::Config{}.timeout;
      mix.push_back({share, t, t});
    } else {
      mix.push_back({share, 0, 0});
    }
  }
  return mix;
}

/// The traffic of `calls`, whose registries are merged in `registry`, as
/// the per-layer drivers replay it (README.md, "Driver inputs").
TrafficShape ShapeOf(const obs::MetricsRegistry& registry,
                     const std::vector<const CallOutput*>& calls) {
  const Counts c = ReadCounts(registry);
  const double n = static_cast<double>(std::max<std::size_t>(1, calls.size()));
  double seconds = 0.0;
  double rate = 0.0;
  double stations = 0.0;
  double flows = 0.0;
  bool timeline = false;
  for (const CallOutput* call : calls) {
    seconds += call->call_seconds;
    rate += static_cast<double>(call->client_rate_bps);
    stations += call->cross_stations;
    flows += call->flows;
    timeline = timeline || call->timeline_on;
  }
  seconds = std::max(seconds, 1e-9);
  TrafficShape s;
  s.phy_rate_bps = std::llround(rate / n);
  s.loop_mix = LoopMix(c, s.phy_rate_bps, timeline);
  double mean_delay_s = 0.0;
  for (const DelayClass& d : s.loop_mix) {
    mean_delay_s += d.share * sim::ToSeconds((d.lo + d.hi) / 2);
  }
  s.pending = c.dispatched / seconds * mean_delay_s;
  s.armed_timers = flows / n + 1.0;  // an RTO per flow, the probe timeout.

  const double ap = Total(c, "ap_delivered_total");
  const double drops = Total(c, "ap_queue_drops_total") +
                       Total(c, "qdisc_aqm_drops_total") +
                       Total(c, "qdisc_overflow_drops_total");
  s.stations = static_cast<int>(std::lround(stations / n)) + 1;
  s.ap_backlogged = drops > 0.0;
  s.ap_frames_per_s = ap / seconds;
  s.uplink_per_ap_frame =
      std::max(0.0, Ratio(EventsWithPrefix(c, "wifi.deliver") - ap, ap));
  const transport::TcpSender::Config tcp;
  s.downlink_bytes = flows > 0.0 ? tcp.mss_bytes + tcp.header_bytes
                                 : rtc::MediaSender::Config{}.max_packet_bytes;
  s.uplink_bytes = flows > 0.0 ? tcp.header_bytes
                               : core::PingPairProber::Config{}.ping_size_bytes;
  s.ap_offered_per_s = (Total(c, "qdisc_forwarded_total") + drops) / seconds;
  s.flows = std::max(1, static_cast<int>(std::lround(flows / n)));
  s.wire_packets_per_s = EventsWithPrefix(c, "net.wire_tx") / seconds;
  const double retransmitted = Total(c, "tcp_retransmissions_total");
  s.tcp_loss = Ratio(retransmitted,
                     Total(c, "tcp_segments_acked_total") + retransmitted);
  s.media_per_s = Total(c, "media_rx_packets_total") / seconds;
  s.tq = sim::Micros(
      static_cast<std::int64_t>(1e3 * HistogramMedian(registry, "probe_tq_ms")));
  return s;
}

/// Calls of a sibling workload traced for a shape the workload lacks.
constexpr std::uint64_t kSiblingCalls = 6;

/// The shape of the first kSiblingCalls traced calls of workload `kind`.
TrafficShape SiblingShape(Kind kind, std::uint64_t seed) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.kind == kind) spec = &w;
  }
  const Workload sibling(*spec, seed);
  obs::MetricsRegistry registry;
  std::vector<CallOutput> calls;
  for (std::uint64_t i = 0; i < kSiblingCalls; ++i) {
    calls.push_back(sibling.Run(i, TraceSink{&registry, true}));
  }
  std::vector<const CallOutput*> pointers;
  for (const auto& call : calls) pointers.push_back(&call);
  return ShapeOf(registry, pointers);
}

void PrintShape(const char* name, const TrafficShape& s) {
  std::printf(
      "  shape %s: pending %.1f, armed timers %.1f, phy %lld bps, stations "
      "%d, AP %s %.0f frames/s, uplink %.3f per AP frame, offered %.0f/s, "
      "flows %d, wire %.0f packets/s, tcp loss %.4f, media %.0f/s, Tq %.3f "
      "ms\n",
      name, s.pending, s.armed_timers, static_cast<long long>(s.phy_rate_bps),
      s.stations, s.ap_backlogged ? "backlogged" : "paced", s.ap_frames_per_s,
      s.uplink_per_ap_frame, s.ap_offered_per_s, s.flows,
      s.wire_packets_per_s, s.tcp_loss, s.media_per_s, sim::ToMillis(s.tq));
}

int RunTraced(const Workload& workload, const Options& options) {
  const WorkloadSpec& spec = workload.spec();
  const std::string dir = options.work_dir + "/traced";
  SetUp(workload, dir);
  std::vector<std::string> problems;

  // 1. The traced calls, each run untraced and traced (alternating which
  //    goes first), their walls taken to reference speed. Tracing must not
  //    change a result byte.
  const std::uint64_t k = spec.traced_calls;
  obs::MetricsRegistry merged_registry;
  obs::MetricsRegistry cross_registry;  // calls with cross traffic.
  obs::MetricsRegistry quiet_registry;  // calls without.
  std::vector<std::string> lines;
  std::vector<Counts> counts;
  std::vector<CallOutput> calls;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::uint64_t failed = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    obs::MetricsRegistry registry;
    CallOutput plain;
    CallOutput traced;
    double plain_ms = 0.0;
    double traced_ms_i = 0.0;
    try {
      for (int pass = 0; pass < 2; ++pass) {
        const bool trace_pass = (pass + i) % 2 == 1;
        const auto begin = Clock::now();
        if (trace_pass) {
          traced = workload.Run(i, TraceSink{&registry, true});
          traced_ms_i = SecondsSince(begin) * 1e3 * ReferenceFactor();
        } else {
          plain = workload.Run(i);
          plain_ms = SecondsSince(begin) * 1e3 * ReferenceFactor();
        }
      }
    } catch (const std::exception& e) {
      Fail(problems, "traced call " + std::to_string(i) + " threw: " + e.what());
      ++failed;
      continue;
    }
    if (plain.line != traced.line || !LineIsCanonical(plain.line, i)) {
      Fail(problems, "traced call " + std::to_string(i) +
                         ": traced and untraced results differ");
      ++failed;
    }
    merged_registry.Merge(registry);
    (traced.cross_traffic ? cross_registry : quiet_registry).Merge(registry);
    counts.push_back(ReadCounts(registry));
    lines.push_back(plain.line);
    untraced_ms.push_back(plain_ms);
    traced_ms.push_back(traced_ms_i);
    calls.push_back(std::move(traced));
  }

  // 2. quiet_fleet's fleet and obs layers: the traced calls once more
  //    through the shard runner, whose merge must match the lines above.
  double fleet_run_ms = 0.0;
  double spill_bytes = 0.0;
  double worker_rss_kb = 0.0;
  double timeline_bytes = 0.0;
  double serialize_ms = 0.0;
  if (spec.kind == Kind::kQuiet) {
    ResetDir(dir);
    obs::MetricsRegistry fleet_registry;
    Sweep sweep = RunFleet(workload, k, options, dir);
    if (sweep.failed == 0) MergeFleet(k, options, dir, sweep, &fleet_registry);
    if (sweep.failed > 0 || sweep.lines != lines) {
      Fail(problems, "fleet merge differs from the in-process traced calls");
      ++failed;
    }
    fleet_run_ms = sweep.wall_s * 1e3 * ReferenceFactor();
    spill_bytes = static_cast<double>(sweep.spill_bytes);
    worker_rss_kb = static_cast<double>(sweep.peak_worker_rss_kb);
    for (const auto& c : calls) {
      timeline_bytes += static_cast<double>(c.timeline.size());
    }
    timeline_bytes /= static_cast<double>(std::max<std::size_t>(1, calls.size()));
    serialize_ms = ObsSerializeMs(fleet_registry) * ReferenceFactor();
  }

  // 3. Per-layer drivers, replaying the traffic of the calls above: all of
  //    them, those with cross traffic and those without. A workload that
  //    has no call of a kind takes that shape from a sibling workload's
  //    traced calls on the same seed.
  std::vector<const CallOutput*> all_calls;
  std::vector<const CallOutput*> cross_calls;
  std::vector<const CallOutput*> quiet_calls;
  for (const auto& call : calls) {
    all_calls.push_back(&call);
    (call.cross_traffic ? cross_calls : quiet_calls).push_back(&call);
  }
  const std::uint64_t seed = options.seed;
  const TrafficShape all_shape = ShapeOf(merged_registry, all_calls);
  const TrafficShape cross_shape =
      cross_calls.empty() ? SiblingShape(Kind::kSaturated, seed)
                          : ShapeOf(cross_registry, cross_calls);
  const TrafficShape quiet_shape =
      quiet_calls.empty() ? SiblingShape(Kind::kQuiet, seed)
                          : ShapeOf(quiet_registry, quiet_calls);
  PrintShape("all", all_shape);
  PrintShape("cross", cross_shape);
  PrintShape("quiet", quiet_shape);
  //    Every cost is taken to reference speed with the reference timed
  //    just before and just after its driver, as the call walls are.
  const auto at_reference = [](auto&& measure) {
    const double before = ReferenceFactor();
    const double value = measure();
    return value * (before + ReferenceFactor()) / 2.0;
  };
  const double dispatch_ns =
      at_reference([&] { return SimDispatchNs(all_shape, seed); });
  const double cancel_ns =
      at_reference([&] { return SimCancelNs(all_shape, seed); });
  const double frame_ns_sat = at_reference([&] {
    return WifiFrameNs(cross_shape, seed, SimDispatchNs(cross_shape, seed));
  });
  const double frame_ns_quiet = at_reference([&] {
    return WifiFrameNs(quiet_shape, seed, SimDispatchNs(quiet_shape, seed));
  });
  const double qdisc_droptail = at_reference([&] {
    return QdiscOpNs(wifi::QdiscKind::kDropTail, cross_shape, seed);
  });
  const double qdisc_codel = at_reference(
      [&] { return QdiscOpNs(wifi::QdiscKind::kCoDel, cross_shape, seed); });
  const double qdisc_fq = at_reference(
      [&] { return QdiscOpNs(wifi::QdiscKind::kFqCoDel, cross_shape, seed); });
  const double packet_ns = at_reference([&] { return NetPacketNs(all_shape); });
  const double tcp_reno = at_reference([&] {
    return TcpSegmentNs(transport::CcAlgorithm::kReno, cross_shape, seed);
  });
  const double tcp_cubic = at_reference([&] {
    return TcpSegmentNs(transport::CcAlgorithm::kCubic, cross_shape, seed);
  });
  const double rtc_ns =
      at_reference([&] { return RtcUpdateNs(all_shape, seed); });
  const double core_ns =
      at_reference([&] { return CoreAttributionNs(all_shape, seed); });
  const double codec_before = ReferenceFactor();
  CodecNs codec = ScenarioCodecNs(lines);
  const double codec_factor = (codec_before + ReferenceFactor()) / 2.0;
  codec.encode *= codec_factor;
  codec.decode *= codec_factor;

  // 4. Counts per call and the ledger: each layer's traced op count times
  //    its driver's self time, over the measured untraced call wall.
  const auto n = static_cast<double>(std::max<std::size_t>(1, counts.size()));
  double events = 0.0;
  double dispatched = 0.0;
  double timer = 0.0;
  double arbitrations = 0.0;
  double deliveries = 0.0;
  double attempts = 0.0;
  double wire = 0.0;
  std::map<std::string, double> layer_ns;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const Counts& c = counts[i];
    const CallOutput& call = calls[i];
    const bool sat = call.cross_traffic;
    events += static_cast<double>(call.result.events_executed);
    dispatched += c.dispatched;
    timer += EventsWithPrefix(c, "timer");
    arbitrations += EventsWithPrefix(c, "wifi.arbitration");
    deliveries += EventsWithPrefix(c, "wifi.deliver");
    attempts += EventsWithPrefix(c, "wifi.tx_done") +
                EventsWithPrefix(c, "wifi.txop_burst");
    wire += EventsWithPrefix(c, "net.");
    const double frames =
        EventsWithPrefix(c, "wifi.deliver") + Total(c, "ap_retry_drops_total");
    const double qdisc_ns = call.qdisc == wifi::QdiscKind::kDropTail
                                ? qdisc_droptail
                            : call.qdisc == wifi::QdiscKind::kCoDel
                                ? qdisc_codel
                                : qdisc_fq;
    // The wifi, net and transport drivers already include the dispatches
    // of their own events; sim keeps the rest (timers, probe timeouts).
    layer_ns["sim"] += (c.dispatched - EventsWithPrefix(c, "wifi.") -
                        EventsWithPrefix(c, "net.") -
                        EventsWithPrefix(c, "tcp.rto")) *
                       dispatch_ns;
    layer_ns["wifi"] += frames * (sat ? frame_ns_sat : frame_ns_quiet);
    layer_ns["qdisc"] += Total(c, "qdisc_forwarded_total") * qdisc_ns;
    layer_ns["net"] += EventsWithPrefix(c, "net.wire_tx") * packet_ns;
    layer_ns["transport"] +=
        Total(c, "tcp_segments_acked_total") *
        (call.cc == transport::CcAlgorithm::kCubic ? tcp_cubic : tcp_reno);
    layer_ns["rtc"] += Total(c, "rtc_estimator_updates_total") * rtc_ns;
    layer_ns["core"] += Total(c, "probe_rounds_total") * core_ns;
    if (spec.kind == Kind::kQuiet) {
      layer_ns["obs"] += serialize_ms * 1e6 / kCheckpointEvery;
      layer_ns["fleet"] += codec.encode + codec.decode;
    }
  }
  double untraced_total_ns = 0.0;
  for (double ms : untraced_ms) untraced_total_ns += ms * 1e6;
  double traced_total_ns = 0.0;
  for (double ms : traced_ms) traced_total_ns += ms * 1e6;
  const Counts all = ReadCounts(merged_registry);

  std::vector<Metric> metrics = {
      {"sim.events_per_call", events / n, "count"},
      {"sim.timer_events", timer / n, "count"},
      {"sim.dispatch_ns", dispatch_ns, "ns"},
      {"sim.cancel_ns", cancel_ns, "ns"},
      {"wifi.arbitrations", arbitrations / n, "count"},
      {"wifi.deliveries", deliveries / n, "count"},
      {"wifi.txop_bursts", Total(all, "wifi_txop_continuations_total") / n,
       "count"},
      {"wifi.collisions", Total(all, "wifi_collisions_total") / n, "count"},
      {"wifi.retry_drops", Total(all, "ap_retry_drops_total") / n, "count"},
      {"wifi.useful_frac", Ratio(deliveries, attempts), "ratio"},
      {"wifi.frame_ns.saturated", frame_ns_sat, "ns"},
      {"wifi.frame_ns.quiet", frame_ns_quiet, "ns"},
      {"qdisc.forwarded", Total(all, "qdisc_forwarded_total") / n, "count"},
      {"qdisc.drops",
       (Total(all, "ap_queue_drops_total") + Total(all, "qdisc_aqm_drops_total") +
        Total(all, "qdisc_overflow_drops_total")) /
           n,
       "count"},
      {"qdisc.op_ns.droptail", qdisc_droptail, "ns"},
      {"qdisc.op_ns.codel", qdisc_codel, "ns"},
      {"qdisc.op_ns.fq_codel", qdisc_fq, "ns"},
      {"net.wire_events", wire / n, "count"},
      {"net.packet_ns", packet_ns, "ns"},
      {"tcp.segments_acked", Total(all, "tcp_segments_acked_total") / n,
       "count"},
      {"tcp.retransmissions", Total(all, "tcp_retransmissions_total") / n,
       "count"},
      {"tcp.timeouts", Total(all, "tcp_timeouts_total") / n, "count"},
      {"tcp.segment_ns.reno", tcp_reno, "ns"},
      {"tcp.segment_ns.cubic", tcp_cubic, "ns"},
      {"rtc.media_packets", Total(all, "media_rx_packets_total") / n, "count"},
      {"rtc.estimator_updates", Total(all, "rtc_estimator_updates_total") / n,
       "count"},
      {"rtc.update_ns", rtc_ns, "ns"},
      {"core.probe_rounds", Total(all, "probe_rounds_total") / n, "count"},
      {"core.probe_valid_frac",
       Ratio(Total(all, "probe_valid_total"), Total(all, "probe_rounds_total")),
       "ratio"},
      {"core.attribution_ns", core_ns, "ns"},
      {"scenario.call_ms", Median(untraced_ms), "ms"},
      {"obs.timeline_bytes", timeline_bytes, "B"},
      {"obs.serialize_ms", serialize_ms, "ms"},
      {"fleet.run_ms", fleet_run_ms, "ms"},
      {"fleet.encode_ns", codec.encode, "ns"},
      {"fleet.decode_ns", codec.decode, "ns"},
      {"fleet.spill_bytes", spill_bytes, "B"},
      {"fleet.worker_rss_kb", worker_rss_kb, "kB"},
  };
  double accounted = 0.0;
  for (const char* layer : {"sim", "wifi", "qdisc", "net", "transport", "rtc",
                            "core", "obs", "fleet"}) {
    const double share = Ratio(layer_ns[layer], untraced_total_ns);
    accounted += share;
    metrics.push_back({std::string("ledger.") + layer + ".share", share,
                       "ratio"});
  }
  metrics.push_back({"ledger.residual", 1.0 - accounted, "ratio"});
  metrics.push_back({"trace.overhead_frac",
                     Ratio(traced_total_ns, untraced_total_ns) - 1.0, "ratio"});

  std::printf("workload %s seed %llu: %zu traced calls\n", spec.name,
              static_cast<unsigned long long>(options.seed), lines.size());
  std::printf("sim_digest %016llx\n",
              static_cast<unsigned long long>(Digest(lines)));
  PrintResult(problems.empty(), k, failed, metrics);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace kwikr::perfbench

int main(int argc, char** argv) {
  using namespace kwikr::perfbench;
  const auto main_begin = Clock::now();
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace 0|1 --work-dir <dir> "
                 "[--commit <id>] [--rotate-us <n>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (options.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  PrintFingerprint(options.commit);
  try {
    const Workload workload(*spec, options.seed);
    if (!options.setup_probe.empty()) return RunSetupProbe(workload, options);
    return options.trace ? RunTraced(workload, options)
                         : RunEndToEnd(workload, options, main_begin);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
