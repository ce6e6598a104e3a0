// infogram_e2e — closed-loop end-to-end benchmark of the InfoGram wire path.
//
//   infogram_e2e --workload <lookup_hot|query_mix|job_turnaround>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Every op goes InfoGramClient -> net::Network -> mutual-auth wrapper ->
// InfoGramService on one deployment: VirtualClock (simulated command costs
// advance TTLs but are never slept), Configuration::extended() providers,
// telemetry at its defaults (1-in-64 head sampling, tail sampling and the
// profiler on) and a logger without sinks (unaudited). See README.md in
// this directory for why each workload exists and what it bypasses.
//
// --trace 0 measures the end-to-end metrics over the whole window.
// --trace 1 splits the window: an untraced half yields the layer counters
// and the untraced throughput; in a traced half, one op in kTraceEvery
// (job_turnaround: every other job) is timed over the wire and then sent
// through the public call of each layer on the same inputs, with spans
// kept in memory and written as JSONL to traces/ beside the binary at the
// end.
//
// Timings are reported at a reference host speed. The shared host this
// runs on changes speed by up to 2x for stretches of seconds to hours,
// so between slices of the window client 0 times a fixed probe made only
// of standard-library work, and each slice's timings are scaled by how
// much faster or slower than the reference the probe ran around it. The
// report prints the figures as measured beside them.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics. Exit codes: 0 ok, 1 a request failed or a response failed
// its check, 2 bad arguments, 3 a latency series the percentile guard
// refused, 4 set-up failed.
#include <pthread.h>
#include <sched.h>
#include <sys/personality.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "core/config.hpp"
#include "core/infogram_client.hpp"
#include "core/infogram_service.hpp"
#include "exec/fork_backend.hpp"
#include "obs/profile.hpp"
#include "security/handshake.hpp"

using namespace ig;  // NOLINT: benchmark brevity

namespace {

using Steady = std::chrono::steady_clock;

/// The PKI and simulated-host seed stays fixed; --seed only drives the
/// generated op streams.
constexpr std::uint64_t kStackSeed = 97;
/// Set-up is repeated and its median reported: one set-up takes 0.3 to
/// 1 ms, so a single one is mostly timer jitter. 301 cost 0.1 to 0.3 s.
/// The host-speed probe runs before every kSetupsPerProbe-th set-up.
constexpr int kSetupRepeats = 301;
constexpr int kSetupsPerProbe = 10;
/// Jobs per run. Every job leaks two threads (README.md, findings) and the
/// process aborts somewhere past 16k jobs, so the job count is fixed and
/// the jobs run as kJobBursts bursts spread over the window. Within a burst
/// jobs run back to back: an idle gap between jobs lets the CPU go idle,
/// and every job would then pay its wake-up. The first kWarmJobs of a
/// burst wake it and are checked but not timed.
/// The host's speed moves by tens of percent from one stretch of seconds
/// to the next, so many short bursts spread over the window sample it
/// better than a few long ones.
constexpr std::size_t kJobBursts = 60;
constexpr std::size_t kWarmJobs = 4;
constexpr std::size_t kTimedJobs = 200;
constexpr std::size_t kJobsPerRun = kJobBursts * (kWarmJobs + kTimedJobs);
/// A percentile is reported only with at least this many samples beyond it.
constexpr double kMinTailSamples = 10.0;
/// The probe's time at the reference host speed, about the middle of what
/// it read on the 4-vCPU Xeon VM the benchmark was built on (0.41 ms fast,
/// 0.8 ms slow). Timings are reported as if the host ran at that speed.
constexpr double kReferenceProbeUs = 700.0;
/// Info phases are cut into slices of this length (job phases: one slice
/// per burst). Client 0 runs the host-speed probe between slices, outside
/// their rate and CPU intervals.
constexpr double kSliceS = 0.25;
/// A slice's speed is taken from the median probe of the slice and this
/// many slices on each side.
constexpr std::size_t kSpeedWindow = 2;
/// query_mix: each client reconnects (full handshake) once per this many ops.
constexpr std::size_t kReconnectEvery = 32;
/// Upper bound on one client's op rate, for sizing its sample buffer.
constexpr double kMaxOpsPerSecond = 400000.0;
/// Traced info phases trace one op in this many: every op would keep 6
/// million spans (250 MB, a 600 MB trace file) on lookup_hot.
constexpr std::size_t kTraceEvery = 16;
/// Length of the generated, then cycled, op stream of each client.
constexpr std::size_t kStreamLength = 1 << 16;
const char* const kSubject = "/O=Grid/CN=bench";
const char* const kLocalUser = "bench";
const char* const kHost = "e2e.sim";

enum class Workload { kLookupHot, kQueryMix, kJobTurnaround };

struct Args {
  Workload workload = Workload::kLookupHot;
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.name = value;
      if (value == "lookup_hot") {
        args.workload = Workload::kLookupHot;
      } else if (value == "query_mix") {
        args.workload = Workload::kQueryMix;
      } else if (value == "job_turnaround") {
        args.workload = Workload::kJobTurnaround;
      } else {
        return false;
      }
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args.seconds > 0.0 &&
                     args.seconds <= 120.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
      have_trace = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

double now_s() {
  return std::chrono::duration<double>(Steady::now().time_since_epoch()).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Steady::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One field of /proc/self/status in kB ("VmRSS", "VmHWM"); 0 if absent.
double proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

/// Thread stacks still mapped: anonymous read-write mappings of exactly the
/// default pthread stack size. A thread that finished but was never joined
/// keeps its stack, so this counts live and leaked threads alike.
std::size_t thread_stacks() {
  static const std::size_t stack_size = [] {
    pthread_attr_t attr;
    std::size_t size = 0;
    if (pthread_getattr_default_np(&attr) == 0) {
      pthread_attr_getstacksize(&attr, &size);
      pthread_attr_destroy(&attr);
    }
    return size;
  }();
  std::ifstream in("/proc/self/maps");
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[8] = {0};
    unsigned long offset = 0;
    char dev[16] = {0};
    unsigned long inode = 0;
    int consumed = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx %7s %lx %15s %lu %n", &lo, &hi, perms, &offset, dev,
                    &inode, &consumed) < 6) {
      continue;
    }
    bool anonymous = inode == 0 && line.find('/', static_cast<std::size_t>(consumed)) ==
                                       std::string::npos &&
                     line.find('[', static_cast<std::size_t>(consumed)) == std::string::npos;
    if (anonymous && std::strcmp(perms, "rw-p") == 0 && hi - lo == stack_size) ++count;
  }
  return count;
}

/// Allocator for the host-speed probe's containers: plain malloc/free, so
/// the probe does not go through the allocation-counting operator new the
/// InfoGram libraries install.
template <typename T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <typename U>
  MallocAllocator(const MallocAllocator<U>& /*other*/) {}  // NOLINT: rebinding
  T* allocate(std::size_t n) { return static_cast<T*>(std::malloc(n * sizeof(T))); }
  void deallocate(T* p, std::size_t /*n*/) { std::free(p); }
  template <typename U>
  bool operator==(const MallocAllocator<U>& /*other*/) const { return true; }
};

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Host-speed probe: thread CPU microseconds of a fixed piece of work made
/// only of the C++ standard library (string building, map stores, a sort),
/// so no change to InfoGram can move it. It runs on the same CPU as the
/// ops, between slices, and slows by about the same ratio as they do when
/// the host does (README.md, "Host-speed normalisation"). Thread CPU time
/// leaves out the time other threads hold the CPU. 0.4 to 0.8 ms of work.
double host_probe_us() {
  using String = std::basic_string<char, std::char_traits<char>, MallocAllocator<char>>;
  using Map = std::map<int, String, std::less<>, MallocAllocator<std::pair<const int, String>>>;
  static Map table;
  static std::vector<std::uint32_t> keys(4096);
  static volatile std::uint64_t sink = 0;
  const double t0 = thread_cpu_ns();
  for (int i = 0; i < 5000; ++i) {
    String s(std::to_string(i * 7919).c_str());
    s += "-host-speed-probe";
    table[i & 511] = std::move(s);
  }
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (auto& k : keys) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    k = static_cast<std::uint32_t>(h >> 32);
  }
  std::sort(keys.begin(), keys.end());
  const double t1 = thread_cpu_ns();
  sink = sink + keys[h & 4095] + table.size();
  return (t1 - t0) / 1e3;
}

// ---------------------------------------------------------------------------
// Deployment

/// One InfoGram host and its clients. Never moved: the service keeps
/// pointers to the trust store, gridmap, policy and clock.
struct Deployment {
  VirtualClock clock{seconds(1000)};
  net::Network network;
  std::unique_ptr<security::CertificateAuthority> ca;
  security::TrustStore trust;
  security::GridMap gridmap;
  security::AuthorizationPolicy policy{security::Decision::kAllow};
  security::Credential user;
  std::shared_ptr<logging::Logger> logger;
  std::shared_ptr<exec::CommandRegistry> registry;
  std::shared_ptr<info::SystemMonitor> monitor;
  std::shared_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<core::InfoGramService> service;
  std::vector<std::unique_ptr<core::InfoGramClient>> clients;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

/// The deployment's keyword configuration (paper Table 1 plus the wider
/// site model), shared by set-up, op generation and the checks.
const core::Configuration& site_config() {
  static const core::Configuration config = core::Configuration::extended();
  return config;
}

struct WorkloadShape {
  std::size_t clients = 1;
  std::size_t worker_threads = 0;
};

WorkloadShape shape_of(Workload w) {
  if (w == Workload::kQueryMix) return {2, 2};
  return {1, 0};
}

/// Restrict this process (and every thread it creates from now on) to the
/// highest-numbered CPU it may run on. False if the kernel refuses.
///
/// Every workload runs on one CPU. On a shared host the hypervisor
/// deschedules busy vCPUs: with query_mix's four threads spread over four
/// vCPUs, up to 30% of their time was stolen, and a request whose
/// client-to-worker handoff crossed a descheduled vCPU stalled for
/// milliseconds (p99 from 0.19 to 4.3 ms, throughput 8.5k to 35k ops/s
/// across runs). On one vCPU the handoff is a context switch on the same
/// CPU. The inline workloads lose no parallelism: one client thread does
/// all the serving, and in job_turnaround it sleeps in GRAM wait while
/// the job's two new threads run.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

/// Everything before the first timed op: PKI, host, providers, service
/// start, one handshake per client and a warm-up pass that fills the
/// snapshot of every configured keyword.
Result<std::unique_ptr<Deployment>> deploy(const WorkloadShape& shape) {
  auto d = std::make_unique<Deployment>();
  d->ca = std::make_unique<security::CertificateAuthority>(
      "/O=Grid/CN=Bench CA", seconds(365LL * 86400), d->clock, kStackSeed);
  d->trust.add_root(d->ca->root_certificate());
  d->user = d->ca->issue(kSubject, security::CertType::kUser, seconds(864000));
  security::Credential host_cred = d->ca->issue(
      std::string("/O=Grid/CN=host/") + kHost, security::CertType::kHost,
      seconds(365LL * 86400));
  d->gridmap.add(kSubject, kLocalUser);
  d->logger = std::make_shared<logging::Logger>(d->clock);
  auto system = std::make_shared<exec::SimSystem>(d->clock, kStackSeed ^ 0xabc, kHost);
  d->registry = exec::CommandRegistry::standard(d->clock, system, kStackSeed ^ 0xdef);
  d->monitor = std::make_shared<info::SystemMonitor>(d->clock, kHost);
  if (auto status = site_config().apply(*d->monitor, d->registry);
      !status.ok()) {
    return status.error();
  }
  d->telemetry = std::make_shared<obs::Telemetry>(d->clock);
  core::InfoGramConfig config;
  config.host = kHost;
  config.telemetry = d->telemetry;
  config.worker_threads = shape.worker_threads;
  auto backend = std::make_shared<exec::ForkBackend>(d->registry, d->clock);
  d->service = std::make_unique<core::InfoGramService>(
      d->monitor, backend, std::move(host_cred), &d->trust, &d->gridmap, &d->policy,
      &d->clock, d->logger, config);
  if (auto status = d->service->start(d->network); !status.ok()) return status.error();
  for (std::size_t i = 0; i < shape.clients; ++i) {
    d->clients.push_back(std::make_unique<core::InfoGramClient>(
        d->network, d->service->address(), d->user, d->trust, d->clock));
  }
  for (const auto& kw : site_config().keywords()) {
    auto resp = d->clients.front()->request("(info=" + kw.keyword + ")");
    if (!resp.ok()) return resp.error();
  }
  for (std::size_t i = 1; i < d->clients.size(); ++i) {
    auto resp = d->clients[i]->request("(info=Hostname)");
    if (!resp.ok()) return resp.error();
  }
  return d;
}

// ---------------------------------------------------------------------------
// Generated ops and their checks

/// What a correct response to one op looks like.
struct Expect {
  std::vector<std::string> keywords;  ///< record keywords, in order
  std::size_t extra_records = 0;      ///< e.g. the performance record
  rsl::OutputFormat format = rsl::OutputFormat::kLdif;
  std::string filter;                 ///< every attribute must match this glob
  std::string exact_payload;          ///< byte-identical reference, when set
  bool schema = false;
  bool job = false;
  std::string job_output;
};

struct Op {
  std::string xrsl;
  Expect expect;

  bool job_only() const { return expect.job && expect.keywords.empty(); }
};

std::string_view payload_prefix(rsl::OutputFormat format) {
  switch (format) {
    case rsl::OutputFormat::kXml:
      return "<infogram>";
    case rsl::OutputFormat::kDsml:
      return "<dsml:dsml";
    case rsl::OutputFormat::kLdif:
      break;
  }
  return "dn: ";
}

/// "" when `resp` is what `op` should have produced.
std::string check_response(const Op& op, const core::InfoGramResponse& resp) {
  const Expect& e = op.expect;
  if (e.job && !resp.job_contact) return "job op returned no contact";
  if (e.schema) {
    if (!resp.schema) return "schema op returned no schema";
    for (const auto& kw : site_config().keywords()) {
      bool found = false;
      for (const auto& k : resp.schema->keywords) found = found || k.keyword == kw.keyword;
      if (!found) return "schema lacks keyword " + kw.keyword;
    }
    return "";
  }
  if (resp.records.size() != e.keywords.size() + e.extra_records) {
    return "expected " + std::to_string(e.keywords.size() + e.extra_records) +
           " records, got " + std::to_string(resp.records.size());
  }
  for (std::size_t i = 0; i < e.keywords.size(); ++i) {
    if (resp.records[i].keyword != e.keywords[i]) {
      return "record " + std::to_string(i) + " is " + resp.records[i].keyword + ", expected " +
             e.keywords[i];
    }
    if (!e.filter.empty()) {
      if (resp.records[i].attributes.empty()) return "filter left no attributes";
      for (const auto& attr : resp.records[i].attributes) {
        if (!strings::glob_match(e.filter, attr.name)) {
          return "attribute " + attr.name + " escaped filter " + e.filter;
        }
      }
    }
  }
  if (!e.keywords.empty() && resp.payload.compare(0, payload_prefix(e.format).size(),
                                                  payload_prefix(e.format)) != 0) {
    return "payload is not " + std::string(to_string(e.format));
  }
  if (!e.exact_payload.empty() && resp.payload != e.exact_payload) {
    return "payload differs from the in-process reference for " + e.keywords.front();
  }
  return "";
}

std::vector<std::string> ttl_keywords() {
  std::vector<std::string> out;
  for (const auto& kw : site_config().keywords()) {
    if (kw.ttl.count() > 0) out.push_back(kw.keyword);
  }
  return out;
}

/// lookup_hot: single-keyword cached LDIF queries over the TTL>0 keywords.
/// Each block of the stream is a seeded shuffle of all of them, so every
/// seed sends the same mix in a different order. The reference payload of
/// each keyword comes from an in-process execute() -> payload().
Result<std::vector<Op>> lookup_ops(Deployment& d) {
  std::vector<Op> ops;
  for (const auto& kw : ttl_keywords()) {
    Op op;
    op.xrsl = "(info=" + kw + ")(response=cached)";
    op.expect.keywords = {kw};
    auto parsed = rsl::XrslRequest::parse(op.xrsl);
    if (!parsed.ok()) return parsed.error();
    auto result = d.service->execute(parsed.value(), kSubject, kLocalUser);
    if (!result.ok()) return result.error();
    op.expect.exact_payload = result->payload();
    ops.push_back(std::move(op));
  }
  return ops;
}

/// query_mix templates with their weight in each 64-op block. Nothing here
/// is eligible for the snapshot fast path except the TTL-0 CPULoad refresh,
/// which misses it by definition.
struct MixTemplate {
  const char* xrsl;
  int weight;
  std::vector<std::string> keywords;
  std::size_t extra_records;
  rsl::OutputFormat format;
  const char* filter;
  bool schema;
};

std::vector<MixTemplate> mix_templates() {
  using F = rsl::OutputFormat;
  return {
      {"(info=Memory)(filter=Memory:free*)", 10, {"Memory"}, 0, F::kLdif, "Memory:free*", false},
      {"(info=CPU)(info=Uptime)", 10, {"CPU", "Uptime"}, 0, F::kLdif, "", false},
      {"(info=Date)(info=Disk)(info=Network)", 8, {"Date", "Disk", "Network"}, 0, F::kLdif, "",
       false},
      {"(info=Memory)(quality=95)", 8, {"Memory"}, 0, F::kLdif, "", false},
      {"(info=CPU)(performance=CPU)(performance=Memory)", 6, {"CPU"}, 1, F::kLdif, "", false},
      {"(info=Hostname)(info=list)(format=xml)", 8, {"Hostname", "list"}, 0, F::kXml, "", false},
      {"(info=Uptime)(info=Date)(format=dsml)", 6, {"Uptime", "Date"}, 0, F::kDsml, "", false},
      {"(info=CPULoad)", 7, {"CPULoad"}, 0, F::kLdif, "", false},
      {"(info=schema)", 1, {}, 0, F::kLdif, "", true},
  };
}

std::vector<Op> mix_ops() {
  std::vector<Op> ops;
  for (const auto& t : mix_templates()) {
    Op op;
    op.xrsl = t.xrsl;
    op.expect.keywords = t.keywords;
    op.expect.extra_records = t.extra_records;
    op.expect.format = t.format;
    op.expect.filter = t.filter;
    op.expect.schema = t.schema;
    ops.push_back(std::move(op));
  }
  return ops;
}

/// One client's op stream as indices into the op table, from the seed.
std::vector<std::uint32_t> info_stream(Workload w, std::uint64_t seed, std::size_t client,
                                       std::vector<bool>& reconnect) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + client + 1);
  std::vector<std::uint32_t> block;
  if (w == Workload::kLookupHot) {
    for (std::uint32_t i = 0; i < ttl_keywords().size(); ++i) block.push_back(i);
  } else {
    auto templates = mix_templates();
    for (std::uint32_t i = 0; i < templates.size(); ++i) {
      for (int k = 0; k < templates[i].weight; ++k) block.push_back(i);
    }
  }
  std::vector<std::uint32_t> stream;
  reconnect.assign(kStreamLength, false);
  while (stream.size() < kStreamLength) {
    std::shuffle(block.begin(), block.end(), rng);
    stream.insert(stream.end(), block.begin(), block.end());
  }
  stream.resize(kStreamLength);
  if (w == Workload::kQueryMix) {
    for (std::size_t base = 0; base < kStreamLength; base += kReconnectEvery) {
      reconnect[base + rng() % kReconnectEvery] = true;
    }
  }
  return stream;
}

/// job_turnaround: /bin/echo jobs with seeded arguments; in each block of
/// eight, four also carry (info=Memory) in the same request.
std::vector<Op> job_ops(std::uint64_t seed, std::size_t count) {
  static const char* const kWords[] = {"alpha", "bravo", "charlie", "delta",
                                       "echo",  "foxtrot", "golf",  "hotel"};
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<Op> ops;
  std::vector<bool> block = {true, true, true, true, false, false, false, false};
  while (ops.size() < count) {
    std::shuffle(block.begin(), block.end(), rng);
    for (bool combined : block) {
      if (ops.size() == count) break;
      std::string args = std::string("e2e ") + kWords[rng() % 8] + " " +
                         std::to_string(ops.size()) + "-" + std::to_string(rng() % 100000);
      Op op;
      op.xrsl = "&(executable=/bin/echo)(arguments=" + args + ")";
      if (combined) {
        op.xrsl += "(info=Memory)";
        op.expect.keywords = {"Memory"};
      }
      op.expect.job = true;
      op.expect.job_output = args + "\n";
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

/// Decode a rendered reply the way InfoGramClient does; "" on success.
std::string decode_payload(const core::InfoGramResult& result, const std::string& payload) {
  if (result.schema) {
    auto schema = format::ServiceSchema::parse_xml(payload);
    return schema.ok() ? "" : "schema decode failed: " + schema.error().to_string();
  }
  if (result.record_count() == 0) return "";
  auto records = result.format == rsl::OutputFormat::kXml    ? format::parse_xml(payload)
                 : result.format == rsl::OutputFormat::kDsml ? format::parse_dsml(payload)
                                                             : format::parse_ldif(payload);
  if (!records.ok()) return "decode failed: " + records.error().to_string();
  return records->size() == result.record_count() ? "" : "decoded record count differs";
}

// ---------------------------------------------------------------------------
// Measurement

/// Process-wide wall time, CPU time and completed ops at one instant.
struct Mark {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t done = 0;
};

/// The timed part of a phase (jobs: of one burst) between two marks.
struct Interval {
  Mark begin;
  Mark end;
};

/// In-memory span of the traced run. Spans of one op share `op`; layer
/// spans name the op span as their parent.
struct Span {
  std::uint64_t op = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

struct ClientRun {
  std::vector<float> latency_us;  ///< successful ops only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t info_ops = 0;
  std::uint64_t jobs = 0;
  std::string first_problem;
  std::vector<Interval> intervals;  ///< process-wide, filled by client 0 only
  std::vector<double> probe_us;     ///< host-speed probe of each slice, client 0 only
  std::vector<std::size_t> slice_first;  ///< first latency sample of each slice
  std::vector<Span> spans;
  double submit_us = 0;  ///< execute() of the job-only ops: the GRAM submission
  std::uint64_t submits = 0;
  std::uint64_t allocs = 0;  ///< client-thread allocations in traced wire ops
  std::uint64_t alloc_bytes = 0;
};

/// How the client threads drive one phase. Info workloads run closed-loop
/// until the deadline. Job workloads run their job range as `bursts` equal
/// bursts, burst k starting at start + k * window / bursts; the rate
/// intervals cover each burst's timed jobs.
struct Phase {
  double start_s = 0;
  double end_s = 0;
  std::size_t first_job = 0;  ///< job ops: [first_job, last_job)
  std::size_t last_job = 0;
  std::size_t bursts = 0;
  bool traced = false;

  std::size_t burst_jobs() const { return (last_job - first_job) / bursts; }
  double slice_start(std::size_t k) const {
    return start_s + static_cast<double>(k) * kSliceS;
  }
  double burst_due(std::size_t b) const {
    return start_s + static_cast<double>(b) * (end_s - start_s) / static_cast<double>(bursts);
  }
};

class Runner {
 public:
  Runner(Deployment& d, Workload w, std::vector<Op> ops,
         std::vector<std::vector<std::uint32_t>> streams,
         std::vector<std::vector<bool>> reconnects, double seconds)
      : d_(d),
        w_(w),
        sample_capacity_(static_cast<std::size_t>(seconds * kMaxOpsPerSecond)),
        ops_(std::move(ops)),
        streams_(std::move(streams)),
        reconnects_(std::move(reconnects)),
        cursor_(d.clients.size(), 0) {}

  /// Run one phase on every client thread at once.
  std::vector<ClientRun> run(const Phase& phase) {
    std::vector<ClientRun> runs(d_.clients.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < d_.clients.size(); ++c) {
      threads.emplace_back([this, c, &phase, &runs] { drive(c, phase, runs[c]); });
    }
    for (auto& t : threads) t.join();
    return runs;
  }

 private:
  Mark mark() const {
    return {now_s(), process_cpu_s(), done_.load(std::memory_order_relaxed)};
  }

  void drive(std::size_t c, const Phase& phase, ClientRun& out) {
    core::InfoGramClient& client = *d_.clients[c];
    // Reserved, not touched: only the pages samples fill count in RSS,
    // and no reallocation copies the series mid-run.
    out.latency_us.reserve(sample_capacity_);
    const bool jobs = w_ == Workload::kJobTurnaround;
    std::size_t job = phase.first_job;
    bool sampled = false;
    Mark open = mark();
    std::size_t slice = 0;  // info phases: slices opened so far
    while (true) {
      const Op* op = nullptr;
      bool reconnect = false;
      bool timed = true;
      bool burst_done = false;
      if (jobs) {
        if (job >= phase.last_job) break;
        std::size_t k = job - phase.first_job;
        std::size_t pos = k % phase.burst_jobs();
        if (pos == 0) {
          out.probe_us.push_back(host_probe_us());
          double due = phase.burst_due(k / phase.burst_jobs());
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s()));
        }
        if (pos == kWarmJobs) {
          open = mark();
          out.slice_first.push_back(out.latency_us.size());
        }
        timed = pos >= kWarmJobs;
        burst_done = pos + 1 == phase.burst_jobs();
        op = &ops_[job++];
      } else {
        double t = now_s();
        if (t >= phase.end_s) break;
        if (t >= phase.slice_start(slice)) {
          // Every boundary crossed opens a slice, so slice k is the same
          // stretch of time for every client; a slice that one op spanned
          // entirely is empty.
          if (c == 0) {
            Mark closed = mark();
            if (slice > 0) out.intervals.push_back({open, closed});
            double probe = host_probe_us();
            for (std::size_t k = slice + 1; t >= phase.slice_start(k); ++k) {
              out.intervals.push_back({closed, closed});
              out.probe_us.push_back(probe);
            }
            out.probe_us.push_back(probe);
            open = mark();
          }
          for (; t >= phase.slice_start(slice); ++slice) {
            out.slice_first.push_back(out.latency_us.size());
          }
        }
        std::size_t i = cursor_[c]++ % kStreamLength;
        op = &ops_[streams_[c][i]];
        reconnect = reconnects_[c][i];
        sampled = i % kTraceEvery == 0;
      }
      ++out.attempted;
      if (op->expect.job) ++out.jobs;
      if (!op->expect.keywords.empty()) ++out.info_ops;
      // Jobs alternate between the wire and the layer calls: doing both
      // would double the jobs, and the leak with them.
      bool decompose = phase.traced && timed && (jobs ? job % 2 == 0 : sampled);
      bool wire = !decompose || !jobs;
      std::string problem;
      if (wire) {
        if (reconnect) client.disconnect();
        problem = wire_op(c, client, *op, jobs ? phase.traced : decompose, timed, out);
      }
      if (problem.empty() && decompose) {
        problem = decomposed_op(c, *op, reconnect, out);
        if (!problem.empty()) ++out.mismatched;
      }
      if (problem.empty() && timed) done_.fetch_add(1, std::memory_order_relaxed);
      if (!problem.empty() && out.first_problem.empty()) out.first_problem = problem;
      if (burst_done && c == 0) out.intervals.push_back({open, mark()});
    }
    if (!jobs && c == 0) out.intervals.push_back({open, mark()});
  }

  /// The timed client call. For jobs: submit, then GRAM wait on the same
  /// connection until a terminal state.
  std::string wire_op(std::size_t c, core::InfoGramClient& client, const Op& op,
                      bool traced, bool timed, ClientRun& out) {
    traced = traced && timed;
    std::optional<obs::AllocScope> allocs;
    if (traced) allocs.emplace();
    std::int64_t t0 = now_ns();
    auto resp = client.request(op.xrsl);
    Result<gram::GramClient::RemoteStatus> waited = Error(ErrorCode::kInternal, "no wait");
    if (resp.ok() && op.expect.job && resp->job_contact) {
      waited = client.wait(*resp->job_contact, seconds(60));
    }
    std::int64_t t1 = now_ns();
    if (traced) {
      out.allocs += allocs->allocs();
      out.alloc_bytes += allocs->bytes();
      out.spans.push_back({op_id(c, out), next_span(), 0, "op", t0, t1 - t0});
    }
    if (!resp.ok()) {
      ++out.failed;
      return "request failed: " + resp.error().to_string();
    }
    std::string problem = check_response(op, *resp);
    if (problem.empty() && op.expect.job) {
      if (!waited.ok()) {
        problem = "wait failed: " + waited.error().to_string();
      } else {
        problem = check_job(*resp->job_contact, waited->state, waited->exit_code, op);
      }
    }
    if (!problem.empty()) {
      ++out.mismatched;
      return problem;
    }
    if (timed && !traced) out.latency_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
    return "";
  }

  /// A job op is correct when it reached DONE with exit 0 and its captured
  /// output is the echoed arguments (read in-process, outside the timing).
  std::string check_job(const std::string& contact, exec::JobState state, int exit_code,
                        const Op& op) {
    if (state != exec::JobState::kDone || exit_code != 0) {
      return "job " + contact + " ended " + std::string(exec::to_string(state));
    }
    auto info = d_.service->job_info(contact);
    if (!info.ok()) return "job_info failed: " + info.error().to_string();
    if (info->status.output != op.expect.job_output) {
      return "job output '" + info->status.output + "', expected '" + op.expect.job_output + "'";
    }
    return "";
  }

  /// The traced half: the same op's inputs through each layer's public
  /// call, each call its own span under a `layers` root.
  std::string decomposed_op(std::size_t c, const Op& op, bool reconnect, ClientRun& out) {
    std::uint64_t id = op_id(c, out);
    std::uint32_t root = next_span();
    std::int64_t op_start = now_ns();
    auto span = [&](const char* name, std::uint32_t parent, std::int64_t t0) {
      std::uint32_t sid = next_span();
      out.spans.push_back({id, sid, parent, name, t0, now_ns() - t0});
      return sid;
    };
    if (reconnect) {
      std::int64_t t0 = now_ns();
      auto conn = d_.network.connect(d_.service->address());
      if (!conn.ok()) return "connect failed: " + conn.error().to_string();
      auto auth = security::authenticate(**conn, d_.user, d_.trust, d_.clock);
      span("security.handshake", root, t0);
      if (!auth.ok()) return "handshake failed: " + auth.error().to_string();
    }
    std::int64_t t0 = now_ns();
    auto parsed = rsl::XrslRequest::parse_all(op.xrsl);
    span("rsl.parse", root, t0);
    if (!parsed.ok()) return "parse failed: " + parsed.error().to_string();
    for (const rsl::XrslRequest& req : parsed.value()) {
      t0 = now_ns();
      auto result = d_.service->execute(req, kSubject, kLocalUser);
      span("core.execute", root, t0);
      if (!result.ok()) return "execute failed: " + result.error().to_string();
      if (op.job_only()) {
        out.submit_us += static_cast<double>(out.spans.back().dur_ns) / 1e3;
        ++out.submits;
      }
      // Authorization and the info query are re-issued on the same inputs
      // after execute() has returned: siblings of core.execute, an estimate
      // of what those layers cost, not a breakdown of execute.
      t0 = now_ns();
      auto auth = d_.policy.authorize(kSubject, kHost, req.is_job() ? "submit" : "query",
                                      d_.clock.now());
      span("security.authorize", root, t0);
      if (!auth.ok()) return "authorize failed: " + auth.error().to_string();
      if (!req.info_keys.empty()) {
        t0 = now_ns();
        auto records = d_.monitor->query(req.info_keys, req.response, req.quality_threshold,
                                         req.filters, nullptr, d_.service->pool(),
                                         info::GetOptions{req.timeout, req.action});
        span("info.query", root, t0);
        if (!records.ok()) return "query failed: " + records.error().to_string();
      }
      if (d_.service->pool() != nullptr) {
        t0 = now_ns();
        auto async = d_.service->submit_async(req, kSubject, kLocalUser).get();
        span("pool.submit_async", root, t0);
        if (!async.ok()) return "submit_async failed: " + async.error().to_string();
      }
      t0 = now_ns();
      std::string payload = result->payload();
      span("format.render", root, t0);
      // The client's half of the format layer: decoding the reply body.
      t0 = now_ns();
      std::string decoded = decode_payload(*result, payload);
      span("format.decode", root, t0);
      if (!decoded.empty()) return decoded;
      if (result->job_contact) {
        t0 = now_ns();
        auto waited = d_.service->wait(*result->job_contact, seconds(60));
        span("gram.wait", root, t0);
        if (!waited.ok()) return "wait failed: " + waited.error().to_string();
        std::string problem = check_job(*result->job_contact, waited->status.state,
                                        waited->status.exit_code, op);
        if (!problem.empty()) return problem;
      }
    }
    out.spans.push_back({id, root, 0, "layers", op_start, now_ns() - op_start});
    return "";
  }

  static std::uint64_t op_id(std::size_t c, const ClientRun& out) {
    return (static_cast<std::uint64_t>(c) << 40) | out.attempted;
  }
  std::uint32_t next_span() { return ++span_seq_; }

  Deployment& d_;
  Workload w_;
  std::size_t sample_capacity_;
  std::vector<Op> ops_;
  std::vector<std::vector<std::uint32_t>> streams_;
  std::vector<std::vector<bool>> reconnects_;
  std::vector<std::size_t> cursor_;
  std::atomic<std::uint32_t> span_seq_{0};
  std::atomic<std::uint64_t> done_{0};  ///< ops that passed their check, all clients
};

// ---------------------------------------------------------------------------
// Reporting

/// Linear-interpolation quantile of a sorted series. Refuses (returns
/// false) a series whose samples are all identical — a batch mean copied N
/// times — or too short to have kMinTailSamples beyond quantile q.
bool guarded_quantile(const std::vector<float>& sorted, double q, double& out,
                      std::string& why) {
  if (static_cast<double>(sorted.size()) * (1.0 - q) < kMinTailSamples) {
    why = "only " + std::to_string(sorted.size()) + " samples for quantile " +
          std::to_string(q);
    return false;
  }
  if (sorted.front() == sorted.back()) {
    why = "all " + std::to_string(sorted.size()) + " samples are identical";
    return false;
  }
  double rank = q * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  out = sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool idle = false;  ///< the layer does no work on this workload (reported as 0)
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Counters read from outside the program, before and after a phase.
struct Counters {
  std::map<std::string, double> telemetry;
  double wire_bytes = 0;
  double pool_executed = 0;
  double pool_shed = 0;
  double stacks = 0;
  double rss_kb = 0;
  double hwm_kb = 0;
  double wall_s = 0;

  static Counters read(Deployment& d) {
    Counters c;
    for (const auto& m : d.telemetry->metrics().snapshot()) {
      c.telemetry[m.name] = m.histogram ? static_cast<double>(m.histogram->stats.count())
                                        : static_cast<double>(m.value);
    }
    net::TrafficStats traffic = d.network.total_stats();
    c.wire_bytes = static_cast<double>(traffic.bytes_sent + traffic.bytes_received);
    if (ThreadPool* pool = d.service->pool()) {
      ThreadPool::Stats s = pool->stats();
      c.pool_executed = static_cast<double>(s.executed);
      c.pool_shed = static_cast<double>(s.shed);
    }
    c.stacks = static_cast<double>(thread_stacks());
    c.rss_kb = proc_status_kb("VmRSS");
    c.hwm_kb = proc_status_kb("VmHWM");
    c.wall_s = now_s();
    return c;
  }

  double delta(const Counters& before, const std::string& name) const {
    auto get = [&name](const Counters& c) {
      auto it = c.telemetry.find(name);
      return it == c.telemetry.end() ? 0.0 : it->second;
    };
    return get(*this) - get(before);
  }
};

/// Counts, layer sums and spans of all clients; latency samples stay per
/// client.
ClientRun merge_runs(const std::vector<ClientRun>& runs) {
  ClientRun all;
  for (auto& r : runs) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.mismatched += r.mismatched;
    all.info_ops += r.info_ops;
    all.jobs += r.jobs;
    if (all.first_problem.empty()) all.first_problem = r.first_problem;
    all.intervals.insert(all.intervals.end(), r.intervals.begin(), r.intervals.end());
    all.probe_us.insert(all.probe_us.end(), r.probe_us.begin(), r.probe_us.end());
    all.spans.insert(all.spans.end(), r.spans.begin(), r.spans.end());
    all.submit_us += r.submit_us;
    all.submits += r.submits;
    all.allocs += r.allocs;
    all.alloc_bytes += r.alloc_bytes;
  }
  return all;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host speed of each slice relative to the reference: the reference probe
/// time over the median probe of the slice and kSpeedWindow slices on each
/// side. Below 1 when the host runs slower than the reference.
std::vector<double> slice_speeds(const std::vector<double>& probes) {
  std::vector<double> speeds;
  for (std::size_t k = 0; k < probes.size(); ++k) {
    std::size_t lo = k > kSpeedWindow ? k - kSpeedWindow : 0;
    std::size_t hi = std::min(probes.size(), k + kSpeedWindow + 1);
    speeds.push_back(kReferenceProbeUs / median({probes.begin() + static_cast<std::ptrdiff_t>(lo),
                                                 probes.begin() + static_cast<std::ptrdiff_t>(hi)}));
  }
  return speeds;
}

/// Speed of slice k; 1 (as measured) when `speeds` is empty.
double speed_at(const std::vector<double>& speeds, std::size_t k) {
  if (speeds.empty()) return 1.0;
  return speeds[std::min(k, speeds.size() - 1)];
}

/// Completed ops per second: the median over a phase's slices of each
/// slice's rate divided by its speed, so a host stall inside a few slices
/// does not move it. Slices that one op spanned entirely have no interval
/// of their own and are left out.
double throughput(const ClientRun& r, const std::vector<double>& speeds) {
  std::vector<double> rates;
  for (std::size_t k = 0; k < r.intervals.size(); ++k) {
    const Interval& i = r.intervals[k];
    double wall_s = i.end.wall_s - i.begin.wall_s;
    if (wall_s <= 0) continue;
    rates.push_back(static_cast<double>(i.end.done - i.begin.done) / wall_s /
                    speed_at(speeds, k));
  }
  return median(rates);
}

/// Process CPU time per completed op over all of a phase's slices, each
/// slice's CPU time scaled by its speed.
double cpu_us_per_op(const ClientRun& r, const std::vector<double>& speeds) {
  double cpu_s = 0;
  double done = 0;
  for (std::size_t k = 0; k < r.intervals.size(); ++k) {
    const Interval& i = r.intervals[k];
    cpu_s += (i.end.cpu_s - i.begin.cpu_s) * speed_at(speeds, k);
    done += static_cast<double>(i.end.done - i.begin.done);
  }
  return cpu_s * 1e6 / done;
}

/// Every timed latency sample of all clients, each scaled by the speed of
/// its slice, sorted.
std::vector<float> latency_series(const std::vector<ClientRun>& runs,
                                  const std::vector<double>& speeds) {
  std::vector<float> series;
  for (const ClientRun& r : runs) {
    for (std::size_t k = 0; k < r.slice_first.size(); ++k) {
      std::size_t end = k + 1 < r.slice_first.size() ? r.slice_first[k + 1] : r.latency_us.size();
      auto speed = static_cast<float>(speed_at(speeds, k));
      for (std::size_t i = r.slice_first[k]; i < end; ++i) {
        series.push_back(r.latency_us[i] * speed);
      }
    }
  }
  std::sort(series.begin(), series.end());
  return series;
}

/// Per span name: calls, total duration, and the total duration of the
/// spans that name one of its spans as parent.
struct SpanStat {
  std::uint64_t calls = 0;
  double dur_us = 0;
  double child_us = 0;

  double mean_us() const { return calls > 0 ? dur_us / static_cast<double>(calls) : 0.0; }
};

std::map<std::string, SpanStat> span_stats(const std::vector<Span>& spans) {
  std::map<std::uint32_t, const char*> name_of;
  for (const Span& s : spans) name_of[s.id] = s.name;
  std::map<std::string, SpanStat> stats;
  for (const Span& s : spans) {
    SpanStat& stat = stats[s.name];
    ++stat.calls;
    stat.dur_us += static_cast<double>(s.dur_ns) / 1e3;
    if (s.parent != 0) stats[name_of[s.parent]].child_us += static_cast<double>(s.dur_ns) / 1e3;
  }
  return stats;
}

/// Calls, mean time and mean self time (duration minus child spans).
void print_self_times(const std::map<std::string, SpanStat>& stats) {
  std::printf("  %-22s %10s %12s %12s\n", "span", "calls", "mean_us", "self_us");
  for (const auto& [name, stat] : stats) {
    std::printf("  %-22s %10llu %12.4f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(stat.calls), stat.mean_us(),
                (stat.dur_us - stat.child_us) / static_cast<double>(stat.calls));
  }
}

void write_spans(const Args& args, const std::vector<Span>& spans, std::string& path) {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::read_symlink("/proc/self/exe", ec).parent_path() / "traces";
  std::filesystem::create_directories(dir, ec);
  path = (dir / ("trace-" + args.name + "-" + std::to_string(args.seed) + ".jsonl")).string();
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << "{\"op\":" << s.op << ",\"span\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << s.dur_ns << "}\n";
  }
}

int emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
         const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.idle) {
      std::printf("  %-26s %14s %s  (layer idle on this workload)\n", m.name.c_str(), "n/a",
                  m.unit.c_str());
    } else {
      std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Address-space randomisation off: the layout drawn at exec moved
  // lookup_hot's p50 between 5.7 and 9.1 us across otherwise identical
  // runs (README.md). Re-exec once with ADDR_NO_RANDOMIZE; if the kernel
  // refuses, run as is and say so in the report.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);
  }
  const bool aslr_off = (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0;

  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload lookup_hot|query_mix|job_turnaround --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const WorkloadShape shape = shape_of(args.workload);
  const bool pinned = pin_to_one_cpu();

  // Set-up, repeated; the last deployment is the one measured.
  std::vector<double> setup_s;
  std::vector<double> setup_probe_us;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();
    if (i % kSetupsPerProbe == 0) setup_probe_us.push_back(host_probe_us());
    double t0 = now_s();
    auto deployed = deploy(shape);
    setup_s.push_back(now_s() - t0);
    if (!deployed.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", deployed.error().to_string().c_str());
      return 4;
    }
    d = std::move(deployed.value());
  }

  std::vector<Op> ops;
  std::vector<std::vector<std::uint32_t>> streams(shape.clients);
  std::vector<std::vector<bool>> reconnects(shape.clients);
  if (args.workload == Workload::kJobTurnaround) {
    ops = job_ops(args.seed, kJobsPerRun);
  } else {
    if (args.workload == Workload::kLookupHot) {
      auto built = lookup_ops(*d);
      if (!built.ok()) {
        std::fprintf(stderr, "reference build failed: %s\n",
                     built.error().to_string().c_str());
        return 4;
      }
      ops = std::move(built.value());
    } else {
      ops = mix_ops();
    }
    for (std::size_t c = 0; c < shape.clients; ++c) {
      streams[c] = info_stream(args.workload, args.seed, c, reconnects[c]);
    }
  }
  Runner runner(*d, args.workload, ops, streams, reconnects, args.seconds);
  const bool jobs = args.workload == Workload::kJobTurnaround;

  // Warm-up traffic (info workloads only: every job is kept by the leak,
  // so warm-up jobs would shift the job count).
  if (!jobs) {
    Phase warm;
    warm.start_s = now_s();
    warm.end_s = warm.start_s + std::min(1.0, 0.05 * args.seconds);
    auto warm_runs = runner.run(warm);
    for (auto& r : warm_runs) {
      if (r.mismatched + r.failed > 0) {
        std::fprintf(stderr, "warm-up op failed: %s\n", r.first_problem.c_str());
        return 1;
      }
    }
  }

  const double measured_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t measured_jobs = args.trace ? kJobsPerRun / 2 : kJobsPerRun;
  Phase untraced;
  Counters before = Counters::read(*d);
  untraced.start_s = before.wall_s;
  untraced.end_s = before.wall_s + measured_s;
  untraced.last_job = measured_jobs;
  untraced.bursts = args.trace ? kJobBursts / 2 : kJobBursts;
  std::vector<ClientRun> runs = runner.run(untraced);
  Counters after = Counters::read(*d);
  // The harness's own sample buffers are not the program's memory.
  double sample_kb = 0;
  for (const ClientRun& r : runs) {
    sample_kb += static_cast<double>(r.latency_us.size() * sizeof(float)) / 1024.0;
  }
  ClientRun u = merge_runs(runs);
  const double window_s = after.wall_s - before.wall_s;
  const double ops_done = static_cast<double>(u.attempted);

  std::printf("infogram_e2e workload=%s seed=%llu seconds=%g trace=%d clients=%zu "
              "workers=%zu aslr=%s cpus=%s\n",
              args.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, shape.clients, shape.worker_threads, aslr_off ? "off" : "on",
              pinned ? "1" : "all");
  std::printf("  ops=%llu failed=%llu mismatched=%llu window=%.3fs\n",
              static_cast<unsigned long long>(u.attempted),
              static_cast<unsigned long long>(u.failed),
              static_cast<unsigned long long>(u.mismatched), window_s);
  if (!u.first_problem.empty()) std::printf("  first problem: %s\n", u.first_problem.c_str());
  // A failed request (transport error, shed op, rejection) is as wrong as
  // a mismatched one.
  bool correct = u.failed + u.mismatched == 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Percentiles over every timed sample of the run, all clients pooled.
    // The gated tail is p95. p99 is printed, not gated: on job_turnaround
    // its 120 samples beyond are mostly isolated host stalls (steal,
    // interrupts) of 0.3 to 5 ms (README.md).
    const std::vector<double> speeds = slice_speeds(u.probe_us);
    const std::vector<double> as_measured;
    std::vector<float> series = latency_series(runs, speeds);
    std::vector<float> raw_series = latency_series(runs, as_measured);
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double raw_p50 = 0;
    double raw_p95 = 0;
    std::string why;
    if (!guarded_quantile(series, 0.50, p50, why) || !guarded_quantile(series, 0.95, p95, why) ||
        !guarded_quantile(series, 0.99, p99, why) ||
        !guarded_quantile(raw_series, 0.50, raw_p50, why) ||
        !guarded_quantile(raw_series, 0.95, raw_p95, why)) {
      std::fprintf(stderr, "refusing the latency series: %s\n", why.c_str());
      return 3;
    }
    const double setup_speed = kReferenceProbeUs / median(setup_probe_us);
    metrics = {
        {"throughput_rps", throughput(u, speeds), "1/s"},
        {"latency_p50_us", p50, "us"},
        {"latency_p95_us", p95, "us"},
        {"cpu_us_per_req", cpu_us_per_op(u, speeds), "us"},
        {"peak_rss_mb", (after.hwm_kb - sample_kb) / 1024.0, "MB"},
        {"setup_s", median(setup_s) * setup_speed, "s"},
    };
    std::printf("  samples=%zu latency_p99_us=%.4f (not gated)\n", series.size(), p99);
    std::printf("  host probe: median %.2f us over %zu slices, %.2f us over the set-ups "
                "(reference %.0f us)\n",
                median(u.probe_us), u.probe_us.size(), median(setup_probe_us),
                kReferenceProbeUs);
    std::printf("  as measured: throughput_rps=%.4f latency_p50_us=%.4f latency_p95_us=%.4f "
                "cpu_us_per_req=%.4f setup_s=%.7f\n",
                throughput(u, as_measured), raw_p50, raw_p95, cpu_us_per_op(u, as_measured),
                median(setup_s));
    return emit(correct, u.attempted, u.failed + u.mismatched, metrics);
  }

  // Traced half: same deployment, same streams, spans around each layer.
  Phase traced;
  traced.traced = true;
  traced.start_s = now_s();
  traced.end_s = traced.start_s + measured_s;
  traced.first_job = measured_jobs;
  traced.last_job = kJobsPerRun;
  traced.bursts = kJobBursts / 2;
  std::vector<ClientRun> traced_runs = runner.run(traced);
  ClientRun t = merge_runs(traced_runs);
  correct = correct && t.failed + t.mismatched == 0;
  if (!t.first_problem.empty()) std::printf("  traced problem: %s\n", t.first_problem.c_str());
  std::string trace_path;
  write_spans(args, t.spans, trace_path);
  std::printf("  traced ops=%llu spans=%zu -> %s\n",
              static_cast<unsigned long long>(t.attempted), t.spans.size(), trace_path.c_str());

  std::map<std::string, SpanStat> stats = span_stats(t.spans);
  print_self_times(stats);
  auto mean = [&stats](const char* name) { return stats[name].mean_us(); };
  auto per = [](double sum, double n) { return n > 0 ? sum / n : 0.0; };
  const bool pooled = shape.worker_threads > 0;
  const bool has_handshakes = stats["security.handshake"].calls > 0;
  const double info_ops = static_cast<double>(u.info_ops);
  const double job_count = static_cast<double>(u.jobs);
  const double wire_ops = static_cast<double>(stats["op"].calls);
  double hits = after.delta(before, obs::metric::kInfoCacheHits);
  double misses = after.delta(before, obs::metric::kInfoCacheMisses);
  double untraced_rps = throughput(u, {});
  double traced_rps = throughput(t, {});
  double untraced_sum = 0;
  double untraced_count = 0;
  for (const ClientRun& r : runs) {
    for (float v : r.latency_us) untraced_sum += v;
    untraced_count += static_cast<double>(r.latency_us.size());
  }
  // What the wire op spends outside the layer calls that stand for it.
  double attributed = 0;
  for (const char* name : {"security.handshake", "rsl.parse",
                           pooled ? "pool.submit_async" : "core.execute", "format.render",
                           "format.decode", "gram.wait"}) {
    attributed += stats[name].dur_us;
  }
  double residual = mean("op") - per(attributed, static_cast<double>(stats["layers"].calls));
  metrics = {
      {"net.bytes_per_op", (after.wire_bytes - before.wire_bytes) / ops_done, "B/op"},
      {"net.wire_residual_us", residual, "us"},
      {"security.handshake_us", mean("security.handshake"), "us", !has_handshakes},
      {"security.handshakes_per_kop",
       after.delta(before, obs::metric::kAuthHandshakes) * 1000.0 / ops_done, "1/kop",
       !has_handshakes},
      {"security.authorize_us", mean("security.authorize"), "us"},
      {"rsl.parse_us", mean("rsl.parse"), "us"},
      {"core.execute_us", mean("core.execute"), "us"},
      {"pool.handoff_us", mean("pool.submit_async") - mean("core.execute"), "us", !pooled},
      {"pool.tasks_per_op", (after.pool_executed - before.pool_executed) / ops_done,
       "tasks/op", !pooled},
      {"pool.shed_per_op", (after.pool_shed - before.pool_shed) / ops_done, "shed/op",
       !pooled},
      {"info.fast_hit_ratio",
       per(after.delta(before, obs::metric::kInfoCacheFastHits), info_ops), "ratio",
       info_ops == 0},
      {"info.cache_hit_ratio", per(hits, hits + misses), "ratio", hits + misses == 0},
      {"info.refreshes_per_kop",
       after.delta(before, obs::metric::kInfoRefreshSeconds) * 1000.0 / ops_done, "1/kop"},
      {"info.query_us", mean("info.query"), "us", stats["info.query"].calls == 0},
      {"format.render_us", mean("format.render"), "us"},
      {"format.decode_us", mean("format.decode"), "us"},
      {"gram.submit_us", per(t.submit_us, static_cast<double>(t.submits)), "us", !jobs},
      {"gram.wait_us", mean("gram.wait"), "us", !jobs},
      {"exec.threads_per_job", per(after.stacks - before.stacks, job_count), "threads/job",
       !jobs},
      {"gram.rss_kb_per_job", per(after.rss_kb - before.rss_kb, job_count), "KB/job", !jobs},
      {"obs.allocs_per_op", per(static_cast<double>(t.allocs), wire_ops), "allocs/op"},
      {"obs.alloc_bytes_per_op", per(static_cast<double>(t.alloc_bytes), wire_ops), "B/op"},
      {"trace.untraced_rps", untraced_rps, "1/s"},
      {"trace.traced_rps", traced_rps, "1/s"},
      {"trace.overhead_pct", 100.0 * (1.0 - traced_rps / untraced_rps), "%"},
      {"trace.op_inflation_pct",
       100.0 * (mean("op") / per(untraced_sum, untraced_count) - 1.0), "%"},
  };
  for (Metric& m : metrics) {
    if (m.idle) m.value = 0.0;
  }
  return emit(correct, u.attempted + t.attempted,
              u.failed + u.mismatched + t.failed + t.mismatched, metrics);
}
