#include "bench.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "kav.h"
#include "util/rng.h"
#include "spans.h"
#include "workload_gen.h"

#ifndef KAVBENCH_BUILD_TYPE
#define KAVBENCH_BUILD_TYPE "unknown"
#endif

namespace kavbench {

namespace fs = std::filesystem;
using kav::Engine;
using kav::History;
using kav::KeyedOperation;
using kav::Operation;
using kav::Report;
using kav::StreamingViolation;
using kav::TimePoint;

namespace {

// --- Workload table ---------------------------------------------------------

enum class Kind : unsigned char { batch, store, replay };

struct Workload {
  const char* name;
  Kind kind;
  Shape full;
  Shape tiny;
};

constexpr std::size_t kStoreSegments = 4;
constexpr std::size_t kAuditSample = 48;  // background keys audited as a control
constexpr std::size_t kSetups = 3;        // setup_s is the median of these
// Repetition wall times are summarized by their 10th percentile (the
// fast end). On a shared VM, host CPU steal slows whole repetitions: here
// the median repetition moved about twice as much between runs as this
// quantile did, while CPU time per op, which steal does not touch,
// stayed within a few percent.
constexpr double kFastQuantile = 0.10;
// monitor_replay keeps at most this many ops waiting in the monitor's
// per-key queues (its kav_monitor_queue_backlog gauge): the producer
// holds back while the backlog is larger. Without the window the
// producer runs ahead while keys first appear and the backlog swings
// between 0 and ~40k ops, so detection latency measured mostly where a
// pattern fell in that swing: its p50 spread 30-55% between runs.
constexpr std::int64_t kMonitorWindow = 4096;

// ~1M ops: 4,096 keys x 2 blocks x 48 writes (~2.5 ops per write). The
// default spread keeps write concurrency low, so most keys go to LBT.
Shape batch_shape(bool tiny) {
  Shape s;
  s.keys = tiny ? 64 : 4096;
  s.blocks = 2;
  s.block_writes = tiny ? 12 : 48;
  return s;
}

// ~410k background ops plus 16 hot keys of ~20k ops each. The hot keys'
// wider spread raises write concurrency past 2, so they go to FZF; they
// are built from 128-write blocks because generate_k_atomic is quadratic
// in its block size and setup_s must stay small and steady.
Shape store_shape(bool tiny) {
  Shape s;
  s.keys = tiny ? 64 : 4096;
  s.blocks = 2;
  s.block_writes = tiny ? 8 : 20;
  s.hot_keys = 16;
  s.hot_blocks = tiny ? 3 : 64;
  s.hot_block_writes = tiny ? 32 : 128;
  s.hot_spread = 2.5;
  return s;
}

// ~370k ops over 1,024 keys with 32 patterns on each bad key: 4,096
// violations per pass. Blocks of 4 writes span ~2,000 time units, so the
// 20,000-unit staleness horizon is well below a key's ~800,000-unit
// span. Fewer, longer keys (128 or 32) fill the per-key queues at times,
// which made detection latency bimodal and its p99 spread more between
// runs.
Shape monitor_shape(bool tiny) {
  Shape s;
  s.keys = tiny ? 64 : 1024;
  s.blocks = tiny ? 3 : 33;
  s.block_writes = 4;
  s.patterns_per_bad_key = tiny ? 2 : 32;
  return s;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"batch_many_keys", Kind::batch, batch_shape(false), batch_shape(true)},
      {"store_audit", Kind::store, store_shape(false), store_shape(true)},
      {"monitor_replay", Kind::replay, monitor_shape(false), monitor_shape(true)},
  };
  return table;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- Small helpers ----------------------------------------------------------

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

// Resets the process's resident-memory high-water mark (VmHWM) to its
// current resident size, so that peak_rss_mib() covers only what runs
// after the call. False where the kernel refuses.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// VmHWM: the peak resident size since start or the last reset_peak_rss().
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear-interpolated quantile; NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Ground-truth bookkeeping: every checked item counts as attempted.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// Runs `produce` on a second thread feeding `source` while the calling
// thread runs `consume`; the source is closed when production ends, and
// drained if the consumer throws so the producer can never hang.
template <typename Produce, typename Consume>
auto with_producer(kav::PushTraceSource& source, Produce&& produce,
                   Consume&& consume) {
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      produce();
    } catch (...) {
      producer_error = std::current_exception();
    }
    source.close();
  });
  try {
    auto out = consume();
    producer.join();
    if (producer_error) std::rethrow_exception(producer_error);
    return out;
  } catch (...) {
    KeyedOperation drop;
    while (source.next(drop)) {
    }
    if (producer.joinable()) producer.join();
    throw;
  }
}

// --- Fixture: one workload's input plus the Engine that runs it -------------

struct Fixture {
  const Workload* workload = nullptr;
  Input in;
  fs::path dir;                      // scratch files of this fixture
  fs::path kavb;                     // batch_many_keys
  fs::path store;                    // store_audit
  std::vector<std::string> audited;  // store_audit key filter
  std::unique_ptr<kav::obs::MetricsRegistry> registry;
  std::unique_ptr<Engine> engine;
  // Bookkeeping derived after the timed setup.
  std::unordered_map<std::string, std::uint32_t> key_id;
  std::vector<std::size_t> first_injected;  // per key, into in.injected
  std::size_t audited_ops = 0;
  std::size_t total_ops = 0;  // in.stream.size(), kept after the stream is released
  // monitor_replay: for each injected pattern, in stream order, the
  // stream index of its enabling op: the first op on the pattern's key
  // whose start passes end + staleness horizon + reorder slack. Until
  // that op arrives, the monitor cannot report the pattern.
  struct Enabling {
    std::size_t op;
    std::size_t injected;
  };
  std::vector<Enabling> enabling;

  std::size_t patterns_on(std::uint32_t key) const {
    return first_injected[key + 1] - first_injected[key];
  }
  std::vector<std::uint32_t> verified_keys() const {
    std::vector<std::uint32_t> ids;
    if (workload->kind == Kind::store) {
      for (const std::string& name : audited) ids.push_back(key_id.at(name));
    } else {
      ids.resize(in.key_names.size());
      std::iota(ids.begin(), ids.end(), 0u);
    }
    return ids;
  }
  // Operations one end-to-end call consumes.
  std::size_t e2e_ops() const {
    return workload->kind == Kind::store ? audited_ops : total_ops;
  }
};

std::size_t engine_threads(Kind kind) {
  // One process, at most nproc threads: batch runs the caller plus the
  // pool; monitor runs the producer, the draining caller, and the pool.
  const std::size_t n = cpu_count();
  const std::size_t reserved = kind == Kind::replay ? 2 : 1;
  return n > reserved ? n - reserved : 1;
}

kav::EngineOptions engine_options(const Fixture& s) {
  kav::EngineOptions options;
  options.threads = engine_threads(s.workload->kind);
  options.streaming.staleness_horizon = s.in.shape.horizon;
  options.reorder_slack = s.in.slack;
  options.metrics = s.registry.get();
  return options;
}

void append_in_segments(kav::TraceStore& store, const kav::KeyedTrace& stream) {
  const std::size_t n = stream.size();
  for (std::size_t part = 0; part < kStoreSegments; ++part) {
    kav::KeyedTrace slice;
    slice.ops.assign(stream.ops.begin() + static_cast<std::ptrdiff_t>(n * part / kStoreSegments),
                     stream.ops.begin() + static_cast<std::ptrdiff_t>(n * (part + 1) / kStoreSegments));
    store.append(slice);
  }
}

// Generates the input, writes the workload's on-disk form and constructs
// the Engine: the part of a run that setup_s times.
std::unique_ptr<Fixture> set_up(const Workload& workload, const Options& options,
                                const fs::path& dir) {
  auto s = std::make_unique<Fixture>();
  s->workload = &workload;
  s->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  s->in = generate(options.tiny ? workload.tiny : workload.full, options.seed);
  if (workload.kind == Kind::batch) {
    s->kavb = dir / "trace.kavb";
    kav::write_binary_trace_file(s->kavb.string(), s->in.stream);
  } else if (workload.kind == Kind::store) {
    s->store = dir / "store";
    kav::TraceStore store(s->store);
    append_in_segments(store, s->in.stream);
  }
  s->registry = std::make_unique<kav::obs::MetricsRegistry>();
  s->engine = std::make_unique<Engine>(engine_options(*s));
  return s;
}

// Untimed bookkeeping: key lookup, patterns per key, audited keys.
void index_fixture(Fixture& s, std::uint64_t seed) {
  const std::size_t keys = s.in.key_names.size();
  s.total_ops = s.in.stream.size();
  for (std::uint32_t id = 0; id < keys; ++id) s.key_id.emplace(s.in.key_names[id], id);
  s.first_injected.assign(keys + 1, 0);
  for (const Injected& inj : s.in.injected) ++s.first_injected[inj.key + 1];
  std::partial_sum(s.first_injected.begin(), s.first_injected.end(),
                   s.first_injected.begin());
  if (s.workload->kind == Kind::replay) {
    std::vector<std::size_t> pending(s.first_injected.begin(), s.first_injected.end() - 1);
    for (std::size_t i = 0; i < s.in.stream.size(); ++i) {
      const std::uint32_t key = s.in.stream_key[i];
      std::size_t& next = pending[key];
      while (next < s.first_injected[key + 1] &&
             s.in.stream.ops[i].op.start >
                 s.in.injected[next].end + s.in.shape.horizon + s.in.slack) {
        s.enabling.push_back({i, next++});
      }
    }
  }
  if (s.workload->kind == Kind::store) {
    // The hot keys plus a seeded control sample of background keys with
    // exactly 1 bad key in kBadOneIn, so that every seed audits the same mix.
    std::vector<std::uint32_t> background(s.in.shape.keys);
    std::iota(background.begin(), background.end(), 0u);
    kav::Rng rng(seed ^ 0x5eed'a0d1'7000'0001ULL);
    std::shuffle(background.begin(), background.end(), rng);
    const std::size_t want_bad = kAuditSample / kBadOneIn;
    std::vector<std::uint32_t> audited;
    std::size_t bad = 0, clean = 0;
    for (std::uint32_t id : background) {
      std::size_t& taken = s.in.bad[id] ? bad : clean;
      if (taken < (s.in.bad[id] ? want_bad : kAuditSample - want_bad)) {
        ++taken;
        audited.push_back(id);
      }
    }
    for (std::uint32_t id = 0; id < keys; ++id) {
      if (s.in.hot[id]) audited.push_back(id);
    }
    std::sort(audited.begin(), audited.end());
    for (std::uint32_t id : audited) {
      s.audited.push_back(s.in.key_names[id]);
      s.audited_ops += s.in.key_ops[id];
    }
  }
}

// --- Ground-truth checks -----------------------------------------------------

kav::Outcome truth(const Fixture& s, std::uint32_t key) {
  return s.in.bad[key] ? kav::Outcome::no : kav::Outcome::yes;
}

void check_verdict(const Fixture& s, std::uint32_t key, const kav::Verdict& v,
                   const char* who, Check& check) {
  check.expect(v.outcome == truth(s, key),
               std::string(who) + ": key " + s.in.key_names[key] + " answered " +
                   kav::to_string(v.outcome) + ", expected " +
                   kav::to_string(truth(s, key)));
}

void check_batch_report(const Fixture& s, const Report& report, Check& check) {
  check.expect(!report.cancelled, "batch run stopped early: " + report.stop_reason);
  const std::vector<std::uint32_t> keys = s.verified_keys();
  check.expect(report.per_key.size() == keys.size(),
               "report has " + std::to_string(report.per_key.size()) +
                   " keys, expected " + std::to_string(keys.size()));
  for (std::uint32_t key : keys) {
    const auto it = report.per_key.find(s.in.key_names[key]);
    if (it == report.per_key.end()) {
      check.expect(false, "key " + s.in.key_names[key] + " missing from report");
    } else {
      check_verdict(s, key, it->second.verdict, "verify", check);
    }
  }
}

// One key's monitor findings against its injected patterns: the key
// counts once (no spurious findings, right verdict), each pattern once
// (found, as a not-2-atomic chunk).
void check_findings(const Fixture& s, std::uint32_t key,
                    const std::vector<StreamingViolation>& findings,
                    const char* who, Check& check) {
  const std::size_t expected = s.patterns_on(key);
  for (std::size_t j = 0; j < expected; ++j) {
    const Injected& inj = s.in.injected[s.first_injected[key] + j];
    const bool found = j < findings.size() &&
                       findings[j].kind == StreamingViolation::Kind::not_2atomic;
    check.expect(found, std::string(who) + ": " + to_string(inj.pattern) +
                            " on key " + s.in.key_names[key] + " not reported");
  }
  check.expect(findings.size() <= expected,
               std::string(who) + ": " + std::to_string(findings.size() - std::min(findings.size(), expected)) +
                   " spurious finding(s) on key " + s.in.key_names[key] +
                   (findings.size() > expected ? ": " + findings[expected].detail : ""));
}

// --- End-to-end repetitions ---------------------------------------------------

struct Rep {
  double wall_s = 0;
  std::vector<double> detect_ms;
};

// One batch verification. Its detection latency is time to verdict:
// from opening the input, when all of it is available, to each NO
// verdict's on_key call.
Rep batch_rep(Fixture& s, Check& check) {
  Rep rep;
  kav::util::Mutex mutex;
  Clock::time_point t0;
  kav::RunOptions run;
  run.on_key = [&](const std::string&, const kav::Verdict& verdict) {
    if (!verdict.no()) return;
    const double ms = ms_between(t0, Clock::now());
    kav::util::MutexLock lock(mutex);
    rep.detect_ms.push_back(ms);
  };
  Report report;
  if (s.workload->kind == Kind::batch) {
    t0 = Clock::now();
    std::unique_ptr<kav::TraceSource> source = kav::open_trace_source(s.kavb.string());
    report = s.engine->verify(*source, run);
    rep.wall_s = seconds_since(t0);
  } else {
    run.key_filter = s.audited;
    t0 = Clock::now();
    kav::TraceStore store(s.store);
    std::unique_ptr<kav::IndexedTraceSource> source = store.open_source();
    report = s.engine->verify(*source, run);
    rep.wall_s = seconds_since(t0);
  }
  check_batch_report(s, report, check);
  return rep;
}

// One closed-loop pass of the stream through Engine::monitor: the
// producer pushes as fast as the source accepts while at most
// kMonitorWindow ops wait in the per-key queues. Each pattern's
// detection latency runs from the push of its enabling op, its due time
// in this closed loop, to the on_finding call that reports it.
Rep monitor_rep(Fixture& s, Check& check) {
  const std::vector<KeyedOperation>& ops = s.in.stream.ops;
  std::vector<Clock::time_point> due(s.in.injected.size());
  struct Found {
    std::uint32_t key;
    Clock::time_point at;
  };
  std::vector<Found> found;
  kav::util::Mutex mutex;
  kav::RunOptions run;
  run.on_finding = [&](const std::string& key, const StreamingViolation&) {
    const Clock::time_point now = Clock::now();
    const std::uint32_t id = s.key_id.at(key);
    kav::util::MutexLock lock(mutex);
    found.push_back({id, now});
  };
  kav::PushTraceSource source(s.engine->options().queue_capacity);
  // The help text is the monitor's own; the first registration sets it.
  const kav::obs::Gauge& backlog = s.registry->gauge(
      "kav_monitor_queue_backlog",
      "Operations ingested but not yet processed by a drain task, across keys.");
  const Clock::time_point t0 = Clock::now();
  Report report = with_producer(
      source,
      [&] {
        auto next = s.enabling.begin();
        for (std::size_t i = 0; i < ops.size(); ++i) {
          for (; next != s.enabling.end() && next->op == i; ++next) {
            due[next->injected] = Clock::now();
          }
          if (i % 64 == 0) {
            while (backlog.value() > kMonitorWindow) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
          }
          source.push(ops[i]);
        }
      },
      [&] { return s.engine->monitor(source, run); });
  Rep rep;
  rep.wall_s = seconds_since(t0);

  check.expect(!report.cancelled, "monitor run stopped early: " + report.stop_reason);
  std::vector<std::vector<Clock::time_point>> per_key(s.in.key_names.size());
  for (const Found& f : found) per_key[f.key].push_back(f.at);
  for (std::uint32_t key = 0; key < s.in.key_names.size(); ++key) {
    const auto it = report.per_key.find(s.in.key_names[key]);
    if (it == report.per_key.end()) {
      check.expect(false, "key " + s.in.key_names[key] + " missing from monitor report");
      continue;
    }
    check_verdict(s, key, it->second.verdict, "monitor", check);
    check_findings(s, key, it->second.findings, "monitor", check);
    check.expect(per_key[key].size() == it->second.findings.size(),
                 "on_finding calls differ from report findings on key " + s.in.key_names[key]);
    // The j-th finding on a key reports its j-th pattern (check_findings).
    const std::size_t reported = std::min(per_key[key].size(), s.patterns_on(key));
    for (std::size_t j = 0; j < reported; ++j) {
      const Clock::time_point pushed = due[s.first_injected[key] + j];
      check.expect(pushed != Clock::time_point{} && pushed <= per_key[key][j],
                   "finding on key " + s.in.key_names[key] + " before its enabling op");
      rep.detect_ms.push_back(ms_between(pushed, per_key[key][j]));
    }
  }
  return rep;
}

// --- Traced layer chain ---------------------------------------------------------

// Inputs the chain reads besides the fixture: the on-disk files to decode,
// a store to load from, and each key's arrivals in stream order.
struct ChainInput {
  std::vector<std::string> files;
  fs::path store;
  std::vector<std::vector<Operation>> arrivals;
  // Per-key reorder output, reused across repetitions.
  struct Mark {
    std::size_t released;
    TimePoint watermark;
  };
  std::vector<std::vector<Operation>> released;
  std::vector<std::vector<Mark>> marks;
};

struct ChainOut {
  double wall_s = 0;
  std::size_t decoded = 0, loaded = 0, decided_ops = 0;
  std::size_t normalized = 0, lbt_keys = 0, fzf_keys = 0, segments = 0, series = 0;
  kav::VerifyStats lbt, fzf;
  std::uint64_t flushes = 0, useful_flushes = 0, late = 0;
  std::size_t peak_window = 0, pending_max = 0;
};

void add_stats(kav::VerifyStats& into, const kav::VerifyStats& s) {
  into.epochs += s.epochs;
  into.candidates_tried += s.candidates_tried;
  into.steps += s.steps;
  into.chunks += s.chunks;
  into.orders_tested += s.orders_tested;
}

// The traced run's decomposition: the workload's input goes through each
// module's public calls, in the order the Engine makes them, with a span
// around each call. Every workload runs every step so that each reports
// every layer; a step off the workload's own Engine path (the monitor
// steps on batch input, say) describes that module on this input. The
// per-key history and core steps run on the keys the workload verifies.
ChainOut run_chain(Fixture& s, ChainInput& ci, Recorder& rec, Check& check) {
  using Scope = Recorder::Scope;
  using Tally = Recorder::Tally;
  ChainOut out;
  Engine& engine = *s.engine;
  const Clock::time_point t0 = Clock::now();
  {
    Scope root(rec, "bench.run");
    const bool audit = s.workload->kind == Kind::store;
    std::vector<std::string> names;
    for (std::uint32_t key : s.verified_keys()) names.push_back(s.in.key_names[key]);

    // store: open, stat, load the verified keys.
    std::unique_ptr<kav::TraceStore> store;
    std::unique_ptr<kav::IndexedTraceSource> indexed;
    {
      Scope span(rec, "store.open");
      store = std::make_unique<kav::TraceStore>(ci.store);
      indexed = store->open_source();
    }
    out.segments = store->segment_count();
    std::size_t stat_ops = 0;
    {
      Scope span(rec, "store.stat");
      for (const std::string& name : names) stat_ops += indexed->key_op_count(name);
    }
    std::vector<History> loaded(names.size());
    {
      Scope span(rec, "store.load");
      for (std::size_t i = 0; i < names.size(); ++i) loaded[i] = indexed->load_key(names[i]);
    }
    for (const History& h : loaded) out.loaded += h.size();
    check.expect(out.loaded == stat_ops, "store load size differs from key_op_count");

    // ingest + history: decode the whole input and split it by key.
    kav::KeyedTrace decoded;
    {
      Scope span(rec, "ingest.decode");
      for (const std::string& file : ci.files) {
        kav::BinaryFileTraceSource source(file);
        KeyedOperation kop;
        while (source.next(kop)) decoded.ops.push_back(std::move(kop));
      }
    }
    out.decoded = decoded.size();
    check.expect(out.decoded == s.in.stream.size(), "decoded op count differs from input");
    kav::KeyedHistories split;
    {
      Scope span(rec, "history.split");
      split = kav::split_by_key(decoded);
    }
    kav::KeyedHistories shards;
    if (audit) {
      for (std::size_t i = 0; i < names.size(); ++i) {
        shards.per_key.emplace(names[i], std::move(loaded[i]));
      }
    } else {
      shards = std::move(split);
    }

    // history + core: the per-key steps of verify_k_atomicity.
    {
      Scope span(rec, "bench.per_key");
      kav::LbtOptions lbt_options;
      lbt_options.check_preconditions = false;
      kav::FzfOptions fzf_options;
      fzf_options.check_preconditions = false;
      for (const auto& [name, history] : shards.per_key) {
        const std::uint32_t key = s.key_id.at(name);
        std::vector<Operation> ops(history.operations().begin(), history.operations().end());
        History built;
        {
          Scope step(rec, "history.build");
          built = History(std::move(ops));
        }
        kav::AnomalyReport anomalies;
        {
          Scope step(rec, "history.anomaly");
          anomalies = kav::find_anomalies(built);
        }
        History normalized;
        const History* use = &built;
        if (!anomalies.empty()) {
          if (!anomalies.repairable()) {
            check.expect(false, "key " + name + " has hard anomalies");
            continue;
          }
          Scope step(rec, "history.normalize");
          normalized = kav::normalize(built);
          use = &normalized;
          ++out.normalized;
        }
        kav::ZoneProfile profile;
        {
          Scope step(rec, "core.profile");
          profile = kav::zone_profile(*use);
        }
        kav::Verdict verdict;
        if (kav::select_2av_algorithm(profile) == kav::Algorithm::lbt) {
          Scope step(rec, "core.lbt");
          verdict = kav::check_2atomicity_lbt(*use, lbt_options);
          ++out.lbt_keys;
          add_stats(out.lbt, verdict.stats);
        } else {
          Scope step(rec, "core.fzf");
          verdict = kav::check_2atomicity_fzf(*use, fzf_options);
          ++out.fzf_keys;
          add_stats(out.fzf, verdict.stats);
        }
        out.decided_ops += use->size();
        check_verdict(s, key, verdict, "decider", check);
      }
    }

    // pipeline: the sharded verify on the pool, then the same shards serially.
    {
      Report report;
      {
        Scope span(rec, "pipeline.wall");
        report = engine.verify(shards);
      }
      check_batch_report(s, report, check);
      Scope span(rec, "bench.serial");
      for (const auto& [name, history] : shards.per_key) {
        kav::Verdict verdict;
        {
          Scope step(rec, "pipeline.shard");
          verdict = kav::verify_k_atomicity(history, engine.options().verify);
        }
        check_verdict(s, s.key_id.at(name), verdict, "serial verify", check);
      }
    }

    // obs: scrape the engine's registry.
    {
      kav::obs::RegistrySnapshot snapshot;
      {
        Scope span(rec, "obs.snapshot");
        snapshot = engine.snapshot();
      }
      std::string text;
      {
        Scope span(rec, "obs.render");
        text = kav::obs::render_prometheus(snapshot);
      }
      out.series = snapshot.metrics.size();
      check.expect(!text.empty(), "empty Prometheus rendering");
    }

    // ingest: per-key reorder replay of the arrivals.
    {
      Scope span(rec, "bench.reorder");
      for (std::size_t key = 0; key < ci.arrivals.size(); ++key) {
        Scope step(rec, "ingest.reorder");
        kav::ReorderBuffer buffer(s.in.slack);
        std::vector<Operation>& released = ci.released[key];
        std::vector<ChainInput::Mark>& marks = ci.marks[key];
        released.clear();
        marks.clear();
        Operation op;
        for (const Operation& arrival : ci.arrivals[key]) {
          buffer.push(arrival);
          out.pending_max = std::max(out.pending_max, buffer.pending());
          while (buffer.pop(op)) released.push_back(op);
          marks.push_back({released.size(), buffer.watermark()});
        }
        buffer.flush();
        while (buffer.pop(op)) released.push_back(op);
        out.late += buffer.late_rejected();
        check.expect(buffer.late_rejected() == 0,
                     "reorder buffer rejected late arrivals on key " + s.in.key_names[key]);
      }
    }

    // core: per-key StreamingChecker replay of the released operations.
    {
      Scope span(rec, "bench.stream");
      kav::StreamingOptions options;
      options.staleness_horizon = s.in.shape.horizon;
      for (std::size_t key = 0; key < ci.arrivals.size(); ++key) {
        Scope step(rec, "bench.stream_key");
        Tally add(rec, "core.stream_add");
        Tally flush(rec, "core.stream_flush");
        kav::StreamingChecker checker(options);
        const std::vector<Operation>& released = ci.released[key];
        std::size_t pos = 0;
        auto advance = [&](TimePoint watermark) {
          const std::uint64_t before = checker.stats().chunks_verified;
          flush.time([&] { checker.advance_watermark(watermark); });
          ++out.flushes;
          if (checker.stats().chunks_verified > before) ++out.useful_flushes;
        };
        for (const ChainInput::Mark& mark : ci.marks[key]) {
          for (; pos < mark.released; ++pos) add.time([&] { checker.add(released[pos]); });
          advance(mark.watermark);
        }
        for (; pos < released.size(); ++pos) add.time([&] { checker.add(released[pos]); });
        const std::uint64_t before = checker.stats().chunks_verified;
        flush.time([&] { checker.finish(); });
        ++out.flushes;
        if (checker.stats().chunks_verified > before) ++out.useful_flushes;
        out.peak_window = std::max(out.peak_window, checker.stats().peak_window);
        check_findings(s, static_cast<std::uint32_t>(key), checker.violations(),
                       "stream replay", check);
      }
    }

    // ingest: a producer pushes the stream; this thread drains it into a
    // KeyedStreamingMonitor on the engine's pool, as Engine::monitor does.
    {
      Scope span(rec, "bench.monitor");
      kav::MonitorOptions options;
      options.streaming.staleness_horizon = s.in.shape.horizon;
      options.reorder_slack = s.in.slack;
      options.queue_capacity = engine.options().queue_capacity;
      options.metrics = s.registry.get();
      kav::KeyedStreamingMonitor monitor(engine.pool(), options);
      kav::PushTraceSource source(engine.options().queue_capacity);
      const std::vector<KeyedOperation>& ops = s.in.stream.ops;
      kav::MonitorReport report = with_producer(
          source,
          [&] {
            Scope producer(rec, "bench.producer", 1);
            Tally push(rec, "ingest.push_wait", 1);
            for (std::size_t i = 0; i < ops.size(); ++i) {
              push.time([&] { source.push(ops[i]); });
              if (i % 4096 == 4095) push.flush();
            }
          },
          [&] {
            {
              Tally ingest(rec, "ingest.monitor_ingest");
              KeyedOperation kop;
              std::size_t n = 0;
              while (source.next(kop)) {
                ingest.time([&] { monitor.ingest(kop); });
                if (++n % 4096 == 0) ingest.flush();
              }
            }
            Scope step(rec, "ingest.monitor_finish");
            return monitor.finish();
          });
      for (std::uint32_t key = 0; key < s.in.key_names.size(); ++key) {
        const auto it = report.per_key.find(s.in.key_names[key]);
        check_findings(s, key,
                       it == report.per_key.end() ? std::vector<StreamingViolation>{}
                                                  : it->second.violations,
                       "keyed monitor", check);
      }
    }
  }
  out.wall_s = seconds_since(t0);
  return out;
}

// --- Result assembly -------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string env_json(const Fixture& s, const Options& o) {
  std::ostringstream js;
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(s.in.digest));
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  js << "{\"workload\":" << json_string(o.workload) << ",\"seed\":" << o.seed
     << ",\"seconds\":" << json_number(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"size\":" << json_string(o.tiny ? "tiny" : "full")
     << ",\"nproc\":" << cpu_count()
     << ",\"engine_threads\":" << engine_threads(s.workload->kind)
     << ",\"compiler\":" << json_string(
#if defined(__clang__)
            std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
            std::string("gcc ") + __VERSION__
#else
            std::string("unknown")
#endif
            )
     << ",\"build_type\":" << json_string(KAVBENCH_BUILD_TYPE)
     << ",\"ndebug\":" << (ndebug ? "true" : "false")
     << ",\"git_sha\":" << json_string(o.git_sha)
     << ",\"ops\":" << s.total_ops << ",\"keys\":" << s.in.key_names.size()
     << ",\"bad_keys\":" << s.in.bad_keys() << ",\"hot_keys\":" << s.in.shape.hot_keys
     << ",\"injected\":" << s.in.injected.size()
     << ",\"audited_keys\":" << s.audited.size() << ",\"audited_ops\":" << s.audited_ops
     << ",\"horizon\":" << s.in.shape.horizon << ",\"reorder_slack\":" << s.in.slack
     << ",\"input_digest\":\"" << digest << "\"}";
  return js.str();
}

void finish_result(Result& r, const Check& check) {
  r.errors = check.errors;
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.errors.push_back("metric " + m.name + " is not finite");
  }
  // A run that checked nothing counts as one failed item.
  r.attempted = std::max<std::uint64_t>(check.attempted, 1);
  r.failed = check.attempted == 0 ? 1 : check.failed;
  r.correct = r.failed == 0 && r.errors.empty();
}

// --- The two run modes -------------------------------------------------------------

Result run_end_to_end(const Workload& w, const Options& o) {
  const fs::path dir = fs::path(o.work_dir) / "fixture";
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> s;
  std::uint64_t digest = 0;
  Check check;
  for (std::size_t i = 0; i < kSetups; ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = set_up(w, o, dir);
    setup_s.push_back(seconds_since(t0));
    if (i > 0) check.expect(s->in.digest == digest, "same seed generated different input");
    digest = s->in.digest;
  }
  index_fixture(*s, o.seed);
  if (w.kind != Kind::replay) {
    // The batch workloads read their input from disk: free the
    // generator's copy so that it does not count in peak_rss_mb.
    s->in.stream = {};
    s->in.stream_key = {};
  }
  malloc_trim(0);  // hand the earlier setups' freed memory back

  std::vector<double> wall_s;
  auto one_rep = [&] {
    return w.kind == Kind::replay ? monitor_rep(*s, check) : batch_rep(*s, check);
  };
  one_rep();  // warm-up: first-touch page faults and allocator growth
  // peak_rss_mb covers the timed repetitions only, not the setups.
  const bool rss_reset = reset_peak_rss();
  std::vector<double> detect_ms, rep_p50, rep_p99;
  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  double last = 0;
  do {
    Rep rep = one_rep();
    last = rep.wall_s;
    wall_s.push_back(rep.wall_s);
    rep_p50.push_back(quantile(rep.detect_ms, 0.50));
    rep_p99.push_back(quantile(rep.detect_ms, 0.99));
    detect_ms.insert(detect_ms.end(), rep.detect_ms.begin(), rep.detect_ms.end());
  } while (seconds_since(start) + last < o.seconds);
  const double cpu = cpu_seconds() - cpu0;
  const double ops = static_cast<double>(s->e2e_ops());
  const double mops = ops * static_cast<double>(wall_s.size()) / 1e6;
  // A batch repetition's verdicts share one timeline, so host steal that
  // slows the repetition delays all of them: detection is summarized per
  // repetition, like the wall time. A monitor repetition's thousands of
  // findings are pooled over the repetitions.
  const bool pooled = w.kind == Kind::replay;
  const double detect_p50 = pooled ? quantile(detect_ms, 0.50) : quantile(rep_p50, kFastQuantile);
  const double detect_p99 = pooled ? quantile(detect_ms, 0.99) : quantile(rep_p99, kFastQuantile);

  Result r;
  r.workload = w.name;
  r.env_json = env_json(*s, o);
  r.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", ops / quantile(wall_s, kFastQuantile), "ops/s"},
      {"cpu_s_per_mop", cpu / mops, "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"detect_p50_ms", detect_p50, "ms"},
      {"detect_p99_ms", detect_p99, "ms"},
  };
  finish_result(r, check);
  for (double wall : wall_s) r.rep_ops_per_s.push_back(ops / wall);
  r.info = {
      {"failed_frac", static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio"},
      {"median_ops_per_s", ops / median(wall_s), "ops/s"},
      {"peak_rss_timed_only", rss_reset ? 1.0 : 0.0, "bool"},
      {"repetitions", static_cast<double>(wall_s.size()), "count"},
      {"ops_per_repetition", static_cast<double>(s->e2e_ops()), "ops"},
      {"detect_samples", static_cast<double>(detect_ms.size()), "count"},
      {"detect_max_ms", quantile(detect_ms, 1.0), "ms"},
  };
  return r;
}

Result run_traced(const Workload& w, const Options& o) {
  Check check;
  std::unique_ptr<Fixture> s = set_up(w, o, fs::path(o.work_dir) / "fixture");
  index_fixture(*s, o.seed);

  // Untimed extra setup: every workload's chain decodes a .kavb form of
  // its input and loads from a store holding it.
  ChainInput ci;
  if (w.kind == Kind::store) {
    ci.store = s->store;
    for (const kav::SegmentInfo& seg : kav::TraceStore(s->store).segments()) {
      ci.files.push_back(seg.path.string());
    }
  } else {
    ci.store = s->dir / "chain_store";
    kav::TraceStore store(ci.store);
    append_in_segments(store, s->in.stream);
    if (s->kavb.empty()) {
      s->kavb = s->dir / "trace.kavb";
      kav::write_binary_trace_file(s->kavb.string(), s->in.stream);
    }
    ci.files.push_back(s->kavb.string());
  }
  const std::size_t keys = s->in.key_names.size();
  ci.arrivals.resize(keys);
  ci.released.resize(keys);
  ci.marks.resize(keys);
  for (std::size_t i = 0; i < s->in.stream.size(); ++i) {
    ci.arrivals[s->in.stream_key[i]].push_back(s->in.stream.ops[i].op);
  }

  Recorder traced(true);
  Recorder untraced(false);
  std::vector<ChainOut> runs;
  std::vector<double> untraced_wall;
  const Clock::time_point start = Clock::now();
  double pair = 0;
  do {
    traced.set_run(static_cast<std::uint32_t>(runs.size()));
    runs.push_back(run_chain(*s, ci, traced, check));
    untraced_wall.push_back(run_chain(*s, ci, untraced, check).wall_s);
    pair = runs.back().wall_s + untraced_wall.back();
  } while (seconds_since(start) + pair < o.seconds);

  // Per-run layer values, then medians over runs.
  std::map<std::string, std::vector<double>> per_run;
  for (std::uint32_t run = 0; run < runs.size(); ++run) {
    const ChainOut& c = runs[run];
    std::map<std::string, double> self = traced.self_seconds(run);
    const std::map<std::string, double> total = traced.total_seconds(run);
    const std::map<std::string, double> longest = traced.max_seconds(run);
    auto get = [](const std::map<std::string, double>& m, const char* name) {
      const auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double covered = 0;
    for (const auto& [name, secs] : traced.self_seconds(run, 0)) {
      if (name.rfind("bench.", 0) != 0) covered += secs;
    }
    const double threads = static_cast<double>(s->engine->thread_count());
    const double decode_s = get(self, "ingest.decode");
    const double load_s = get(self, "store.load");
    const double shard_sum = get(total, "pipeline.shard");
    const double wall = get(self, "pipeline.wall");
    const std::map<std::string, double> values = {
        {"ingest.decode_s", decode_s},
        {"ingest.decode_mops", ratio(static_cast<double>(c.decoded) / 1e6, decode_s)},
        {"ingest.push_wait_s", get(self, "ingest.push_wait")},
        {"ingest.reorder_s", get(self, "ingest.reorder")},
        {"ingest.reorder_pending_max", static_cast<double>(c.pending_max)},
        {"ingest.late_arrivals", static_cast<double>(c.late)},
        {"ingest.monitor_ingest_s", get(self, "ingest.monitor_ingest")},
        {"ingest.monitor_finish_s", get(self, "ingest.monitor_finish")},
        {"history.split_s", get(self, "history.split")},
        {"history.build_s", get(self, "history.build")},
        {"history.anomaly_s", get(self, "history.anomaly")},
        {"history.normalize_s", get(self, "history.normalize")},
        {"history.normalized_keys", static_cast<double>(c.normalized)},
        {"core.profile_s", get(self, "core.profile")},
        {"core.lbt_s", get(self, "core.lbt")},
        {"core.fzf_s", get(self, "core.fzf")},
        {"core.lbt_keys", static_cast<double>(c.lbt_keys)},
        {"core.fzf_keys", static_cast<double>(c.fzf_keys)},
        {"core.steps_per_op", ratio(static_cast<double>(c.lbt.steps + c.fzf.steps),
                                    static_cast<double>(c.decided_ops))},
        {"core.lbt_candidates_per_epoch",
         ratio(static_cast<double>(c.lbt.candidates_tried), static_cast<double>(c.lbt.epochs))},
        {"core.fzf_orders_per_chunk",
         ratio(static_cast<double>(c.fzf.orders_tested), static_cast<double>(c.fzf.chunks))},
        {"core.stream_add_s", get(self, "core.stream_add")},
        {"core.stream_flush_s", get(self, "core.stream_flush")},
        {"core.stream_flushes", static_cast<double>(c.flushes)},
        {"core.stream_useful_flush_frac",
         ratio(static_cast<double>(c.useful_flushes), static_cast<double>(c.flushes))},
        {"core.stream_peak_window", static_cast<double>(c.peak_window)},
        {"pipeline.wall_s", wall},
        {"pipeline.shard_sum_s", shard_sum},
        {"pipeline.efficiency", ratio(shard_sum, threads * wall)},
        {"pipeline.max_shard_s", get(longest, "pipeline.shard")},
        {"store.open_s", get(self, "store.open")},
        {"store.stat_s", get(self, "store.stat")},
        {"store.load_s", load_s},
        {"store.load_mops", ratio(static_cast<double>(c.loaded) / 1e6, load_s)},
        {"store.segments", static_cast<double>(c.segments)},
        {"obs.snapshot_s", get(self, "obs.snapshot")},
        {"obs.render_s", get(self, "obs.render")},
        {"obs.series", static_cast<double>(c.series)},
        {"trace.coverage", ratio(covered, get(total, "bench.run"))},
    };
    for (const auto& [name, value] : values) per_run[name].push_back(value);
  }
  std::vector<double> traced_wall;
  for (const ChainOut& c : runs) traced_wall.push_back(c.wall_s);
  per_run["trace.overhead_frac"] = {median(traced_wall) / median(untraced_wall) - 1};

  Result r;
  r.workload = w.name;
  r.env_json = env_json(*s, o);
  auto unit_of = [](const std::string& name) -> std::string {
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) return "s";
    if (name.size() > 5 && name.compare(name.size() - 5, 5, "_mops") == 0) return "Mops/s";
    if (name.find("_frac") != std::string::npos || name == "trace.coverage" ||
        name == "pipeline.efficiency" || name.find("_per_") != std::string::npos) {
      return "ratio";
    }
    return "count";
  };
  for (const auto& [name, values] : per_run) r.metrics.push_back({name, median(values), unit_of(name)});
  finish_result(r, check);
  r.info = {
      {"traced_runs", static_cast<double>(runs.size()), "count"},
      {"traced_wall_s", median(traced_wall), "s"},
      {"untraced_wall_s", median(untraced_wall), "s"},
  };
  fs::create_directories(o.out_dir);
  r.span_file = (fs::path(o.out_dir) / ("spans-" + std::string(w.name) + "-seed" +
                                        std::to_string(o.seed) + ".json"))
                    .string();
  traced.write_chrome_json(r.span_file, 0);
  return r;
}

}  // namespace

Result run_workload(const Options& options) {
  const Workload& w = find_workload(options.workload);
  Result r = options.trace ? run_traced(w, options) : run_end_to_end(w, options);
  fs::remove_all(fs::path(options.work_dir) / "fixture");
  return r;
}

std::string result_json(const Result& r) {
  std::ostringstream js;
  js << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    js << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  js << "}}";
  return js.str();
}

std::string record_json(const Result& r) {
  std::ostringstream js;
  js << "{\"result\": " << result_json(r) << ", \"env\": " << r.env_json << ", \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    js << (i ? ", " : "") << json_string(r.info[i].name) << ": {\"value\": "
       << json_number(r.info[i].value) << ", \"unit\": " << json_string(r.info[i].unit) << "}";
  }
  js << "}";
  js << ", \"rep_ops_per_s\": [";
  for (std::size_t i = 0; i < r.rep_ops_per_s.size(); ++i) {
    js << (i ? ", " : "") << json_number(r.rep_ops_per_s[i]);
  }
  js << "]";
  js << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    js << (i ? ", " : "") << json_string(r.errors[i]);
  }
  js << "], \"span_file\": " << json_string(r.span_file) << "}";
  return js.str();
}

std::string result_table(const Result& r) {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "== %s: %s, %llu checked, %llu failed\n", r.workload.c_str(),
                r.correct ? "correct" : "INCORRECT",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  out << line;
  for (const auto* list : {&r.metrics, &r.info}) {
    for (const Metric& m : *list) {
      std::snprintf(line, sizeof line, "  %-32s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      out << line;
    }
  }
  for (const std::string& e : r.errors) out << "  error: " << e << "\n";
  if (!r.span_file.empty()) out << "  spans: " << r.span_file << "\n";
  return out.str();
}

}  // namespace kavbench
