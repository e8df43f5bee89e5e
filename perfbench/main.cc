// The repository benchmark: one process runs one named workload, checks
// every answer against the reference engine, and prints every end-to-end
// metric (or, with --trace 1, every per-layer metric) by name with its
// unit. README.md in this directory says why each workload exists and what
// each metric should move.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out RESULT.json] [--spans SPANS.csv]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; --out also writes it with
// the run's fingerprint and sample details, --spans writes the traced
// run's spans.
#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cpu/build_cache.h"
#include "cpu/vector_ops.h"
#include "engine/query_engine.h"
#include "engine/registry.h"
#include "in_flight.h"
#include "query/parser.h"
#include "query/query_spec.h"
#include "query/ssb_specs.h"
#include "server/query_server.h"
#include "ssb/datagen.h"
#include "ssb/fused_query.h"
#include "ssb/queries.h"
#include "ssb/vectorized_cpu_engine.h"
#include "stats.h"
#include "storage/encoded_column.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using crystal::ThreadPool;
namespace cpu = crystal::cpu;
namespace engine = crystal::engine;
namespace query = crystal::query;
namespace server = crystal::server;
namespace ssb = crystal::ssb;
namespace storage = crystal::storage;
namespace workload = crystal::workload;

/// Database content and the ad-hoc suite are fixed; the workload seed
/// varies the order in which queries are sent.
constexpr uint64_t kDatagenSeed = 20200302;
/// Set-up (datagen + warm-up) runs this many times; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// A run's measurement is split into at least this many consecutive
/// rounds; medians, tails and rates are taken per round and reported as
/// the median round, so a few seconds of interference from outside the
/// process move one round, not the result.
constexpr int kRounds = 3;
/// A closed-loop round is the fewest consecutive passes holding this many
/// latencies, enough for a tail with ten samples beyond it at about p90.
constexpr size_t kRoundSamples = 100;
/// The ad-hoc suite: the generator's whole tier grid (every combination of
/// selectivity, join count, group size and aggregate list once), generated
/// from a fixed seed. A suite drawn per workload seed made the tail and the
/// peak memory follow the draw (the tenth-slowest spec ranged 36-50 ms and
/// peak RSS 305-469 MB over five seeds), not the program.
constexpr int kGeneratedSpecs = 192;
constexpr uint64_t kSuiteSeed = kDatagenSeed;

// ----------------------------------------------------------- workloads

enum class Kind { kSolo, kAdhoc, kServed };

struct WorkloadDef {
  const char* name;
  Kind kind;
  int scale_factor;
  int fact_divisor;
  storage::Encoding encoding;
};

constexpr WorkloadDef kWorkloads[] = {
    {"ssb13-sf10-solo", Kind::kSolo, 10, 1, storage::Encoding::kPlain},
    {"adhoc-sf10-cold", Kind::kAdhoc, 10, 20, storage::Encoding::kPacked},
    {"served-sf3-inflight", Kind::kServed, 3, 1, storage::Encoding::kPlain},
};

/// Load levels of served-sf3-inflight, as requests the generator keeps in
/// flight: one, and twice the server's max_batch, so that every batch is
/// full and the next one is already queued behind it. Only at these levels
/// is the batch the scheduler forms independent of the race between the
/// generator refilling freed slots and the scheduler taking the queue. In
/// between, how many refills make the next batch depends on thread timing:
/// at SF1 on a 4-vCPU host, 16 in flight gave a top-level tail of 64 ms,
/// or 101-122 ms in runs where the host ran about 10% slower.
constexpr int kLevels = 2;
constexpr int kLowLevel = 0;
constexpr int kTopLevel = 1;
size_t InFlight(int level) {
  return level == kLowLevel
             ? 1
             : static_cast<size_t>(2 * server::ServerOptions().max_batch);
}

// ------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"latency_tail_ms.high", "ms"},
    {"geomean_ms", "ms"},
    {"qps", "1/s"},
    {"max_rate_qps", "1/s"},
    {"success_rate", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"ssb.fused.scan_ms", "ms"},
    {"ssb.fused.scan_gbps.q1.1", "GB/s"},
    {"ssb.fused.scan_gbps.q1.2", "GB/s"},
    {"ssb.fused.scan_gbps.q1.3", "GB/s"},
    {"ssb.fused.scan_gbps.q2.1", "GB/s"},
    {"ssb.fused.scan_gbps.q2.2", "GB/s"},
    {"ssb.fused.scan_gbps.q2.3", "GB/s"},
    {"ssb.fused.scan_gbps.q3.1", "GB/s"},
    {"ssb.fused.scan_gbps.q3.2", "GB/s"},
    {"ssb.fused.scan_gbps.q3.3", "GB/s"},
    {"ssb.fused.scan_gbps.q3.4", "GB/s"},
    {"ssb.fused.scan_gbps.q4.1", "GB/s"},
    {"ssb.fused.scan_gbps.q4.2", "GB/s"},
    {"ssb.fused.scan_gbps.q4.3", "GB/s"},
    {"ssb.fused.morsel_us_p50", "us"},
    {"ssb.fused.morsel_us_tail", "us"},
    {"ssb.fused.morsels", "count"},
    {"ssb.fused.busy_frac", "ratio"},
    {"ssb.fused.create_ms", "ms"},
    {"ssb.fused.finish_ms", "ms"},
    {"ssb.fused.agg_mode.scalar", "count"},
    {"ssb.fused.agg_mode.dense", "count"},
    {"ssb.fused.agg_mode.sparse", "count"},
    {"ssb.fused.agg_mode.shared_sparse", "count"},
    {"ssb.fused.degraded", "count"},
    {"cpu.build_cache.build_ms", "ms"},
    {"cpu.build_cache.hits", "count"},
    {"cpu.build_cache.builds", "count"},
    {"cpu.build_cache.hit_ratio", "ratio"},
    {"cpu.build_cache.bytes", "bytes"},
    {"query.parse_us", "us"},
    {"storage.fact_bytes_per_row", "B/row"},
    {"server.submit_us", "us"},
    {"server.queue_ms_p50", "ms"},
    {"server.queue_ms_tail", "ms"},
    {"server.exec_ms_p50", "ms"},
    {"server.batch_size_mean", "count"},
    {"server.scans_saved", "count"},
    {"server.dedup_ratio", "ratio"},
    {"common.memory.peak_bytes", "bytes"},
    {"ssb.datagen_s", "s"},
    {"gen.lag_ms_tail", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unaccounted_frac", "ratio"},
};

/// Metric values of one run; names not set print as 0 (not measured on
/// this workload — README.md says which workload measures what).
using Values = std::map<std::string, double>;

/// Sample details that are not metrics but are needed to read them: how
/// many samples a tail rests on and at which percentile.
using Notes = std::map<std::string, double>;

// ------------------------------------------------------------- helpers

int64_t LogicalCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int64_t>(std::thread::hardware_concurrency());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// FNV-1a over the normalized result: equal digests <=> equal answers
/// (up to hash collisions, which a 64-bit digest makes irrelevant here).
uint64_t Digest(ssb::QueryResult result) {
  result.Normalize();
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<uint64_t>(v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(result.num_values);
  if (result.scalar_values.empty()) {
    mix(result.scalar);
  } else {
    for (int64_t v : result.scalar_values) mix(v);
  }
  mix(static_cast<int64_t>(result.group_keys.size()));
  for (const auto& k : result.group_keys) {
    for (int32_t x : k) mix(x);
  }
  for (int64_t v : result.group_values) mix(v);
  return h;
}

/// A query as the workload sends it: spec text in the ad-hoc grammar plus
/// the parsed spec (for paths that do not parse per request), and the
/// digests of the answers it got.
struct Query {
  std::string name;
  std::string text;
  query::QuerySpec spec;
  std::map<uint64_t, int64_t> answers;  // answer digest -> times returned
};

query::QuerySpec ParseOrDie(const std::string& text) {
  query::QuerySpec spec;
  std::string error;
  if (!query::ParseQuerySpec(text, &spec, &error)) {
    std::fprintf(stderr, "perfbench: generated spec does not parse: %s\n  %s\n",
                 error.c_str(), text.c_str());
    std::exit(1);
  }
  return spec;
}

std::vector<Query> CanonicalQueries() {
  std::vector<Query> queries;
  for (ssb::QueryId id : ssb::kAllQueries) {
    Query q;
    q.name = ssb::QueryName(id);
    q.text = query::FormatQuerySpec(query::SsbSpec(id));
    q.spec = ParseOrDie(q.text);
    q.spec.name = q.name;
    queries.push_back(std::move(q));
  }
  return queries;
}

std::vector<Query> GeneratedQueries(uint64_t seed, int count) {
  workload::GenOptions options;
  options.seed = seed;
  options.count = count;
  std::vector<Query> queries;
  for (const workload::GeneratedQuery& g :
       workload::GenerateWorkload(options)) {
    Query q;
    q.name = g.spec.name;
    q.text = query::FormatQuerySpec(g.spec);
    q.spec = ParseOrDie(q.text);
    q.spec.name = q.name;
    queries.push_back(std::move(q));
  }
  return queries;
}

std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  crystal::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.Uniform(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  return order;
}

double FactBytesPerRow(const ssb::Database& db) {
  const ssb::LineorderTable& lo = db.lo;
  const int64_t bytes =
      lo.orderdate.encoded_bytes() + lo.custkey.encoded_bytes() +
      lo.partkey.encoded_bytes() + lo.suppkey.encoded_bytes() +
      lo.quantity.encoded_bytes() + lo.discount.encoded_bytes() +
      lo.extendedprice.encoded_bytes() + lo.revenue.encoded_bytes() +
      lo.supplycost.encoded_bytes();
  return static_cast<double>(bytes) / static_cast<double>(lo.rows);
}

std::unique_ptr<ssb::Database> Generate(const WorkloadDef& w,
                                        double* datagen_s) {
  ssb::DatagenOptions options;
  options.scale_factor = w.scale_factor;
  options.fact_divisor = w.fact_divisor;
  options.seed = kDatagenSeed;
  options.storage.encoding = w.encoding;
  const int64_t start = NowNs();
  auto db = std::make_unique<ssb::Database>(ssb::Generate(options));
  *datagen_s = MsSince(start) / 1e3;
  return db;
}

/// Everything a run accumulates besides its set-up.
struct RunState {
  FailureCounts counts;
  Values values;
  Notes notes;
  std::vector<Span> spans;
};

/// Times set-up kSetupRepeats times. Each repeat calls `drop` (releases
/// what runs on the previous database), frees that database and the build
/// cache, generates a new database and calls `attach` on it (construction
/// and warm-up). setup_s and ssb.datagen_s are the medians; the last
/// database is returned.
template <typename Drop, typename Attach>
std::unique_ptr<ssb::Database> TimedSetUps(const WorkloadDef& def,
                                           RunState* run, Drop&& drop,
                                           Attach&& attach) {
  std::unique_ptr<ssb::Database> db;
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    drop();
    db.reset();
    cpu::BuildCache::Process().Clear();
    const int64_t start = NowNs();
    double gen_s = 0;
    db = Generate(def, &gen_s);
    attach(*db);
    setup_s.push_back(MsSince(start) / 1e3);
    datagen_s.push_back(gen_s);
  }
  run->values["setup_s"] = Median(setup_s);
  run->values["ssb.datagen_s"] = Median(datagen_s);
  run->values["storage.fact_bytes_per_row"] = FactBytesPerRow(*db);
  return db;
}

void SetTail(RunState* run, const std::string& metric,
             const std::vector<double>& samples) {
  const Tail tail = TailPercentile(samples);
  run->values[metric] = tail.value;
  run->notes[metric + ".percentile"] = tail.percentile;
  run->notes[metric + ".samples"] = static_cast<double>(tail.samples);
}

/// Median over rounds of each round's tail; the notes give the smallest
/// round's sample count and the percentile it supports.
void SetRoundTail(RunState* run, const std::string& metric,
                  const std::vector<std::vector<double>>& rounds) {
  std::vector<double> tails;
  Tail smallest;
  smallest.samples = -1;
  for (const std::vector<double>& r : rounds) {
    const Tail t = TailPercentile(r);
    tails.push_back(t.value);
    if (smallest.samples < 0 || t.samples < smallest.samples) smallest = t;
  }
  run->values[metric] = Median(tails);
  run->notes[metric + ".percentile"] = smallest.percentile;
  run->notes[metric + ".samples"] = static_cast<double>(smallest.samples);
  run->notes[metric + ".rounds"] = static_cast<double>(rounds.size());
}

/// Median over rounds of each round's median.
double RoundMedian(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> medians;
  for (const std::vector<double>& r : rounds) medians.push_back(Median(r));
  return Median(medians);
}

/// The correctness gate, run after the measurement: every distinct spec
/// that was sent runs once on the reference engine (spread over `threads`
/// threads) and every answer it got is compared with that result's digest.
/// Each mismatching answer is a failed operation.
void CheckAnswers(const ssb::Database& db, int threads,
                  const std::vector<Query>& queries, RunState* run) {
  std::vector<uint64_t> reference(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < queries.size(); i = next++) {
        if (queries[i].answers.empty()) continue;
        reference[i] = Digest(ssb::RunReference(db, queries[i].spec));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    for (const auto& [digest, times] : queries[i].answers) {
      if (digest == reference[i]) continue;
      run->counts.wrong += times;
      std::fprintf(stderr, "perfbench: %lld wrong answers for %s: %s\n",
                   static_cast<long long>(times), queries[i].name.c_str(),
                   queries[i].text.c_str());
    }
  }
}

// ------------------------------------- closed loop (solo and ad-hoc)

/// One closed-loop client over a fixed query list: a pass sends every
/// query once, in a seeded order, each only after the previous answered.
/// ssb13-sf10-solo sends canonical specs with the build cache warm;
/// adhoc-sf10-cold sends spec text, parsed per request, and clears the
/// build cache at the start of every pass.
class ClosedLoop {
 public:
  ClosedLoop(const WorkloadDef& def, std::vector<Query> queries,
             ThreadPool& pool)
      : def_(def), queries_(std::move(queries)), pool_(pool) {}

  /// Datagen + warm-up, kSetupRepeats times; keeps the last database.
  void SetUp(RunState* run) {
    db_ = TimedSetUps(
        def_, run, [this] { engine_.reset(); },
        [this](const ssb::Database& db) {
          engine::EngineContext context;
          context.db = &db;
          context.pool = &pool_;
          engine_ = engine::EngineRegistry::Global().Create("vectorized-cpu",
                                                            context);
          // One untimed pass fills the build cache and faults in the fact
          // columns and the aggregation scratch.
          for (const Query& q : queries_) engine_->Execute(Spec(q));
        });
    morsel_rows_ = ssb::VectorizedCpuEngine(*db_, pool_).morsel_rows();
  }

  const ssb::Database& db() const { return *db_; }
  const std::vector<Query>& queries() const { return queries_; }

  /// Runs passes for `seconds`, at least kRounds rounds (traced: one
  /// untraced round and two traced passes).
  /// In traced mode passes alternate between the untraced engine path and the traced
  /// decomposed path, so the tracing overhead is measured on the same
  /// queries in the same process.
  void Measure(uint64_t seed, double seconds, bool trace, RunState* run) {
    Tracer tracer(pool_.num_threads());
    std::vector<Pass> untraced;
    std::vector<Pass> traced;
    crystal::MemoryBudget::Process().ResetPeak();
    const int64_t start = NowNs();
    for (uint64_t pass = 0;; ++pass) {
      const std::vector<size_t> order =
          ShuffledOrder(queries_.size(), seed * 0x100000001b3ull + pass);
      if (trace && pass % 2 == 1) {
        traced.push_back(RunPass(order, &tracer, run));
      } else {
        untraced.push_back(RunPass(order, nullptr, run));
      }
      const bool enough =
          trace ? untraced.size() >= PassesPerRound() && traced.size() >= 2
                : untraced.size() >= kRounds * PassesPerRound();
      if (enough && MsSince(start) >= seconds * 1e3) break;
    }
    EndToEnd(untraced, run);
    if (trace) {
      run->spans = tracer.Spans();
      PerLayer(untraced, traced, run->spans, run);
    }
  }

 private:
  size_t PassesPerRound() const {
    return (kRoundSamples + queries_.size() - 1) / queries_.size();
  }

  struct Pass {
    double wall_ms = 0;
    std::vector<double> latency_ms;  // by query index
    int64_t hits = 0;
    int64_t builds = 0;
    int agg_modes[4] = {0, 0, 0, 0};  // by ssb::FusedQuery::AggMode
    int degraded = 0;
  };

  query::QuerySpec Spec(const Query& q) const {
    return def_.kind == Kind::kAdhoc ? ParseOrDie(q.text) : q.spec;
  }

  Pass RunPass(const std::vector<size_t>& order, Tracer* tracer,
               RunState* run) {
    Pass pass;
    pass.latency_ms.assign(queries_.size(), 0);
    const int64_t pass_start = NowNs();
    if (def_.kind == Kind::kAdhoc) cpu::BuildCache::Process().Clear();
    for (size_t qi : order) {
      Query& q = queries_[qi];
      ++run->counts.attempted;
      ssb::QueryResult result;
      const bool ok = tracer == nullptr
                          ? RunUntraced(qi, &pass, &result)
                          : RunTraced(qi, tracer, &pass, &result);
      if (!ok) {
        ++run->counts.errors;
        continue;
      }
      ++q.answers[Digest(result)];
    }
    pass.wall_ms = MsSince(pass_start);
    return pass;
  }

  bool RunUntraced(size_t qi, Pass* pass, ssb::QueryResult* result) {
    const int64_t t0 = NowNs();
    engine::RunStats stats = engine_->Execute(Spec(queries_[qi]));
    pass->latency_ms[qi] = MsSince(t0);
    pass->hits += stats.build_cache_hits;
    pass->builds += stats.build_cache_builds;
    *result = std::move(stats.result);
    return true;
  }

  /// The sequence VectorizedCpuEngine::Run makes — Create, one
  /// ParallelForMorsels pass of RunMorsel, Finish — with a span around
  /// each call and around every morsel.
  bool RunTraced(size_t qi, Tracer* tracer, Pass* pass,
                 ssb::QueryResult* result) {
    const Query& q = queries_[qi];
    const int64_t request = next_request_++;
    request_query_.push_back(qi);
    const int64_t t0 = NowNs();
    const int64_t root = tracer->Open(0, "query", kNoParent, request);
    query::QuerySpec spec;
    if (def_.kind == Kind::kAdhoc) {
      const int64_t p = tracer->Open(0, "query.parse", root, request);
      spec = ParseOrDie(q.text);
      tracer->Close(p);
    } else {
      spec = q.spec;
    }
    ssb::FusedQuery::BuildStats build;
    const int64_t c0 = NowNs();
    crystal::StatusOr<std::unique_ptr<ssb::FusedQuery>> fused =
        ssb::FusedQuery::Create(spec, *db_, pool_.num_threads(), pool_,
                                &grid_scratch_, &build);
    const int64_t c1 = NowNs();
    const int64_t create =
        tracer->Add(0, "ssb.fused.create", root, request, c0, c1);
    // The build phase runs inside Create; BuildStats times it. The span
    // carries that measured length, placed at the start of Create.
    tracer->Add(0, "cpu.build_cache.build", create, request, c0,
                c0 + static_cast<int64_t>(build.build_ms * 1e6));
    pass->hits += build.cache_hits;
    pass->builds += build.cache_builds;
    bool ok = fused.ok();
    if (ok) {
      ssb::FusedQuery& fq = **fused;
      const int64_t scan = tracer->Open(0, "ssb.fused.scan", root, request);
      pool_.ParallelForMorsels(
          db_->lo.rows, morsel_rows_, [&](int t, int64_t begin, int64_t end) {
            const int64_t m0 = NowNs();
            // A failed morsel latches the query; Finish reports it.
            (void)fq.RunMorsel(t, begin, end);
            tracer->Add(t, "ssb.fused.morsel", scan, request, m0, NowNs());
          });
      tracer->Close(scan);
      const int64_t f0 = NowNs();
      crystal::StatusOr<ssb::QueryResult> r = fq.Finish(pool_);
      tracer->Add(0, "ssb.fused.finish", root, request, f0, NowNs());
      ++pass->agg_modes[static_cast<int>(fq.agg_mode())];
      pass->degraded += fq.degraded() ? 1 : 0;
      ok = r.ok();
      if (ok) *result = std::move(r).value();
      fused.value().reset();  // destroyed inside the request, as in Run
    }
    tracer->Close(root);
    pass->latency_ms[qi] = MsSince(t0);
    return ok;
  }

  void EndToEnd(const std::vector<Pass>& passes, RunState* run) {
    std::vector<std::vector<double>> by_query(queries_.size());
    std::vector<std::vector<double>> by_round(
        std::max<size_t>(1, passes.size() / PassesPerRound()));
    std::vector<double> pass_qps;
    for (size_t p = 0; p < passes.size(); ++p) {
      // Passes beyond the last whole round join the last round.
      std::vector<double>& round =
          by_round[std::min(p / PassesPerRound(), by_round.size() - 1)];
      for (size_t i = 0; i < queries_.size(); ++i) {
        by_query[i].push_back(passes[p].latency_ms[i]);
        round.push_back(passes[p].latency_ms[i]);
      }
      pass_qps.push_back(static_cast<double>(queries_.size()) /
                         (passes[p].wall_ms / 1e3));
    }
    std::vector<double> medians;
    for (const std::vector<double>& v : by_query) medians.push_back(Median(v));
    Values& v = run->values;
    v["geomean_ms"] = Geomean(medians);
    v["latency_p50_ms"] = RoundMedian(by_round);
    SetRoundTail(run, "latency_tail_ms", by_round);
    v["qps"] = Median(pass_qps);
    // A closed loop runs at one load level, the highest one client
    // sustains: its tail is the high-load tail and its rate the max rate.
    v["latency_tail_ms.high"] = v["latency_tail_ms"];
    v["max_rate_qps"] = v["qps"];
    run->notes["passes"] = static_cast<double>(passes.size());
  }

  void PerLayer(const std::vector<Pass>& untraced,
                const std::vector<Pass>& traced,
                const std::vector<Span>& spans, RunState* run) {
    Values& v = run->values;
    const double n = static_cast<double>(traced.size());
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    for (const Pass& p : untraced) untraced_ms.push_back(p.wall_ms);
    for (const Pass& p : traced) traced_ms.push_back(p.wall_ms);
    v["trace.overhead_frac"] = Median(traced_ms) / Median(untraced_ms) - 1;

    const std::map<std::string, LayerTime> layers = LayerTimes(spans);
    auto layer = [&layers](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? LayerTime() : it->second;
    };
    const LayerTime root = layer("query");
    const LayerTime scan = layer("ssb.fused.scan");
    const LayerTime morsel = layer("ssb.fused.morsel");
    v["trace.unaccounted_frac"] = static_cast<double>(root.self_ns) /
                                  static_cast<double>(root.total_ns);
    // Per traced pass. The scan layer is the scan span with its morsels
    // (its own parallel sub-spans), so it is reported as the span total.
    v["ssb.fused.scan_ms"] = static_cast<double>(scan.total_ns) / 1e6 / n;
    v["ssb.fused.create_ms"] =
        static_cast<double>(layer("ssb.fused.create").self_ns) / 1e6 / n;
    v["ssb.fused.finish_ms"] =
        static_cast<double>(layer("ssb.fused.finish").self_ns) / 1e6 / n;
    v["cpu.build_cache.build_ms"] =
        static_cast<double>(layer("cpu.build_cache.build").total_ns) / 1e6 /
        n;
    v["ssb.fused.morsels"] = static_cast<double>(morsel.spans) / n;
    v["ssb.fused.busy_frac"] =
        static_cast<double>(morsel.total_ns) /
        (static_cast<double>(pool_.num_threads()) *
         static_cast<double>(scan.total_ns));

    std::vector<double> morsel_us;
    std::vector<double> parse_us;
    std::vector<std::vector<double>> scan_ns(queries_.size());
    for (const Span& s : spans) {
      const std::string name = s.name;
      if (name == "ssb.fused.morsel") {
        morsel_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
      } else if (name == "query.parse") {
        parse_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
      } else if (name == "ssb.fused.scan") {
        scan_ns[request_query_[static_cast<size_t>(s.request)]].push_back(
            static_cast<double>(s.duration_ns()));
      }
    }
    v["ssb.fused.morsel_us_p50"] = Median(morsel_us);
    SetTail(run, "ssb.fused.morsel_us_tail", morsel_us);
    v["query.parse_us"] = Median(parse_us);
    // Per canonical query (bytes per ns is GB/s).
    for (size_t i = 0; def_.kind == Kind::kSolo && i < queries_.size(); ++i) {
      v["ssb.fused.scan_gbps." + queries_[i].name] =
          static_cast<double>(query::ReferencedFactBytes(
              *db_, queries_[i].spec, db_->lo.rows)) /
          Median(scan_ns[i]);
    }

    // Cache and aggregation counts over every pass of the run.
    int64_t hits = 0;
    int64_t builds = 0;
    int64_t min_builds = -1;
    for (const std::vector<Pass>* group : {&untraced, &traced}) {
      for (const Pass& p : *group) {
        hits += p.hits;
        builds += p.builds;
        if (min_builds < 0 || p.builds < min_builds) min_builds = p.builds;
      }
    }
    const double passes =
        static_cast<double>(untraced.size() + traced.size());
    v["cpu.build_cache.hits"] = static_cast<double>(hits) / passes;
    v["cpu.build_cache.builds"] = static_cast<double>(min_builds);
    v["cpu.build_cache.hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(hits + builds);
    v["cpu.build_cache.bytes"] =
        static_cast<double>(cpu::BuildCache::Process().bytes());
    const Pass& last = traced.back();
    v["ssb.fused.agg_mode.scalar"] = last.agg_modes[0];
    v["ssb.fused.agg_mode.dense"] = last.agg_modes[1];
    v["ssb.fused.agg_mode.sparse"] = last.agg_modes[2];
    v["ssb.fused.agg_mode.shared_sparse"] = last.agg_modes[3];
    v["ssb.fused.degraded"] = last.degraded;
    run->notes["traced_passes"] = n;
  }

  const WorkloadDef& def_;
  std::vector<Query> queries_;
  ThreadPool& pool_;
  std::unique_ptr<ssb::Database> db_;
  std::unique_ptr<engine::QueryEngine> engine_;
  int64_t morsel_rows_ = ssb::VectorizedCpuEngine::kDefaultMorselRows;
  /// Dense-grid scratch reused across traced runs, as the engine reuses
  /// its own across Execute calls.
  std::vector<std::vector<int64_t>> grid_scratch_;
  int64_t next_request_ = 0;
  std::vector<size_t> request_query_;  // traced request id -> query index
};

// ------------------------------------------- fixed in-flight (served)

/// Served traffic into one QueryServer from the calling thread as the only
/// generator, which keeps a fixed number of requests in flight at each
/// level (see InFlight). Each request's spec text is parsed, then
/// submitted with an on_done callback. Requests walk the canonical specs
/// in seeded passes, so every window sends the same mix and seeds differ
/// only in order.
class Served {
 public:
  Served(const WorkloadDef& def, std::vector<Query> queries, int threads)
      : def_(def), queries_(std::move(queries)), threads_(threads) {}

  void SetUp(RunState* run) {
    db_ = TimedSetUps(
        def_, run, [this] { server_.reset(); },
        [this](const ssb::Database& db) {
          server::ServerOptions options;
          options.threads = threads_;
          server_ = std::make_unique<server::QueryServer>(options);
          server_->AddDatabase(def_.name, &db);
          for (const Query& q : queries_) {
            const server::QueryOutcome o = server_->ExecuteSync(q.spec);
            if (o.status != server::QueryOutcome::Status::kOk) {
              std::fprintf(stderr, "perfbench: warm-up %s failed: %s\n",
                           q.name.c_str(), o.error.c_str());
              std::exit(1);
            }
          }
        });
  }

  const ssb::Database& db() const { return *db_; }
  const std::vector<Query>& queries() const { return queries_; }
  int threads() const { return server_->threads(); }

  /// Runs every level once per round over `seconds`. In traced mode it
  /// runs twice over half the time each, untraced then traced.
  void Measure(uint64_t seed, double seconds, bool trace, RunState* run) {
    crystal::MemoryBudget::Process().ResetPeak();
    if (!trace) {
      EndToEnd(RunLevels(seed, seconds, run), run);
      return;
    }
    const Levels untraced = RunLevels(seed, seconds / 2, run);
    const Levels traced = RunLevels(seed, seconds / 2, run);
    PerLayer(untraced, traced, run);
  }

 private:
  struct Window {
    int64_t start_ns = 0;
    std::vector<size_t> pick;  // query index per request
    std::vector<Sent> sent;
    std::vector<int64_t> parse_ns;
    std::vector<int64_t> done_ns;
    /// Written by the completion callbacks; a deque so that appending
    /// never moves a slot a callback still holds.
    std::deque<server::QueryOutcome> outcomes;
    server::ServerStats before;
    server::ServerStats after;

    std::vector<double> LatencyMs() const {
      return DueLatenciesMs(sent, done_ns);
    }
    /// Answered requests per second over the window.
    double Throughput() const {
      const int64_t last = *std::max_element(done_ns.begin(), done_ns.end());
      return static_cast<double>(sent.size()) /
             (static_cast<double>(last - start_ns) / 1e9);
    }
  };

  /// Windows by level, then round: each round runs every level once, in
  /// ascending order, for an equal share of the round.
  using Levels = std::vector<std::vector<Window>>;

  Levels RunLevels(uint64_t seed, double seconds, RunState* run) {
    Levels levels(kLevels);
    const double window_s =
        seconds / static_cast<double>(kRounds * levels.size());
    for (int r = 0; r < kRounds; ++r) {
      for (int l = 0; l < kLevels; ++l) {
        const uint64_t window_seed = seed * 0x9e3779b97f4a7c15ull +
                                     static_cast<uint64_t>(r * 16 + l);
        levels[static_cast<size_t>(l)].push_back(
            RunWindow(window_seed, InFlight(l), window_s, run));
      }
    }
    return levels;
  }

  Window RunWindow(uint64_t seed, size_t in_flight, double seconds,
                   RunState* run) {
    Window win;
    Completions completions;
    std::vector<size_t> order;
    win.before = server_->stats();
    win.start_ns = NowNs();
    win.sent = RunInFlight(
        in_flight, win.start_ns + static_cast<int64_t>(seconds * 1e9),
        completions, [&](size_t i) {
          if (i % queries_.size() == 0) {
            order = ShuffledOrder(queries_.size(), seed + i);
          }
          win.pick.push_back(order[i % queries_.size()]);
          const int64_t p0 = NowNs();
          query::QuerySpec spec = ParseOrDie(queries_[win.pick.back()].text);
          win.parse_ns.push_back(NowNs() - p0);
          server::QueryOutcome* slot = &win.outcomes.emplace_back();
          server_->Submit(std::move(spec), server::QueryServer::SubmitOptions(),
                          [slot, &completions, i](const server::QueryOutcome& o) {
                            *slot = o;
                            completions.Done(i);
                          });
        });
    win.done_ns = completions.WaitAll(win.sent.size());
    server_->Drain();
    win.after = server_->stats();

    run->counts.attempted += static_cast<int64_t>(win.sent.size());
    for (size_t i = 0; i < win.outcomes.size(); ++i) {
      const server::QueryOutcome& o = win.outcomes[i];
      switch (o.status) {
        case server::QueryOutcome::Status::kOk:
          ++queries_[win.pick[i]].answers[Digest(o.result)];
          break;
        case server::QueryOutcome::Status::kError:
          ++run->counts.errors;
          break;
        case server::QueryOutcome::Status::kTimeout:
          ++run->counts.timed_out;
          break;
        case server::QueryOutcome::Status::kRejected:
          ++run->counts.rejected;
          break;
      }
    }
    return win;
  }

  static std::vector<std::vector<double>> RoundMs(
      const std::vector<Window>& windows) {
    std::vector<std::vector<double>> rounds;
    for (const Window& w : windows) rounds.push_back(w.LatencyMs());
    return rounds;
  }

  static double MedianThroughput(const std::vector<Window>& windows) {
    std::vector<double> qps;
    for (const Window& w : windows) qps.push_back(w.Throughput());
    return Median(qps);
  }

  void EndToEnd(const Levels& levels, RunState* run) {
    Values& v = run->values;
    const std::vector<Window>& low = levels[kLowLevel];
    v["latency_p50_ms"] = RoundMedian(RoundMs(low));
    SetRoundTail(run, "latency_tail_ms", RoundMs(low));
    SetRoundTail(run, "latency_tail_ms.high", RoundMs(levels[kTopLevel]));
    std::vector<std::vector<double>> by_query(queries_.size());
    for (const Window& w : low) {
      const std::vector<double> ms = w.LatencyMs();
      for (size_t i = 0; i < ms.size(); ++i) by_query[w.pick[i]].push_back(ms[i]);
    }
    std::vector<double> medians;
    for (const std::vector<double>& q : by_query) medians.push_back(Median(q));
    v["geomean_ms"] = Geomean(medians);
    v["qps"] = MedianThroughput(low);
    v["max_rate_qps"] = 0;
    for (int l = 0; l < kLevels; ++l) {
      const std::vector<Window>& level = levels[static_cast<size_t>(l)];
      const double qps = MedianThroughput(level);
      v["max_rate_qps"] = std::max(v["max_rate_qps"], qps);
      const std::string prefix = "level" + std::to_string(l);
      run->notes[prefix + ".in_flight"] = static_cast<double>(InFlight(l));
      run->notes[prefix + ".qps"] = qps;
      run->notes[prefix + ".requests"] =
          static_cast<double>(level.front().sent.size());
    }
  }

  void PerLayer(const Levels& untraced, const Levels& traced, RunState* run) {
    Values& v = run->values;
    // Spans are assembled after the fact, so this measures only how much
    // the traced half differed from the untraced one.
    v["trace.overhead_frac"] = RoundMedian(RoundMs(traced[kLowLevel])) /
                                   RoundMedian(RoundMs(untraced[kLowLevel])) -
                               1;
    // Spans are assembled from what the generator and the completion
    // callbacks recorded; queue and exec come from each QueryOutcome and
    // are placed from the submit time on.
    Tracer tracer(1);
    std::vector<double> lag_ms;
    std::vector<double> parse_us;
    std::vector<double> submit_us;
    int64_t request = 0;
    for (const std::vector<Window>& level : traced) {
      for (const Window& w : level) {
        for (size_t i = 0; i < w.sent.size(); ++i, ++request) {
          const Sent& s = w.sent[i];
          const server::QueryOutcome& o = w.outcomes[i];
          const int64_t parsed = s.sent_ns + w.parse_ns[i];
          const int64_t root = tracer.Add(0, "request", kNoParent, request,
                                          s.due_ns, w.done_ns[i]);
          tracer.Add(0, "gen.lag", root, request, s.due_ns, s.sent_ns);
          tracer.Add(0, "query.parse", root, request, s.sent_ns, parsed);
          tracer.Add(0, "server.submit", root, request, parsed,
                     s.submitted_ns);
          const int64_t queued =
              s.submitted_ns + static_cast<int64_t>(o.queue_ms * 1e6);
          tracer.Add(0, "server.queue", root, request, s.submitted_ns, queued);
          tracer.Add(0, "server.exec", root, request, queued,
                     queued + static_cast<int64_t>(o.exec_ms * 1e6));
          lag_ms.push_back(static_cast<double>(s.sent_ns - s.due_ns) / 1e6);
          parse_us.push_back(static_cast<double>(w.parse_ns[i]) / 1e3);
          submit_us.push_back(
              static_cast<double>(s.submitted_ns - parsed) / 1e3);
        }
      }
    }
    run->spans = tracer.Spans();
    const std::map<std::string, LayerTime> layers = LayerTimes(run->spans);
    const LayerTime& root = layers.at("request");
    v["trace.unaccounted_frac"] = static_cast<double>(root.self_ns) /
                                  static_cast<double>(root.total_ns);
    SetTail(run, "gen.lag_ms_tail", lag_ms);
    v["query.parse_us"] = Median(parse_us);
    v["server.submit_us"] = Median(submit_us);

    // Server layer at the top level, over its rounds.
    std::vector<double> queue_ms;
    std::vector<double> exec_ms;
    double batch_sum = 0;
    int64_t scans_saved = 0;
    int64_t dedup_hits = 0;
    for (const Window& top : traced[kTopLevel]) {
      for (const server::QueryOutcome& o : top.outcomes) {
        queue_ms.push_back(o.queue_ms);
        exec_ms.push_back(o.exec_ms);
        batch_sum += o.batch_size;
      }
      scans_saved += top.after.scans_saved - top.before.scans_saved;
      dedup_hits += top.after.dedup_hits - top.before.dedup_hits;
    }
    const double n = static_cast<double>(queue_ms.size());
    v["server.queue_ms_p50"] = Median(queue_ms);
    SetTail(run, "server.queue_ms_tail", queue_ms);
    v["server.exec_ms_p50"] = Median(exec_ms);
    v["server.batch_size_mean"] = batch_sum / n;
    v["server.scans_saved"] = static_cast<double>(scans_saved);
    v["server.dedup_ratio"] = static_cast<double>(dedup_hits) / n;
    v["cpu.build_cache.bytes"] =
        static_cast<double>(cpu::BuildCache::Process().bytes());
  }

  const WorkloadDef& def_;
  std::vector<Query> queries_;
  const int threads_;
  std::unique_ptr<ssb::Database> db_;
  std::unique_ptr<server::QueryServer> server_;
};

// ---------------------------------------------------------------- output

/// All digits of `v`; a non-finite value (a metric with nothing to
/// measure) prints as 0 with a warning, since JSON has no NaN.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    std::fprintf(stderr, "perfbench: non-finite metric value printed as 0\n");
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `s` as a JSON string; control characters become spaces.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N], const Values& values) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    out += (i ? ", " : "") + Quote(defs[i].name) + ": {\"value\": " +
           Number(it == values.end() ? 0 : it->second) +
           ", \"unit\": " + Quote(defs[i].unit) + "}";
  }
  return out + "}";
}

/// Every CRYSTAL_* environment variable with its value. The library reads
/// several (morsel size, direct joins, memory budget, faults, threads,
/// SIMD), and any of them changes what is measured.
std::string CrystalEnvJson() {
  std::map<std::string, std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const size_t eq = entry.find('=');
    if (entry.rfind("CRYSTAL_", 0) == 0 && eq != std::string::npos) {
      vars[entry.substr(0, eq)] = entry.substr(eq + 1);
    }
  }
  std::string out = "{";
  for (const auto& [name, value] : vars) {
    out += (out.size() > 1 ? ", " : "") + Quote(name) + ": " + Quote(value);
  }
  return out + "}";
}

std::string FlatJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ", ") + Quote(k) + ": " + Number(v);
    first = false;
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out;
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out FILE] [--spans FILE]\n"
               "workloads:",
               why);
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

/// Set-up, measurement, then the correctness gate. Peak memory is read
/// before the gate: the reference engine's working memory is the
/// benchmark's, not the program's.
template <typename Load>
void RunLoad(Load& load, const Args& args, int threads, RunState* run) {
  load.SetUp(run);
  load.Measure(args.seed, args.seconds, args.trace == 1, run);
  run->values["peak_rss_mb"] = PeakRssMb();
  run->values["common.memory.peak_bytes"] =
      static_cast<double>(crystal::MemoryBudget::Process().peak());
  CheckAnswers(load.db(), threads, load.queries(), run);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const bool trace = args.trace == 1;
  const int threads = static_cast<int>(LogicalCores());

  RunState run;
  int64_t pool_threads = 0;
  if (def->kind == Kind::kServed) {
    Served load(*def, CanonicalQueries(), threads);
    RunLoad(load, args, threads, &run);
    pool_threads = load.threads();
  } else {
    ThreadPool pool(threads);
    std::vector<Query> queries = def->kind == Kind::kSolo
                                     ? CanonicalQueries()
                                     : GeneratedQueries(kSuiteSeed,
                                                        kGeneratedSpecs);
    ClosedLoop load(*def, std::move(queries), pool);
    RunLoad(load, args, threads, &run);
    pool_threads = pool.num_threads();
  }
  run.values["success_rate"] = 1 - ErrorRate(run.counts);
  run.notes["error_rate"] = ErrorRate(run.counts);

  // The fingerprint: what must match before two runs may be compared.
  const std::string fingerprint =
      "{\"workload\": " + Quote(def->name) +
      ", \"logical_cores\": " + std::to_string(LogicalCores()) +
      ", \"pool_threads\": " + std::to_string(pool_threads) +
      ", \"simd\": " + (crystal::cpu::SimdEnabled() ? "true" : "false") +
      ", \"storage\": " + Quote(storage::EncodingName(def->encoding)) +
      ", \"scale_factor\": " + std::to_string(def->scale_factor) +
      ", \"fact_divisor\": " + std::to_string(def->fact_divisor) +
      ", \"datagen_seed\": " + std::to_string(kDatagenSeed) +
      ", \"suite_seed\": " + std::to_string(kSuiteSeed) +
      ", \"workload_seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + Number(args.seconds) +
      ", \"trace\": " + (trace ? "1" : "0") +
      ", \"env\": " + CrystalEnvJson() + "}";
  const bool correct = run.counts.failed() == 0;
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(run.counts.attempted) +
      ", \"failed\": " + std::to_string(run.counts.failed()) +
      ", \"metrics\": " +
      (trace ? MetricsJson(kPerLayer, run.values)
             : MetricsJson(kEndToEnd, run.values)) +
      "}";

  if (!args.out.empty()) {
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"fingerprint\": %s,\n \"notes\": %s,\n \"result\": %s}\n",
                 fingerprint.c_str(), FlatJson(run.notes).c_str(),
                 result.c_str());
    std::fclose(f);
  }
  if (!args.spans.empty() && !WriteSpansCsv(args.spans, run.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
    return 1;
  }
  std::printf("fingerprint %s\nnotes %s\n%s\n", fingerprint.c_str(),
              FlatJson(run.notes).c_str(), result.c_str());
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
