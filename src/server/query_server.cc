#include "server/query_server.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "common/fault.h"
#include "common/macros.h"
#include "common/memory.h"
#include "common/status.h"
#include "common/timer.h"
#include "cpu/build_cache.h"
#include "query/footprint.h"
#include "query/parser.h"
#include "query/pipeline.h"
#include "ssb/fused_query.h"
#include "ssb/vectorized_cpu_engine.h"

namespace crystal::server {

namespace {

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Maps the Status taxonomy onto the retry contract: transient failures
/// are worth retrying (with backoff — docs/ROBUSTNESS.md), input and
/// invariant failures are not.
bool RetryableCode(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
    case StatusCode::kFaultInjected:
      return true;
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kInternal:
    case StatusCode::kOutOfRange:  // deterministic: a retry overflows again
      return false;
  }
  return false;
}

/// Predicts the minimum footprint `spec` needs against `db`, net of build
/// sides already resident in the cpu::BuildCache. Returns 0 when lowering
/// itself fails (the query is admitted anyway — Submit's validation
/// already passed, and the execution-time budget claims still govern it).
int64_t PredictFootprint(const query::QuerySpec& spec,
                         const ssb::Database& db, int threads) {
  try {
    const query::QueryPipeline pipe = query::LowerToPipeline(spec, db);
    const query::FootprintEstimate estimate =
        query::EstimateFootprint(pipe, threads, cpu::DirectJoinEnabled());
    cpu::BuildCache& cache = cpu::BuildCache::Process();
    const std::string generation = query::GenerationKey(db);
    int64_t footprint = estimate.minimum_bytes();
    for (const query::BuildFootprint& build : estimate.builds) {
      if (cache.Contains(generation, build.cache_key)) {
        footprint -= build.bytes;
      }
    }
    return std::max<int64_t>(footprint, 0);
  } catch (const std::exception&) {
    return 0;
  }
}

/// Backoff hint for memory rejections, scaled by how much committed work
/// sits ahead of a retry. Deliberately coarse: the client contract is
/// "wait at least this long", not a reservation (docs/ROBUSTNESS.md).
double RetryAfterMs(size_t queued) {
  return std::min<double>(50.0 + 25.0 * static_cast<double>(queued), 2000.0);
}

}  // namespace

const char* StatusName(QueryOutcome::Status status) {
  switch (status) {
    case QueryOutcome::Status::kOk:
      return "ok";
    case QueryOutcome::Status::kError:
      return "error";
    case QueryOutcome::Status::kTimeout:
      return "timeout";
    case QueryOutcome::Status::kRejected:
      return "rejected";
  }
  return "unknown";
}

QueryServer::QueryServer(ServerOptions options)
    : options_(options),
      pool_(new ThreadPool(options.threads)),
      morsel_rows_(options.morsel_rows > 0
                       ? options.morsel_rows
                       : ssb::VectorizedCpuEngine::kDefaultMorselRows),
      paused_(options.start_paused) {
  // Install the governor limit before any query can run; a negative
  // option leaves the process budget (CRYSTAL_MEM_BUDGET) untouched.
  if (options_.memory_budget_bytes >= 0) {
    MemoryBudget::Process().set_limit(options_.memory_budget_bytes);
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  if (options_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

QueryServer::~QueryServer() {
  // Shutdown-while-loaded contract: every outstanding promise is
  // fulfilled before the destructor returns. The scheduler finishes (and
  // completes) any batch it already started, queued leftovers complete as
  // kRejected, and Submit rejects from the moment shutdown_ is visible —
  // no waiter is ever left hung.
  std::deque<Request> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  scheduler_cv_.notify_all();
  scheduler_.join();
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_shutdown_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
  }
  for (Request& request : leftovers) {
    QueryOutcome outcome;
    outcome.status = QueryOutcome::Status::kRejected;
    outcome.error = "server shutting down";
    outcome.database = request.db_name;
    Complete(request, std::move(outcome));
  }
  // A concurrent Drain() may be parked on the now-empty queue.
  drain_cv_.notify_all();
}

void QueryServer::AddDatabase(std::string name, const ssb::Database* db) {
  CRYSTAL_CHECK(db != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, ignored] : databases_) {
    CRYSTAL_CHECK_MSG(existing != name, "duplicate database name");
  }
  databases_.emplace_back(std::move(name), db);
}

const ssb::Database* QueryServer::database(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (databases_.empty()) return nullptr;
  if (name.empty()) return databases_.front().second;
  for (const auto& [db_name, db] : databases_) {
    if (db_name == name) return db;
  }
  return nullptr;
}

std::vector<std::string> QueryServer::database_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(databases_.size());
  for (const auto& [name, db] : databases_) names.push_back(name);
  return names;
}

std::future<QueryOutcome> QueryServer::Submit(query::QuerySpec spec,
                                              SubmitOptions submit_options,
                                              Callback on_done) {
  const Clock::time_point now = Clock::now();
  Request request;
  request.spec = std::move(spec);
  request.db_name = std::move(submit_options.database);
  request.submitted = now;
  request.on_done = std::move(on_done);
  std::future<QueryOutcome> future = request.promise.get_future();

  // Fail fast — invalid specs and bad routes never occupy queue slots, so
  // the scheduler only ever sees executable work.
  std::string error;
  if (!query::Validate(request.spec, &error)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
    }
    QueryOutcome outcome;
    outcome.status = QueryOutcome::Status::kError;
    outcome.error = "invalid query spec: " + error;
    Complete(request, std::move(outcome));
    return future;
  }
  request.spec_text = query::FormatQuerySpec(request.spec);

  const double timeout_ms = submit_options.timeout_ms < 0
                                ? options_.default_timeout_ms
                                : submit_options.timeout_ms;
  if (timeout_ms > 0) {
    request.has_deadline = true;
    request.deadline =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(timeout_ms));
  }

  // The "server.admit" fault point models a flaky admission dependency
  // (evaluated outside mu_ — the registry has its own lock). Only valid,
  // routable submissions reach it, mirroring where a real admission check
  // would sit.
  const crystal::Status admit_fault = fault::Check("server.admit");

  // Footprint-predicted admission (memory governor): with an enforced
  // budget, the submission's cheapest viable shape is priced up front —
  // outside mu_, lowering is real work — and committed on admit so
  // concurrent submissions see each other's claims deterministically.
  MemoryBudget& budget = MemoryBudget::Process();
  const int64_t mem_limit = budget.limit();
  int64_t footprint = 0;
  if (mem_limit > 0) {
    if (const ssb::Database* db = database(request.db_name)) {
      footprint = PredictFootprint(request.spec, *db, pool_->num_threads());
    }
  }

  bool notify = false;
  QueryOutcome immediate;
  bool failed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    request.db = nullptr;
    if (databases_.empty()) {
      // fallthrough to unknown-database error below
    } else if (request.db_name.empty()) {
      request.db_name = databases_.front().first;
      request.db = databases_.front().second;
    } else {
      for (const auto& [db_name, db] : databases_) {
        if (db_name == request.db_name) {
          request.db = db;
          break;
        }
      }
    }
    if (request.db == nullptr) {
      immediate.status = QueryOutcome::Status::kError;
      immediate.error = "unknown database '" + request.db_name + "'";
      failed = true;
    } else if (shutdown_) {
      immediate.status = QueryOutcome::Status::kRejected;
      immediate.error = "server shutting down";
      failed = true;
    } else if (!admit_fault.ok()) {
      immediate.status = QueryOutcome::Status::kRejected;
      immediate.error = "admission failed: " + admit_fault.ToString();
      immediate.retryable = RetryableCode(admit_fault.code());
      failed = true;
    } else if (static_cast<int>(queue_.size()) >= options_.max_queue) {
      immediate.status = QueryOutcome::Status::kRejected;
      immediate.error = "admission queue full (max_queue=" +
                        std::to_string(options_.max_queue) + ")";
      immediate.retryable = true;
      failed = true;
    } else if (mem_limit > 0 && footprint > AdmissibleBytesLocked(mem_limit)) {
      // The predicted minimum cannot fit even if every idle cache entry
      // were evicted. Retryable: in-flight queries release their
      // commitments as they complete, so the same submission can fit
      // later (an oversized-forever query keeps getting this answer —
      // the hint caps how aggressively a well-behaved client spins).
      immediate.status = QueryOutcome::Status::kRejected;
      immediate.error = ResourceExhaustedError(
                            "predicted footprint " + std::to_string(footprint) +
                            " bytes cannot fit in memory budget " +
                            std::to_string(mem_limit) +
                            " bytes even after cache eviction")
                            .ToString();
      immediate.retryable = true;
      immediate.retry_after_ms = RetryAfterMs(queue_.size());
      ++stats_.mem_rejected;
      failed = true;
    } else {
      request.footprint_bytes = footprint;
      committed_bytes_ += footprint;
      queue_.push_back(std::move(request));
      notify = true;
    }
  }
  if (failed) {
    immediate.database = request.db_name;
    Complete(request, std::move(immediate));
  }
  if (notify) scheduler_cv_.notify_all();
  return future;
}

QueryOutcome QueryServer::ExecuteSync(query::QuerySpec spec,
                                      SubmitOptions submit_options) {
  return Submit(std::move(spec), std::move(submit_options)).get();
}

void QueryServer::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  scheduler_cv_.notify_all();
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return shutdown_ || (queue_.empty() && !executing_);
  });
}

ServerStats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

int64_t QueryServer::AdmissibleBytesLocked(int64_t mem_limit) const {
  // Eviction can reclaim idle cache entries, so only the pinned remainder
  // (tables some in-flight query still probes, or in-flight builds)
  // stands between a new claim and the budget. Lock order is mu_ -> the
  // cache's lock; the cache never calls back into the server.
  cpu::BuildCache& cache = cpu::BuildCache::Process();
  const int64_t pinned_cache = std::max<int64_t>(
      MemoryBudget::Process().used(MemCategory::kBuildCache) -
          cache.evictable_bytes(),
      0);
  return mem_limit - committed_bytes_ - pinned_cache;
}

void QueryServer::SchedulerLoop() {
  for (;;) {
    std::vector<Request> expired;
    std::vector<Request> batch;
    Clock::time_point batch_start;
    {
      std::unique_lock<std::mutex> lock(mu_);
      scheduler_cv_.wait(lock, [this] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (shutdown_) return;
      // Overload shedding: entries whose deadline already expired while
      // queued are dropped before batch formation — under a backlog,
      // batch slots go to queries whose answers someone still wants.
      const Clock::time_point now = Clock::now();
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->has_deadline && it->deadline < now) {
          expired.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      stats_.shed_expired += static_cast<int64_t>(expired.size());
      if (!queue_.empty()) {
        // Head of the FIFO decides the batch's database; later same-route
        // queries join it up to max_batch. Skipped other-database entries
        // keep their queue position, so the next batch serves them —
        // strict FIFO progress per route, no starvation across routes.
        const std::string route = queue_.front().db_name;
        // Memory governor: a batch's combined footprint is bounded by the
        // budget net of unevictable cache bytes. The head always runs (it
        // fit at admission, and forward progress must not depend on the
        // budget); later members join only while the sum still fits.
        // Members that don't fit are *skipped*, not failed — they keep
        // their queue position, and FIFO order makes each of them a batch
        // head eventually, so no query starves.
        const int64_t mem_limit = MemoryBudget::Process().limit();
        const int64_t batch_headroom =
            mem_limit > 0 ? AdmissibleBytesLocked(mem_limit) +
                                committed_bytes_
                          : 0;
        int64_t batch_bytes = 0;
        for (auto it = queue_.begin();
             it != queue_.end() &&
             static_cast<int>(batch.size()) < options_.max_batch;) {
          if (it->db_name == route) {
            if (mem_limit > 0 && !batch.empty() &&
                batch_bytes + it->footprint_bytes > batch_headroom) {
              ++stats_.mem_skipped;
              ++it;
              continue;
            }
            batch_bytes += it->footprint_bytes;
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
        executing_ = true;
        batch_start = Clock::now();
      }
    }
    for (Request& request : expired) {
      QueryOutcome outcome;
      outcome.status = QueryOutcome::Status::kTimeout;
      outcome.error = "deadline expired while queued (shed)";
      outcome.retryable = true;
      outcome.database = request.db_name;
      outcome.queue_ms = MsBetween(request.submitted, Clock::now());
      Complete(request, std::move(outcome));
    }
    if (batch.empty()) {
      drain_cv_.notify_all();
      continue;
    }
    // The "server.batch" fault point models batch-formation failure: fail
    // completes every member as kError without executing; delay stalls
    // the scheduler (queue grows → admission pushback upstream).
    const crystal::Status batch_fault = fault::Check("server.batch");
    if (!batch_fault.ok()) {
      for (Request& request : batch) {
        QueryOutcome outcome;
        outcome.status = QueryOutcome::Status::kError;
        outcome.error = "batch formation failed: " + batch_fault.ToString();
        outcome.retryable = RetryableCode(batch_fault.code());
        outcome.database = request.db_name;
        outcome.queue_ms = MsBetween(request.submitted, batch_start);
        Complete(request, std::move(outcome));
      }
    } else {
      RunBatch(std::move(batch), batch_start);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      executing_ = false;
    }
    drain_cv_.notify_all();
  }
}

void QueryServer::WatchdogLoop() {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(options_.watchdog_ms));
  uint64_t last_seq = 0;
  uint64_t last_beat = 0;
  bool last_active = false;
  uint64_t flagged_seq = 0;
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    if (watchdog_cv_.wait_for(lock, period,
                              [this] { return watchdog_shutdown_; })) {
      return;
    }
    const bool active = batch_active_.load(std::memory_order_acquire);
    const uint64_t seq = batch_seq_.load(std::memory_order_relaxed);
    const uint64_t beat = heartbeat_.load(std::memory_order_relaxed);
    // Stall = the same batch was active across a full period with zero
    // morsel completions. Flag it once (diagnosis, never a kill): a
    // watchdog that shoots hung work would turn one slow morsel into a
    // correctness bug.
    if (active && last_active && seq == last_seq && beat == last_beat &&
        seq != flagged_seq) {
      flagged_seq = seq;
      {
        std::lock_guard<std::mutex> stats_lock(mu_);
        ++stats_.watchdog_stalls;
      }
      std::fprintf(stderr,
                   "crystaldb server watchdog: batch %llu morsel heartbeat "
                   "stalled for %.0f ms\n",
                   static_cast<unsigned long long>(seq),
                   options_.watchdog_ms);
    }
    last_active = active;
    last_seq = seq;
    last_beat = beat;
  }
}

void QueryServer::RunBatch(std::vector<Request> batch,
                           Clock::time_point batch_start) {
  // Queued-out members whose deadline expired before their batch started
  // never execute.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& request : batch) {
    if (request.has_deadline && request.deadline < batch_start) {
      QueryOutcome outcome;
      outcome.status = QueryOutcome::Status::kTimeout;
      outcome.error = "deadline expired while queued";
      outcome.retryable = true;
      outcome.database = request.db_name;
      outcome.queue_ms = MsBetween(request.submitted, batch_start);
      Complete(request, std::move(outcome));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;
  const ssb::Database& db = *live.front().db;

  // One execution per structurally distinct spec: identical members fan
  // out from a single evaluation (dedup). The execution's deadline is the
  // latest member deadline — it is cancelled only when no member could
  // still use the result. A failed execution (build or morsel) completes
  // only its own members as kError; batch-mates sharing the scan are
  // untouched (per-member failure isolation).
  struct Execution {
    std::unique_ptr<ssb::FusedQuery> fused;
    std::vector<size_t> members;
    Clock::time_point deadline;
    bool has_deadline = true;
    std::atomic<bool> cancelled{false};
    crystal::Status build_status;
  };
  std::vector<std::unique_ptr<Execution>> executions;
  for (size_t i = 0; i < live.size(); ++i) {
    Execution* found = nullptr;
    for (auto& execution : executions) {
      if (live[execution->members.front()].spec_text == live[i].spec_text) {
        found = execution.get();
        break;
      }
    }
    if (found == nullptr) {
      executions.push_back(std::make_unique<Execution>());
      found = executions.back().get();
    }
    found->members.push_back(i);
    if (!live[i].has_deadline) {
      found->has_deadline = false;
    } else if (found->has_deadline && found->members.size() == 1) {
      found->deadline = live[i].deadline;
    } else if (found->has_deadline) {
      found->deadline = std::max(found->deadline, live[i].deadline);
    }
  }

  // Build phase (shared): every distinct spec lowers and fetches its build
  // sides from the process-wide cache before the scan starts.
  ssb::FusedQuery::BuildStats build_total;
  WallTimer exec_timer;
  const int threads = pool_->num_threads();
  bool any_deadline = false;
  for (auto& execution : executions) {
    ssb::FusedQuery::BuildStats build;
    StatusOr<std::unique_ptr<ssb::FusedQuery>> fused =
        ssb::FusedQuery::Create(live[execution->members.front()].spec, db,
                                threads, *pool_,
                                /*grid_scratch=*/nullptr, &build);
    if (fused.ok()) {
      execution->fused = std::move(fused).value();
      build_total.cache_hits += build.cache_hits;
      build_total.cache_builds += build.cache_builds;
      if (execution->has_deadline) any_deadline = true;
    } else {
      // This execution is dead on arrival; its members complete as
      // kError below while the rest of the batch proceeds normally.
      execution->build_status = fused.status();
    }
  }
  build_total.build_ms = exec_timer.ElapsedMs();

  // The shared scan: one morsel pass evaluates every live execution. Per
  // morsel the member plans run back-to-back, so the morsel's fact
  // columns are read from memory once and served to the rest of the batch
  // cache-hot. Deadlines are checked once per morsel claim (a morsel is
  // the cancellation granularity).
  batch_seq_.fetch_add(1, std::memory_order_relaxed);
  batch_active_.store(true, std::memory_order_release);
  pool_->ParallelForMorsels(
      db.lo.rows, morsel_rows_, [&](int t, int64_t begin, int64_t end) {
        const Clock::time_point now =
            any_deadline ? Clock::now() : Clock::time_point();
        for (auto& execution : executions) {
          if (execution->fused == nullptr) continue;
          if (execution->has_deadline) {
            if (execution->cancelled.load(std::memory_order_relaxed)) {
              continue;
            }
            if (now > execution->deadline) {
              execution->cancelled.store(true, std::memory_order_relaxed);
              continue;
            }
          }
          // A non-OK morsel latches the execution as failed inside
          // FusedQuery; later morsels short-circuit and Finish reports
          // the first error. Batch-mates keep running.
          (void)execution->fused->RunMorsel(t, begin, end);
        }
        // Watchdog heartbeat: one tick per completed morsel claim.
        heartbeat_.fetch_add(1, std::memory_order_relaxed);
      });
  batch_active_.store(false, std::memory_order_release);

  const int live_members = static_cast<int>(live.size());
  int64_t dedup_hits = 0;
  int64_t degraded_members = 0;
  for (auto& execution : executions) {
    QueryOutcome base;
    base.database = live.front().db_name;
    base.batch_size = live_members;
    base.shared_scan = live_members > 1;
    base.build_ms = build_total.build_ms;
    base.cache_hits = build_total.cache_hits;
    base.cache_builds = build_total.cache_builds;
    if (execution->fused == nullptr) {
      base.status = QueryOutcome::Status::kError;
      base.error = "build failed: " + execution->build_status.ToString();
      base.retryable = RetryableCode(execution->build_status.code());
    } else {
      base.degraded = execution->fused->degraded();
      if (base.degraded) {
        degraded_members +=
            static_cast<int64_t>(execution->members.size());
      }
      if (execution->cancelled.load(std::memory_order_relaxed)) {
        base.status = QueryOutcome::Status::kTimeout;
        base.error =
            "deadline expired during scan (cancelled between morsels)";
        base.retryable = true;
      } else {
        StatusOr<ssb::QueryResult> result = execution->fused->Finish(*pool_);
        if (result.ok()) {
          base.result = std::move(result).value();
        } else {
          base.status = QueryOutcome::Status::kError;
          base.error = "execution failed: " + result.status().ToString();
          base.retryable = RetryableCode(result.status().code());
        }
      }
    }
    dedup_hits += static_cast<int64_t>(execution->members.size()) - 1;
    const double exec_ms = exec_timer.ElapsedMs();
    for (size_t m = 0; m < execution->members.size(); ++m) {
      Request& request = live[execution->members[m]];
      QueryOutcome outcome = base;
      outcome.queue_ms = MsBetween(request.submitted, batch_start);
      outcome.exec_ms = exec_ms;
      outcome.dedup = m > 0;
      Complete(request, std::move(outcome));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.scans_saved += live_members - 1;
    stats_.dedup_hits += dedup_hits;
    stats_.degraded += degraded_members;
    stats_.max_batch_seen =
        std::max(stats_.max_batch_seen, static_cast<int64_t>(live_members));
  }
}

void QueryServer::Complete(Request& request, QueryOutcome outcome) {
  outcome.wall_ms = MsBetween(request.submitted, Clock::now());
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Release the admission-time footprint commitment exactly once, on
    // whatever path the request completes through (batch, shed, shutdown).
    if (request.footprint_bytes > 0) {
      committed_bytes_ -= request.footprint_bytes;
      request.footprint_bytes = 0;
    }
    ++stats_.completed;
    switch (outcome.status) {
      case QueryOutcome::Status::kOk:
        break;
      case QueryOutcome::Status::kError:
        ++stats_.errors;
        break;
      case QueryOutcome::Status::kTimeout:
        ++stats_.timeouts;
        break;
      case QueryOutcome::Status::kRejected:
        ++stats_.rejected;
        break;
    }
  }
  // Fulfill the future before the callback: a callback that blocks (serve
  // cross-checks against the reference engine) must not delay a client
  // already waiting on the future.
  request.promise.set_value(outcome);
  if (request.on_done) request.on_done(outcome);
}

}  // namespace crystal::server
