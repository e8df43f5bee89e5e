#ifndef CRYSTAL_QUERY_PIPELINE_H_
#define CRYSTAL_QUERY_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query_spec.h"
#include "ssb/schema.h"

namespace crystal::query {

/// Lowering of a validated QuerySpec into the flat, fully bound pipeline
/// every fused interpreter executes: an ordered list of fact-filter stages,
/// an ordered list of join-probe stages (each pointing at its build-side
/// descriptor and the group slot its payload feeds), and the aggregate
/// inputs — all resolved once, before the scan, so the per-morsel inner
/// loop touches no spec machinery. Fact columns are carried as
/// storage::ColumnView, so the lowering stays engine-agnostic across
/// storage encodings: a plain view is a raw pointer plus length (the
/// pre-storage-layer fast path, unchanged), a packed view carries the
/// (words, bits, reference) metadata the unpack kernels need. The
/// vectorized CPU engine drives this with SIMD selection-vector kernels,
/// but any engine that walks filters → probes → aggregate can consume the
/// same lowering instead of re-deriving the wiring from the spec.

/// One fact-predicate stage: lo <= col.Get(row) <= hi.
struct FilterStage {
  storage::ColumnView col;
  int32_t lo = 0;
  int32_t hi = 0;
};

/// One join-probe stage. `join_index` points into QueryPipeline::bound
/// (the build-side key/payload/filter descriptor); `group_slot` is the
/// group-key buffer this probe's payload feeds, or -1 for a filter-only
/// join whose payload is never read.
struct ProbeStage {
  storage::ColumnView fact_keys;
  int join_index = 0;
  int group_slot = -1;
  /// Canonical identity of this probe's build side (BuildSideKey): equal
  /// keys => identical build-side table content for one database
  /// generation, which is what makes cross-query build caching sound.
  std::string cache_key;
};

/// Rows per vector in the fused interpreters' column-at-a-time loops, and
/// so the length of every per-thread evaluation buffer.
inline constexpr int kVectorRows = 1024;

/// Per-node overflow classification by interval arithmetic: a column spans
/// the int32 range, a constant is its own value, and a binary node's
/// interval follows from its operands'. A node is true ("checked") when its
/// interval can leave int64 — only those nodes need __builtin_*_overflow.
/// A checked node's value may be anything in int64 afterwards, so the
/// nodes above it are classified against the whole int64 range. Parallel
/// to expr.nodes. Examples: col*col and col*(100-col) need no check;
/// col*col*col keeps one, on its outer multiply.
std::vector<bool> ExprCheckedNodes(const Expr& expr);

/// One node of a compiled aggregate expression: the Expr node with its
/// column resolved to an AggStage view index, its overflow class, and the
/// per-thread evaluation buffer it writes.
struct EvalNode {
  Expr::Op op = Expr::Op::kCol;
  int col = -1;        // kCol: index into AggStage::cols / views
  int64_t value = 0;   // kConst
  int a = -1;          // binary ops: operand node indices (earlier nodes)
  int b = -1;
  bool checked = false;
  /// Evaluation buffer index; -1 for a constant read as a broadcast
  /// operand (a constant gets a buffer only when it is the root).
  int buffer = -1;
};

/// One distinct slot expression of the general aggregation path, compiled
/// for column-at-a-time evaluation: nodes in evaluation (post-)order with
/// duplicate subtrees merged, root last, and every AggPlan slot that folds
/// the root's value (`sum X` and `avg X` share one evaluation of X).
struct CompiledExpr {
  std::vector<EvalNode> nodes;
  std::vector<int> slots;
};

/// The aggregate stage: the expanded slot plan (PlanAggs) plus the distinct
/// fact columns its expressions read, resolved to views once;
/// `col_index` maps a FactCol to its view slot.
///
/// The general path evaluates `exprs` one node at a time over each vector
/// of survivors and folds each slot in one loop per function; count slots
/// evaluate nothing. Evaluation buffers are assigned by liveness within an
/// expression, so `scratch_vectors` (buffers per thread, kVectorRows int64
/// each, plus one for the rows' group offsets when grouped) stays small.
///
/// The single-SUM shapes the canonical SSB queries use (one sum of col,
/// col*col, or col-col) are additionally classified as a `simple` fast
/// path, so the vectorized engine's specialized aggregate kernels — and
/// their measured performance — survive the generalization unchanged
/// (docs/PERF.md measures the fork against the general path).
struct AggStage {
  AggPlan plan;
  std::vector<FactCol> cols;               // distinct expression inputs
  std::vector<storage::ColumnView> views;  // parallel to cols
  int col_index[kNumFactCols] = {};        // FactCol -> index in cols, or -1

  std::vector<CompiledExpr> exprs;  // distinct non-count slot expressions
  std::vector<int> count_slots;     // kCount slots
  int scratch_vectors = 0;          // 0 on the simple path

  enum class Simple { kNone, kColumn, kProduct, kDifference };
  Simple simple = Simple::kNone;
  storage::ColumnView a;  // simple != kNone: first input column
  storage::ColumnView b;  // kProduct / kDifference: second input column
};

/// A QuerySpec lowered against one database. Holds pointers into both (and
/// into the spec via `bound`); spec and database must outlive the pipeline.
struct QueryPipeline {
  std::vector<FilterStage> filters;
  std::vector<ProbeStage> probes;
  AggStage agg;
  GroupLayout layout;
  PayloadPlan plan;
  /// Build-side descriptors, parallel to `probes` (probes[i].join_index
  /// == i today; kept explicit so probe reordering stays representable).
  std::vector<BoundJoin> bound;

  bool scalar() const { return layout.scalar(); }
};

/// Lowers a spec (must satisfy Validate) against `db`.
QueryPipeline LowerToPipeline(const QuerySpec& spec, const ssb::Database& db);

/// Canonical string identity of one join's build side: dimension table,
/// carried payload column ("key" for filter-only joins), and every
/// build-side filter with its bounds / IN-set / LIKE pattern. Two joins
/// with equal keys build byte-identical tables from the same database
/// generation — the contract the cross-query build cache relies on. The
/// fact-side key column deliberately does not participate (it only drives
/// the probe).
std::string BuildSideKey(const QuerySpec& spec, size_t join_index,
                         const PayloadPlan& plan);

/// Database-generation tag for build-cache invalidation: dimension content
/// is a pure function of (seed, scale_factor) — see ssb::Generate — so the
/// tag changes exactly when cached build sides would go stale.
std::string GenerationKey(const ssb::Database& db);

}  // namespace crystal::query

#endif  // CRYSTAL_QUERY_PIPELINE_H_
