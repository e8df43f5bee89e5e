#include "query/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/macros.h"

namespace crystal::query {

namespace {

/// Compiles one slot expression for column-at-a-time evaluation (see
/// CompiledExpr) and returns it; *buffers receives the number of
/// evaluation buffers it uses.
CompiledExpr CompileExpr(const Expr& expr, const int col_index[],
                         int* buffers) {
  const std::vector<bool> checked = ExprCheckedNodes(expr);
  CompiledExpr out;
  std::vector<int> remap(expr.nodes.size());
  for (size_t i = 0; i < expr.nodes.size(); ++i) {
    const Expr::Node& n = expr.nodes[i];
    EvalNode node;
    node.op = n.op;
    node.checked = checked[i];
    if (n.op == Expr::Op::kCol) {
      node.col = col_index[static_cast<int>(n.col)];
    } else if (n.op == Expr::Op::kConst) {
      node.value = n.value;
    } else {
      node.a = remap[static_cast<size_t>(n.a)];
      node.b = remap[static_cast<size_t>(n.b)];
    }
    // Merge a duplicate subtree onto its first occurrence (operands are
    // already merged, so comparing one node compares the subtree). The
    // root is always appended, which keeps it last.
    const auto same = std::find_if(
        out.nodes.begin(), out.nodes.end(), [&node](const EvalNode& e) {
          return e.op == node.op && e.col == node.col &&
                 e.value == node.value && e.a == node.a && e.b == node.b;
        });
    if (same != out.nodes.end() && i + 1 < expr.nodes.size()) {
      remap[i] = static_cast<int>(same - out.nodes.begin());
      continue;
    }
    remap[i] = static_cast<int>(out.nodes.size());
    out.nodes.push_back(node);
  }

  // Buffers by liveness: a node's buffer is reused once its last reader
  // has run. The output is claimed before the operands are released, so
  // a node never writes a buffer it reads. Constants are read as
  // broadcast operands and need a buffer only as the root.
  const int n = static_cast<int>(out.nodes.size());
  std::vector<int> last_use(static_cast<size_t>(n), n);
  for (int i = 0; i < n; ++i) {
    const EvalNode& node = out.nodes[static_cast<size_t>(i)];
    if (node.a >= 0) last_use[static_cast<size_t>(node.a)] = i;
    if (node.b >= 0) last_use[static_cast<size_t>(node.b)] = i;
  }
  std::vector<int> free_buffers;
  int used = 0;
  for (int i = 0; i < n; ++i) {
    EvalNode& node = out.nodes[static_cast<size_t>(i)];
    if (node.op != Expr::Op::kConst || i == n - 1) {
      if (free_buffers.empty()) {
        node.buffer = used++;
      } else {
        node.buffer = free_buffers.back();
        free_buffers.pop_back();
      }
    }
    for (const int operand : {node.a, node.b}) {
      if (operand < 0 || last_use[static_cast<size_t>(operand)] != i) {
        continue;
      }
      const int buffer = out.nodes[static_cast<size_t>(operand)].buffer;
      if (buffer >= 0) free_buffers.push_back(buffer);
      last_use[static_cast<size_t>(operand)] = -1;  // col*col: release once
    }
  }
  *buffers = used;
  return out;
}

}  // namespace

std::vector<bool> ExprCheckedNodes(const Expr& expr) {
  // Bounds in 128 bits: a product of two int64 bounds cannot wrap there.
  __extension__ using Bound = __int128;
  constexpr Bound kMin = INT64_MIN;
  constexpr Bound kMax = INT64_MAX;
  const size_t n = expr.nodes.size();
  std::vector<Bound> lo(n);
  std::vector<Bound> hi(n);
  std::vector<bool> checked(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Expr::Node& node = expr.nodes[i];
    const size_t a = static_cast<size_t>(node.a);
    const size_t b = static_cast<size_t>(node.b);
    switch (node.op) {
      case Expr::Op::kCol:
        lo[i] = INT32_MIN;
        hi[i] = INT32_MAX;
        break;
      case Expr::Op::kConst:
        lo[i] = hi[i] = node.value;
        break;
      case Expr::Op::kAdd:
        lo[i] = lo[a] + lo[b];
        hi[i] = hi[a] + hi[b];
        break;
      case Expr::Op::kSub:
        lo[i] = lo[a] - hi[b];
        hi[i] = hi[a] - lo[b];
        break;
      case Expr::Op::kMul: {
        const Bound p[4] = {lo[a] * lo[b], lo[a] * hi[b], hi[a] * lo[b],
                            hi[a] * hi[b]};
        lo[i] = *std::min_element(p, p + 4);
        hi[i] = *std::max_element(p, p + 4);
        break;
      }
    }
    if (lo[i] < kMin || hi[i] > kMax) {
      checked[i] = true;
      lo[i] = kMin;
      hi[i] = kMax;
    }
  }
  return checked;
}

QueryPipeline LowerToPipeline(const QuerySpec& spec,
                              const ssb::Database& db) {
  std::string error;
  CRYSTAL_CHECK_MSG(Validate(spec, &error), error.c_str());

  QueryPipeline p;
  p.plan = PlanPayloads(spec);
  p.layout = LayoutFor(spec);
  p.bound = BindJoins(spec, p.plan, db);

  p.filters.reserve(spec.fact_filters.size());
  for (const FactFilter& f : spec.fact_filters) {
    p.filters.push_back({FactColumn(db, f.col).view(), f.lo, f.hi});
  }
  p.probes.reserve(spec.joins.size());
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    ProbeStage stage;
    stage.fact_keys = FactColumn(db, spec.joins[j].fact_key).view();
    stage.join_index = static_cast<int>(j);
    stage.group_slot = p.plan.join_payload[j];
    stage.cache_key = BuildSideKey(spec, j, p.plan);
    p.probes.push_back(std::move(stage));
  }
  p.agg.plan = PlanAggs(spec);
  bool seen[kNumFactCols] = {};
  for (const AggSpec& agg : spec.aggs) ExprMarkColumns(agg.expr, seen);
  for (int c = 0; c < kNumFactCols; ++c) {
    p.agg.col_index[c] = -1;
    if (!seen[c]) continue;
    p.agg.col_index[c] = static_cast<int>(p.agg.cols.size());
    p.agg.cols.push_back(static_cast<FactCol>(c));
    p.agg.views.push_back(FactColumn(db, static_cast<FactCol>(c)).view());
  }

  // Fast-path classification: a lone SUM whose expression is one of the
  // canonical SSB shapes keeps the specialized kernels.
  if (p.agg.plan.slots.size() == 1 &&
      p.agg.plan.slots[0].func == AggFunc::kSum) {
    const Expr& e = p.agg.plan.slots[0].expr;
    auto view_of = [&](const Expr::Node& n) {
      return FactColumn(db, n.col).view();
    };
    if (e.nodes.size() == 1 && e.root().op == Expr::Op::kCol) {
      p.agg.simple = AggStage::Simple::kColumn;
      p.agg.a = view_of(e.nodes[0]);
    } else if (e.nodes.size() == 3 && e.nodes[0].op == Expr::Op::kCol &&
               e.nodes[1].op == Expr::Op::kCol &&
               (e.root().op == Expr::Op::kMul ||
                e.root().op == Expr::Op::kSub) &&
               e.root().a == 0 && e.root().b == 1) {
      p.agg.simple = e.root().op == Expr::Op::kMul
                         ? AggStage::Simple::kProduct
                         : AggStage::Simple::kDifference;
      p.agg.a = view_of(e.nodes[0]);
      p.agg.b = view_of(e.nodes[1]);
    }
  }
  if (p.agg.simple != AggStage::Simple::kNone) return p;

  // General path: one compiled expression per distinct slot expression.
  int buffers = 0;
  for (int s = 0; s < p.agg.plan.num_slots(); ++s) {
    const AggSlot& slot = p.agg.plan.slots[static_cast<size_t>(s)];
    if (slot.func == AggFunc::kCount) {
      p.agg.count_slots.push_back(s);
      continue;
    }
    const auto same = std::find_if(
        p.agg.exprs.begin(), p.agg.exprs.end(), [&](const CompiledExpr& c) {
          return p.agg.plan.slots[static_cast<size_t>(c.slots[0])].expr ==
                 slot.expr;
        });
    if (same != p.agg.exprs.end()) {
      same->slots.push_back(s);
      continue;
    }
    int used = 0;
    p.agg.exprs.push_back(CompileExpr(slot.expr, p.agg.col_index, &used));
    p.agg.exprs.back().slots.push_back(s);
    buffers = std::max(buffers, used);
  }
  p.agg.scratch_vectors = buffers + (p.layout.scalar() ? 0 : 1);
  return p;
}

std::string BuildSideKey(const QuerySpec& spec, size_t join_index,
                         const PayloadPlan& plan) {
  const JoinSpec& join = spec.joins[join_index];
  std::string key(DimTableName(join.table));
  key += "|payload=";
  const int slot = plan.join_payload[join_index];
  if (slot >= 0) {
    key += DimColName(spec.group_by[static_cast<size_t>(slot)]);
  } else {
    key += "key";
  }
  for (const DimFilter& f : join.filters) {
    key += '|';
    key += DimColName(f.col);
    if (f.str_match != DimFilter::StrMatch::kNone) {
      key += f.str_match == DimFilter::StrMatch::kPrefix ? ":like-pre:"
                                                         : ":like-sub:";
      key += f.pattern;
    } else if (f.in_values.empty()) {
      key += ':' + std::to_string(f.lo) + ".." + std::to_string(f.hi);
    } else {
      key += ":in";
      for (int32_t v : f.in_values) key += ',' + std::to_string(v);
    }
  }
  return key;
}

std::string GenerationKey(const ssb::Database& db) {
  return "seed=" + std::to_string(db.seed) +
         "|sf=" + std::to_string(db.scale_factor);
}

}  // namespace crystal::query
