#include "query/query_spec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/parser.h"
#include "query/pipeline.h"
#include "query/ssb_specs.h"
#include "ssb/query_id.h"

namespace crystal::query {
namespace {

using ssb::QueryId;

// ------------------------------------------------------ canonical specs

TEST(SsbSpecTest, FactColumnsReferencedMatchesHandWrittenValues) {
  // The pre-IR implementation hard-coded 4 columns for flights 1-3 and 6
  // for flight 4; the spec-derived count must reproduce those exactly
  // (they drive the coprocessor PCIe volume, Fig. 3).
  for (QueryId id : ssb::kAllQueries) {
    const QuerySpec spec = SsbSpec(id);
    const int want = ssb::QueryFlight(id) == 4 ? 6 : 4;
    EXPECT_EQ(FactColumnsReferenced(spec), want) << spec.name;
  }
}

TEST(SsbSpecTest, AllCanonicalSpecsValidate) {
  for (QueryId id : ssb::kAllQueries) {
    const QuerySpec spec = SsbSpec(id);
    std::string error;
    EXPECT_TRUE(Validate(spec, &error)) << spec.name << ": " << error;
    EXPECT_EQ(spec.name, ssb::QueryName(id));
  }
}

TEST(SsbSpecTest, FlightShapesMatchThePaper) {
  // Flight 1: fact-only predicates, scalar product aggregate.
  const QuerySpec q11 = SsbSpec(QueryId::kQ11);
  EXPECT_EQ(q11.joins.size(), 0u);
  EXPECT_EQ(q11.fact_filters.size(), 3u);
  EXPECT_TRUE(q11.group_by.empty());
  ASSERT_EQ(q11.aggs.size(), 1u);
  EXPECT_EQ(q11.aggs[0].func, AggFunc::kSum);
  EXPECT_TRUE(q11.aggs[0].expr ==
              BinExpr(Expr::Op::kMul, ColExpr(FactCol::kExtendedprice),
                      ColExpr(FactCol::kDiscount)));

  // Flight 2: three joins, (d_year, p_brand1) grouping.
  const QuerySpec q21 = SsbSpec(QueryId::kQ21);
  EXPECT_EQ(q21.joins.size(), 3u);
  EXPECT_TRUE(q21.fact_filters.empty());
  EXPECT_EQ(q21.group_by,
            (std::vector<DimCol>{DimCol::kDYear, DimCol::kPBrand1}));

  // Flight 4: four joins, profit aggregate.
  const QuerySpec q43 = SsbSpec(QueryId::kQ43);
  EXPECT_EQ(q43.joins.size(), 4u);
  ASSERT_EQ(q43.aggs.size(), 1u);
  EXPECT_TRUE(q43.aggs[0].expr ==
              BinExpr(Expr::Op::kSub, ColExpr(FactCol::kRevenue),
                      ColExpr(FactCol::kSupplycost)));
  EXPECT_EQ(q43.group_by.size(), 3u);
}

TEST(SsbSpecTest, PayloadPlanWiresGroupKeysToJoins) {
  const QuerySpec q21 = SsbSpec(QueryId::kQ21);
  const PayloadPlan plan = PlanPayloads(q21);
  // Join order is (supplier, part, date); groups are (d_year, p_brand1).
  ASSERT_EQ(plan.join_payload.size(), 3u);
  EXPECT_EQ(plan.join_payload[0], -1);  // supplier: filter-only
  EXPECT_EQ(plan.join_payload[1], 1);   // part -> p_brand1 (slot 1)
  EXPECT_EQ(plan.join_payload[2], 0);   // date -> d_year (slot 0)
  ASSERT_EQ(plan.group_join.size(), 2u);
  EXPECT_EQ(plan.group_join[0], 2);
  EXPECT_EQ(plan.group_join[1], 1);
}

// ------------------------------------------------------- group layouts

TEST(GroupLayoutTest, CellAndKeysAreInverse) {
  const QuerySpec q43 = SsbSpec(QueryId::kQ43);
  const GroupLayout layout = LayoutFor(q43);
  // (d_year, s_city, p_brand1): 7 x 250 x 4441 cells.
  EXPECT_EQ(layout.num_keys, 3);
  EXPECT_EQ(layout.cells, 7ll * 250 * 4441);
  const int32_t keys[3] = {1995, 191, 2239};
  const int64_t cell = layout.CellFor(keys);
  ASSERT_GE(cell, 0);
  ASSERT_LT(cell, layout.cells);
  const std::array<int32_t, 3> back = layout.KeysFor(cell);
  EXPECT_EQ(back[0], 1995);
  EXPECT_EQ(back[1], 191);
  EXPECT_EQ(back[2], 2239);
}

TEST(GroupLayoutTest, ScalarSpecGetsTrivialLayout) {
  const GroupLayout layout = LayoutFor(SsbSpec(QueryId::kQ11));
  EXPECT_TRUE(layout.scalar());
  EXPECT_EQ(layout.cells, 1);
}

// ----------------------------------------------------------- validation

QuerySpec MinimalSpec() {
  QuerySpec spec;
  spec.aggs = {Sum(ColExpr(FactCol::kRevenue))};
  return spec;
}

TEST(ValidateTest, RejectsEmptyRanges) {
  QuerySpec spec = MinimalSpec();
  spec.fact_filters.push_back({FactCol::kDiscount, 5, 3});
  std::string error;
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("empty range"), std::string::npos);
}

TEST(ValidateTest, RejectsDoubleJoinOfOneTable) {
  QuerySpec spec = MinimalSpec();
  spec.joins.push_back({DimTable::kDate, FactCol::kOrderdate, {}});
  spec.joins.push_back({DimTable::kDate, FactCol::kOrderdate, {}});
  std::string error;
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("joined twice"), std::string::npos);
}

TEST(ValidateTest, RejectsFilterOnForeignTable) {
  QuerySpec spec = MinimalSpec();
  JoinSpec join{DimTable::kDate, FactCol::kOrderdate, {}};
  DimFilter filter;
  filter.col = DimCol::kSRegion;  // supplier column on a date join
  join.filters.push_back(filter);
  spec.joins.push_back(join);
  std::string error;
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("does not belong"), std::string::npos);
}

TEST(ValidateTest, RejectsGroupColumnWithoutJoin) {
  QuerySpec spec = MinimalSpec();
  spec.group_by.push_back(DimCol::kDYear);
  std::string error;
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("requires a join"), std::string::npos);
}

TEST(ValidateTest, RejectsOversizedAggregationGrids) {
  // (d_yearmonthnum, c_city, p_brand1) is structurally fine but its dense
  // grid would need 612 * 250 * 4441 cells (~5.4 GB of int64, per worker
  // thread in the vectorized engine) — Validate must refuse, not OOM.
  QuerySpec spec = MinimalSpec();
  spec.joins.push_back({DimTable::kDate, FactCol::kOrderdate, {}});
  spec.joins.push_back({DimTable::kCustomer, FactCol::kCustkey, {}});
  spec.joins.push_back({DimTable::kPart, FactCol::kPartkey, {}});
  spec.group_by = {DimCol::kDYearmonthnum, DimCol::kCCity, DimCol::kPBrand1};
  std::string error;
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("grid too large"), std::string::npos);

  // The canonical worst case stays comfortably inside the cap.
  EXPECT_LE(LayoutFor(SsbSpec(QueryId::kQ43)).cells, kMaxGroupCells);
}

TEST(ValidateTest, RejectsTwoGroupColumnsFromOneTable) {
  QuerySpec spec = MinimalSpec();
  spec.joins.push_back({DimTable::kDate, FactCol::kOrderdate, {}});
  spec.group_by = {DimCol::kDYear, DimCol::kDYearmonthnum};
  std::string error;
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("more than one group column"), std::string::npos);
}

// -------------------------------------------------------------- parser

TEST(ParseQuerySpecTest, RoundTripsEveryCanonicalSpec) {
  for (QueryId id : ssb::kAllQueries) {
    const QuerySpec spec = SsbSpec(id);
    const std::string text = FormatQuerySpec(spec);
    QuerySpec parsed;
    std::string error;
    ASSERT_TRUE(ParseQuerySpec(text, &parsed, &error))
        << spec.name << ": " << error << "\n  " << text;
    EXPECT_TRUE(parsed == spec) << spec.name << "\n  " << text << "\n  vs\n  "
                                << FormatQuerySpec(parsed);
  }
}

TEST(ParseQuerySpecTest, ParsesTheReadmeExample) {
  QuerySpec spec;
  std::string error;
  ASSERT_TRUE(ParseQuerySpec(
      "sum revenue join supplier on suppkey filter s_region = 1 "
      "join part on partkey filter p_category = 12 "
      "join date on orderdate group by d_year, p_brand1",
      &spec, &error))
      << error;
  EXPECT_TRUE(spec == SsbSpec(QueryId::kQ21));
}

TEST(ParseQuerySpecTest, DefaultsJoinKeyAndAcceptsLoPrefix) {
  QuerySpec spec;
  std::string error;
  ASSERT_TRUE(ParseQuerySpec(
      "sum lo_revenue join supplier filter s_region = 2", &spec, &error))
      << error;
  ASSERT_EQ(spec.joins.size(), 1u);
  EXPECT_EQ(spec.joins[0].fact_key, FactCol::kSuppkey);
  ASSERT_EQ(spec.aggs.size(), 1u);
  EXPECT_TRUE(spec.aggs[0].expr == ColExpr(FactCol::kRevenue));
}

TEST(ParseQuerySpecTest, ErrorPaths) {
  QuerySpec spec;
  std::string error;

  EXPECT_FALSE(ParseQuerySpec("", &spec, &error));
  EXPECT_NE(error.find("unknown aggregate function"), std::string::npos);

  EXPECT_FALSE(ParseQuerySpec("total revenue", &spec, &error));
  EXPECT_NE(error.find("unknown aggregate function 'total'"),
            std::string::npos);

  EXPECT_FALSE(ParseQuerySpec("sum gold", &spec, &error));
  EXPECT_NE(error.find("unknown fact column 'gold'"), std::string::npos);

  EXPECT_FALSE(ParseQuerySpec("sum revenue where discount in 1..", &spec,
                              &error));
  EXPECT_NE(error.find("after '..'"), std::string::npos);

  EXPECT_FALSE(ParseQuerySpec("sum revenue where discount between 1 3",
                              &spec, &error));
  EXPECT_NE(error.find("expected '=' or 'in'"), std::string::npos);

  EXPECT_FALSE(ParseQuerySpec("sum revenue join warehouse", &spec, &error));
  EXPECT_NE(error.find("unknown dimension table 'warehouse'"),
            std::string::npos);

  EXPECT_FALSE(ParseQuerySpec(
      "sum revenue join supplier filter s_city in {191, 195", &spec,
      &error));
  EXPECT_NE(error.find("'}'"), std::string::npos);

  EXPECT_FALSE(ParseQuerySpec("sum revenue group by d_year", &spec, &error));
  EXPECT_NE(error.find("requires a join"), std::string::npos);  // Validate

  EXPECT_FALSE(ParseQuerySpec("sum revenue bogus-clause", &spec, &error));
  EXPECT_NE(error.find("expected 'where', 'join', or 'group by'"),
            std::string::npos);

  // IN sets are a build-side (dimension) feature only.
  EXPECT_FALSE(ParseQuerySpec("sum revenue where quantity in {1, 2}", &spec,
                              &error));
  EXPECT_NE(error.find("build-side"), std::string::npos);
}

TEST(ParseQuerySpecTest, PureScanAndExpressionForms) {
  QuerySpec spec;
  std::string error;
  ASSERT_TRUE(ParseQuerySpec("sum revenue", &spec, &error)) << error;
  EXPECT_TRUE(spec.fact_filters.empty());
  EXPECT_TRUE(spec.joins.empty());

  ASSERT_TRUE(ParseQuerySpec("sum extendedprice*discount", &spec, &error));
  EXPECT_TRUE(spec.aggs[0].expr ==
              BinExpr(Expr::Op::kMul, ColExpr(FactCol::kExtendedprice),
                      ColExpr(FactCol::kDiscount)));
  ASSERT_TRUE(ParseQuerySpec("sum revenue-supplycost", &spec, &error));
  EXPECT_TRUE(spec.aggs[0].expr ==
              BinExpr(Expr::Op::kSub, ColExpr(FactCol::kRevenue),
                      ColExpr(FactCol::kSupplycost)));
}

TEST(ParseQuerySpecTest, ExpressionPrecedenceAndParens) {
  QuerySpec spec;
  std::string error;
  // '*' binds tighter than '-'; parens override.
  ASSERT_TRUE(ParseQuerySpec("sum extendedprice*(100-discount)", &spec,
                             &error))
      << error;
  const Expr want =
      BinExpr(Expr::Op::kMul, ColExpr(FactCol::kExtendedprice),
              BinExpr(Expr::Op::kSub, ConstExpr(100),
                      ColExpr(FactCol::kDiscount)));
  EXPECT_TRUE(spec.aggs[0].expr == want);

  ASSERT_TRUE(ParseQuerySpec("sum revenue-supplycost*discount", &spec,
                             &error));
  EXPECT_TRUE(spec.aggs[0].expr ==
              BinExpr(Expr::Op::kSub, ColExpr(FactCol::kRevenue),
                      BinExpr(Expr::Op::kMul, ColExpr(FactCol::kSupplycost),
                              ColExpr(FactCol::kDiscount))));

  // Left-associativity survives the round trip structurally: a-(b-c) needs
  // its parens back, a-b-c does not.
  ASSERT_TRUE(ParseQuerySpec("sum revenue-(supplycost-discount)", &spec,
                             &error));
  EXPECT_EQ(FormatQuerySpec(spec), "sum revenue-(supplycost-discount)");
  ASSERT_TRUE(ParseQuerySpec("sum revenue-supplycost-discount", &spec,
                             &error));
  EXPECT_EQ(FormatQuerySpec(spec), "sum revenue-supplycost-discount");
}

TEST(ParseQuerySpecTest, MultiAggregateListRoundTrips) {
  QuerySpec spec;
  std::string error;
  const std::string text =
      "sum quantity, avg discount, count, min revenue, max revenue";
  ASSERT_TRUE(ParseQuerySpec(text, &spec, &error)) << error;
  ASSERT_EQ(spec.aggs.size(), 5u);
  EXPECT_EQ(spec.aggs[0].func, AggFunc::kSum);
  EXPECT_EQ(spec.aggs[1].func, AggFunc::kAvg);
  EXPECT_EQ(spec.aggs[2].func, AggFunc::kCount);
  EXPECT_EQ(spec.aggs[3].func, AggFunc::kMin);
  EXPECT_EQ(spec.aggs[4].func, AggFunc::kMax);
  EXPECT_EQ(FormatQuerySpec(spec), text);
}

TEST(ParseQuerySpecTest, LikePredicatesRoundTrip) {
  QuerySpec spec;
  std::string error;
  ASSERT_TRUE(ParseQuerySpec(
      "sum revenue join supplier on suppkey filter s_nation like 'UNITED%'",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.joins.size(), 1u);
  ASSERT_EQ(spec.joins[0].filters.size(), 1u);
  EXPECT_EQ(spec.joins[0].filters[0].str_match, DimFilter::StrMatch::kPrefix);
  EXPECT_EQ(spec.joins[0].filters[0].pattern, "UNITED");
  EXPECT_EQ(FormatQuerySpec(spec),
            "sum revenue join supplier on suppkey filter s_nation like "
            "'UNITED%'");

  ASSERT_TRUE(ParseQuerySpec(
      "sum revenue join customer on custkey filter c_city like '%KI%'",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.joins[0].filters[0].str_match,
            DimFilter::StrMatch::kContains);
  EXPECT_EQ(spec.joins[0].filters[0].pattern, "KI");
  EXPECT_EQ(FormatQuerySpec(spec),
            "sum revenue join customer on custkey filter c_city like "
            "'%KI%'");
}

TEST(ParseQuerySpecTest, LikeErrorPaths) {
  QuerySpec spec;
  std::string error;
  EXPECT_FALSE(ParseQuerySpec(
      "sum revenue join supplier filter s_nation like UNITED", &spec,
      &error));
  EXPECT_NE(error.find("expected a quoted pattern"), std::string::npos);

  EXPECT_FALSE(ParseQuerySpec(
      "sum revenue join supplier filter s_nation like 'UNITED'", &spec,
      &error));
  EXPECT_NE(error.find("prefix 'FOO%' or substring '%FOO%'"),
            std::string::npos);

  // d_year has no dictionary; LIKE cannot bind (Validate).
  EXPECT_FALSE(ParseQuerySpec(
      "sum revenue join date filter d_year like '19%'", &spec, &error));
  EXPECT_NE(error.find("no string dictionary"), std::string::npos);
}

TEST(ParseQuerySpecTest, CaretDiagnosticsPointAtTheOffendingToken) {
  QuerySpec spec;
  ParseDiagnostic diag;
  ASSERT_FALSE(ParseQuerySpec("sum gold", &spec, &diag));
  EXPECT_EQ(diag.position, 4u);
  const std::string caret = CaretDiagnostic("sum gold", diag);
  EXPECT_NE(caret.find("error: unknown fact column 'gold'"),
            std::string::npos);
  EXPECT_NE(caret.find("\n  sum gold\n      ^"), std::string::npos);

  ASSERT_FALSE(ParseQuerySpec("median revenue", &spec, &diag));
  EXPECT_EQ(diag.position, 0u);

  // Semantic (Validate) failures carry no position; no caret is drawn.
  ASSERT_FALSE(ParseQuerySpec("sum revenue group by d_year", &spec, &diag));
  EXPECT_EQ(diag.position, ParseDiagnostic::kNoPosition);
  EXPECT_EQ(CaretDiagnostic("sum revenue group by d_year", diag).find('\n'),
            std::string::npos);
}

TEST(ParseQuerySpecTest, TpchAnalogsValidateAndRoundTrip) {
  for (const QuerySpec& spec : {TpchQ1Analog(), TpchQ6Analog()}) {
    std::string error;
    EXPECT_TRUE(Validate(spec, &error)) << spec.name << ": " << error;
    const std::string text = FormatQuerySpec(spec);
    QuerySpec parsed;
    ASSERT_TRUE(ParseQuerySpec(text, &parsed, &error))
        << spec.name << ": " << error << "\n  " << text;
    EXPECT_TRUE(parsed == spec) << spec.name << "\n  " << text;
    // Format o Parse is a fixed point: reformatting changes nothing.
    EXPECT_EQ(FormatQuerySpec(parsed), text) << spec.name;
  }
}

// --------------------------------------------------- aggregate planning

TEST(AggPlanTest, AvgExpandsToSumCountPair) {
  QuerySpec spec;
  spec.aggs = {Avg(ColExpr(FactCol::kQuantity))};
  const AggPlan plan = PlanAggs(spec);
  ASSERT_EQ(plan.num_slots(), 2);
  EXPECT_EQ(plan.slots[0].func, AggFunc::kSum);
  EXPECT_EQ(plan.slots[1].func, AggFunc::kCount);
  EXPECT_TRUE(plan.slots[0].emitted);
  EXPECT_TRUE(plan.slots[1].emitted);
  EXPECT_EQ(plan.count_slot, 1);
  EXPECT_EQ(plan.num_emitted, 2);
}

TEST(AggPlanTest, MinMaxGetHiddenLivenessCount) {
  QuerySpec spec;
  spec.aggs = {Min(ColExpr(FactCol::kRevenue))};
  const AggPlan plan = PlanAggs(spec);
  ASSERT_EQ(plan.num_slots(), 2);
  EXPECT_EQ(plan.slots[0].func, AggFunc::kMin);
  EXPECT_EQ(plan.slots[1].func, AggFunc::kCount);
  EXPECT_FALSE(plan.slots[1].emitted);  // liveness only
  EXPECT_EQ(plan.count_slot, 1);
  EXPECT_EQ(plan.num_emitted, 1);
  // Identities: MIN starts at +inf, the hidden count at zero.
  int64_t row[2];
  FillIdentity(plan, row, 1);
  EXPECT_EQ(row[0], INT64_MAX);
  EXPECT_EQ(row[1], 0);
}

TEST(AggPlanTest, TpchQ1PlanEmitsEightValues) {
  const AggPlan plan = PlanAggs(TpchQ1Analog());
  EXPECT_EQ(plan.num_slots(), 8);
  EXPECT_EQ(plan.num_emitted, 8);
  // The first explicit count is the liveness slot; the AVG expansions put
  // one at index 4 (slots: sum, sum, sum, avg-sum, avg-count, ...).
  EXPECT_EQ(plan.count_slot, 4);
}

TEST(AggPlanTest, LegacySingleSumKeepsOneSlot) {
  const AggPlan plan = PlanAggs(SsbSpec(QueryId::kQ21));
  EXPECT_EQ(plan.num_slots(), 1);
  EXPECT_EQ(plan.count_slot, -1);
  // All-SUM liveness: any non-zero value marks the cell live.
  const int64_t live[1] = {5};
  const int64_t dead[1] = {0};
  EXPECT_TRUE(plan.CellLive(live));
  EXPECT_FALSE(plan.CellLive(dead));
}

// ------------------------------------------- checked 64-bit accumulation

TEST(CheckedAccumulationTest, SumOverflowsExactlyAtTheBoundary) {
  int64_t acc = INT64_MAX - 1;
  EXPECT_TRUE(AggAccumulate(AggFunc::kSum, &acc, 1));
  EXPECT_EQ(acc, INT64_MAX);
  EXPECT_FALSE(AggAccumulate(AggFunc::kSum, &acc, 1));  // would wrap

  acc = INT64_MIN + 1;
  EXPECT_TRUE(AggAccumulate(AggFunc::kSum, &acc, -1));
  EXPECT_FALSE(AggAccumulate(AggFunc::kSum, &acc, -1));
}

TEST(CheckedAccumulationTest, MinMaxFoldNeverOverflows) {
  int64_t acc = INT64_MAX;  // MIN identity
  EXPECT_TRUE(AggAccumulate(AggFunc::kMin, &acc, INT64_MIN));
  EXPECT_EQ(acc, INT64_MIN);
  acc = INT64_MIN;  // MAX identity
  EXPECT_TRUE(AggAccumulate(AggFunc::kMax, &acc, INT64_MAX));
  EXPECT_EQ(acc, INT64_MAX);
}

TEST(CheckedAccumulationTest, EvalExprDetectsMultiplyOverflow) {
  const Expr expr = BinExpr(Expr::Op::kMul, ColExpr(FactCol::kRevenue),
                            ColExpr(FactCol::kRevenue));
  int64_t out = 0;
  EXPECT_TRUE(EvalExpr(
      expr, [](FactCol) { return int64_t{3037000499}; }, &out));
  EXPECT_EQ(out, int64_t{3037000499} * 3037000499);
  // One past the integer square root of INT64_MAX overflows.
  EXPECT_FALSE(EvalExpr(
      expr, [](FactCol) { return int64_t{3037000500}; }, &out));
}

TEST(CheckedAccumulationTest, IntervalsKeepChecksOnlyWhereInt64CanOverflow) {
  using B = std::vector<bool>;
  const auto col = [] { return ColExpr(FactCol::kExtendedprice); };
  const auto mul = [](Expr a, Expr b) {
    return BinExpr(Expr::Op::kMul, std::move(a), std::move(b));
  };
  // int32 x int32 fits in 63 bits: no node keeps a check.
  EXPECT_EQ(ExprCheckedNodes(mul(col(), col())), (B{false, false, false}));
  EXPECT_EQ(ExprCheckedNodes(BinExpr(Expr::Op::kSub, col(), col())),
            (B{false, false, false}));
  // extendedprice * (100 - discount): 100 - int32 stays within 2^31 + 100.
  EXPECT_EQ(ExprCheckedNodes(mul(col(), BinExpr(Expr::Op::kSub,
                                                ConstExpr(100), col()))),
            B(5, false));
  // col*col*col: only the outer multiply can leave int64.
  EXPECT_EQ(ExprCheckedNodes(mul(mul(col(), col()), col())),
            (B{false, false, false, false, true}));
  // Constants are exact: K*K + K*K leaves 2^33 - 3 of headroom, enough
  // for one more int32 term but not for an int32 * K term.
  const auto k2 = [&mul] {
    return mul(ConstExpr(INT32_MAX), ConstExpr(INT32_MAX));
  };
  const Expr two = BinExpr(Expr::Op::kAdd, k2(), k2());
  EXPECT_EQ(ExprCheckedNodes(two), B(7, false));
  EXPECT_FALSE(ExprCheckedNodes(BinExpr(Expr::Op::kAdd, two, col())).back());
  EXPECT_TRUE(ExprCheckedNodes(BinExpr(Expr::Op::kAdd, two,
                                       mul(col(), ConstExpr(INT32_MAX))))
                  .back());
  // Above a checked node any int64 may arrive: * 1 stays unchecked, + 1
  // does not.
  const Expr cube = mul(mul(col(), col()), col());
  EXPECT_FALSE(ExprCheckedNodes(mul(cube, ConstExpr(1))).back());
  EXPECT_TRUE(
      ExprCheckedNodes(BinExpr(Expr::Op::kAdd, cube, ConstExpr(1))).back());
}

// ------------------------------------------------ dictionary resolution

TEST(DictFilterTest, PrefixResolvesToSortedCodeSet) {
  const std::vector<int32_t>* codes = ResolveDictFilter(
      DimCol::kSNation, DimFilter::StrMatch::kPrefix, "UNITED");
  ASSERT_NE(codes, nullptr);
  // UNITED KINGDOM and UNITED STATES.
  EXPECT_EQ(codes->size(), 2u);
  for (size_t i = 1; i < codes->size(); ++i) {
    EXPECT_LT((*codes)[i - 1], (*codes)[i]);
  }
  // The resolver caches: the same predicate returns the same vector.
  EXPECT_EQ(codes, ResolveDictFilter(DimCol::kSNation,
                                     DimFilter::StrMatch::kPrefix, "UNITED"));
}

TEST(DictFilterTest, ContainsMatchesSubstringsAcrossTheDomain) {
  const std::vector<int32_t>* codes = ResolveDictFilter(
      DimCol::kCRegion, DimFilter::StrMatch::kContains, "AMERICA");
  ASSERT_NE(codes, nullptr);
  EXPECT_EQ(codes->size(), 1u);  // AMERICA itself (substring of no other)
  const std::vector<int32_t>* none = ResolveDictFilter(
      DimCol::kCRegion, DimFilter::StrMatch::kPrefix, "ZZZ");
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->empty());
}

TEST(ValidateTest, RejectsBadAggregateLists) {
  QuerySpec spec;
  std::string error;
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("no aggregates"), std::string::npos);

  spec.aggs = {AggSpec{AggFunc::kCount, ColExpr(FactCol::kRevenue)}};
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("count takes no expression"), std::string::npos);

  spec.aggs = {AggSpec{AggFunc::kSum, Expr{}}};
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("requires an expression"), std::string::npos);

  spec.aggs = {Sum(ConstExpr(-5))};
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("negative constants"), std::string::npos);

  // 9 AVGs expand to 18 slots, over the 16-slot budget.
  spec.aggs.assign(9, Avg(ColExpr(FactCol::kRevenue)));
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("too many aggregate values"), std::string::npos);

  // An expression over the node budget (32 leaves -> 63 nodes).
  Expr big = ColExpr(FactCol::kRevenue);
  for (int i = 0; i < 31; ++i) {
    big = BinExpr(Expr::Op::kAdd, std::move(big), ColExpr(FactCol::kRevenue));
  }
  spec.aggs = {Sum(std::move(big))};
  EXPECT_FALSE(Validate(spec, &error));
  EXPECT_NE(error.find("expression too large"), std::string::npos);
}

// ------------------------------------------------------- name bindings

TEST(NamesTest, EveryColumnNameRoundTrips) {
  for (int i = 0; i < kNumFactCols; ++i) {
    const FactCol col = static_cast<FactCol>(i);
    FactCol back;
    ASSERT_TRUE(FactColFromName(FactColName(col), &back));
    EXPECT_EQ(back, col);
  }
  for (int i = 0; i < kNumDimCols; ++i) {
    const DimCol col = static_cast<DimCol>(i);
    DimCol back;
    ASSERT_TRUE(DimColFromName(DimColName(col), &back));
    EXPECT_EQ(back, col);
    int32_t lo, hi;
    DimColDomain(col, &lo, &hi);
    EXPECT_LE(lo, hi) << DimColName(col);
  }
  for (int i = 0; i < kNumDimTables; ++i) {
    const DimTable table = static_cast<DimTable>(i);
    DimTable back;
    ASSERT_TRUE(DimTableFromName(DimTableName(table), &back));
    EXPECT_EQ(back, table);
  }
}

}  // namespace
}  // namespace crystal::query
