#include "db/join_planner.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace diads::db {

std::shared_ptr<PlanNode> MakeUnaryNode(OpType type, const PlanNodePtr& input,
                                        std::string detail) {
  auto node = std::make_shared<PlanNode>();
  node->type = type;
  node->children = {input};
  node->rows = input->rows;
  node->width = input->width;
  node->detail = std::move(detail);
  return node;
}

std::shared_ptr<PlanNode> MakeJoinNode(OpType type, const PlanNodePtr& outer,
                                       const PlanNodePtr& inner,
                                       std::string detail, double rows) {
  auto join = std::make_shared<PlanNode>();
  join->type = type;
  join->children = {outer, inner};
  join->rows = rows;
  join->width = outer->width + inner->width;
  join->detail = std::move(detail);
  return join;
}

std::string PredicateText(const JoinPredicate& pred) {
  return StrFormat("%s.%s = %s.%s", pred.left_alias.c_str(),
                   pred.left_column.c_str(), pred.right_alias.c_str(),
                   pred.right_column.c_str());
}

CostModel::CostModel(const Catalog* catalog, std::string limit_engine_op)
    : catalog_(catalog), limit_engine_op_(std::move(limit_engine_op)) {
  assert(catalog != nullptr);
}

double CostModel::ColumnNdv(const QuerySpec& block, const std::string& alias,
                            const std::string& column) const {
  const TableRef* ref = block.FindAlias(alias);
  if (ref == nullptr) return 1000;
  Result<const TableDef*> table = catalog_->FindTable(ref->table);
  if (!table.ok()) return 1000;
  const ColumnStats* col = (*table)->FindColumn(column);
  return col != nullptr ? std::max(1.0, col->ndv) : 1000;
}

const JoinPredicate* FindJoinPredicate(const QuerySpec& block,
                                       uint32_t joined, size_t inner,
                                       bool* inner_is_left) {
  auto is_joined = [&](const std::string& alias) {
    for (size_t i = 0; i < block.tables.size(); ++i) {
      if ((joined & (1u << i)) && block.tables[i].alias == alias) return true;
    }
    return false;
  };
  const std::string& alias = block.tables[inner].alias;
  for (const JoinPredicate& j : block.joins) {
    if (j.right_alias == alias && is_joined(j.left_alias)) {
      *inner_is_left = false;
      return &j;
    }
    if (j.left_alias == alias && is_joined(j.right_alias)) {
      *inner_is_left = true;
      return &j;
    }
  }
  return nullptr;
}

double JoinOutputRows(const CostModel& model, const QuerySpec& block,
                      double outer_rows, double inner_rows,
                      const JoinPredicate& pred) {
  const double ndv_l =
      model.ColumnNdv(block, pred.left_alias, pred.left_column);
  const double ndv_r =
      model.ColumnNdv(block, pred.right_alias, pred.right_column);
  return std::max(1.0, outer_rows * inner_rows / std::max(ndv_l, ndv_r));
}

namespace {

/// Plans one block: its tables by left-deep DP, then its group-by.
Result<PlanNodePtr> PlanBlock(const CostModel& model, const QuerySpec& block) {
  if (block.tables.empty()) {
    return Status::InvalidArgument("query block has no tables");
  }
  if (block.tables.size() > 16) {
    return Status::InvalidArgument("too many tables in block (max 16)");
  }
  const size_t n = block.tables.size();
  const uint32_t full = (1u << n) - 1;

  // best[mask]: the cheapest plan found so far that joins exactly the
  // tables in `mask`; null while none is.
  std::vector<PlanNodePtr> best(size_t{full} + 1);
  for (size_t i = 0; i < n; ++i) {
    Result<PlanNodePtr> scan = model.ScanPath(block, block.tables[i]);
    DIADS_RETURN_IF_ERROR(scan.status());
    best[1u << i] = *scan;
  }

  // Left-deep extension in increasing subset-population order.
  for (size_t size = 1; size < n; ++size) {
    for (uint32_t mask = 1; mask < full; ++mask) {
      if (best[mask] == nullptr ||
          static_cast<size_t>(__builtin_popcount(mask)) != size) {
        continue;
      }
      const PlanNodePtr& outer = best[mask];
      // A cartesian extension is allowed only when nothing better exists:
      // no remaining table joins this subset (disconnected join graph, or
      // no predicates at all).
      bool any_connected = false;
      for (size_t i = 0; i < n && !any_connected; ++i) {
        bool unused = false;
        any_connected = !(mask & (1u << i)) &&
                        FindJoinPredicate(block, mask, i, &unused) != nullptr;
      }
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) continue;
        bool inner_is_left = false;
        const JoinPredicate* pred =
            FindJoinPredicate(block, mask, i, &inner_is_left);
        if (pred == nullptr && any_connected) continue;
        const PlanNodePtr& inner_scan = best[1u << i];
        const double rows =
            pred != nullptr ? JoinOutputRows(model, block, outer->rows,
                                             inner_scan->rows, *pred)
                            : outer->rows * inner_scan->rows;
        PlanNodePtr candidate = model.Join(JoinStep{
            block, outer, block.tables[i], inner_scan, pred, inner_is_left,
            rows});
        PlanNodePtr& state = best[mask | (1u << i)];
        if (state == nullptr || candidate->cost < state->cost) {
          state = std::move(candidate);
        }
      }
    }
  }

  PlanNodePtr result = best[full];
  if (result == nullptr) {
    return Status::Internal("join enumeration failed to cover all tables");
  }
  if (block.aggregate) {
    auto agg = MakeUnaryNode(
        OpType::kAggregate, result,
        StrFormat("group by %s.%s", block.agg_group_alias.c_str(),
                  block.agg_group_column.c_str()));
    const double groups = std::min(
        result->rows, model.ColumnNdv(block, block.agg_group_alias,
                                      block.agg_group_column));
    agg->rows = std::max(1.0, groups);
    model.CostAggregate(*result, agg.get());
    result = std::move(agg);
  }
  return result;
}

/// Adds `node`'s subtree to `builder`, children before parents; returns
/// the node's index.
int Emit(const PlanNode& node, PlanBuilder* builder) {
  std::vector<int> children;
  children.reserve(node.children.size());
  for (const PlanNodePtr& child : node.children) {
    children.push_back(Emit(*child, builder));
  }
  int index;
  if (IsScan(node.type)) {
    assert(children.empty());
    index = builder->AddScan(node.type, node.alias, node.table,
                             node.index_name);
    builder->SetDetail(index, node.detail);
  } else {
    index = builder->AddOp(node.type, std::move(children), node.detail);
  }
  builder->SetEstimates(index, node.rows, node.cost, node.pages);
  builder->SetEngineOp(index, node.engine_op);
  return index;
}

}  // namespace

Result<Plan> PlanQuery(const CostModel& model, const QuerySpec& spec) {
  Result<PlanNodePtr> main_block = PlanBlock(model, spec);
  DIADS_RETURN_IF_ERROR(main_block.status());
  PlanNodePtr root = *main_block;

  if (spec.subplan != nullptr) {
    Result<PlanNodePtr> sub = PlanBlock(model, *spec.subplan);
    DIADS_RETURN_IF_ERROR(sub.status());
    root = model.SubqueryJoin(
        spec, root, *sub,
        std::max(1.0, root->rows * spec.subplan_join_selectivity));
  }
  if (spec.sort) {
    auto sort = MakeUnaryNode(OpType::kSort, root, "order by result keys");
    model.CostSort(*root, sort.get());
    root = std::move(sort);
  }
  if (spec.limit > 0) {
    auto limit =
        MakeUnaryNode(OpType::kLimit, root, StrFormat("limit %d", spec.limit));
    limit->engine_op = model.limit_engine_op();
    limit->rows = std::min<double>(spec.limit, root->rows);
    limit->cost = root->cost;
    root = std::move(limit);
  }
  auto result = MakeUnaryNode(OpType::kResult, root);
  result->cost = root->cost;

  PlanBuilder builder(spec.name);
  const int root_index = Emit(*result, &builder);
  return builder.Build(root_index);
}

}  // namespace diads::db
