#include "diads/symptom_expr.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "diads/symptom_index.h"

namespace diads::diag {
namespace {

// --- Tokenizer -------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kLParen, kRParen, kComma, kEquals, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '(') {
        out.push_back({Token::Kind::kLParen, "(", i++});
      } else if (c == ')') {
        out.push_back({Token::Kind::kRParen, ")", i++});
      } else if (c == ',') {
        out.push_back({Token::Kind::kComma, ",", i++});
      } else if (c == '=') {
        out.push_back({Token::Kind::kEquals, "=", i++});
      } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                 c == '$' || c == '.' || c == '-') {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_' || text_[j] == '$' || text_[j] == '.' ||
                text_[j] == '-' || text_[j] == ':' || text_[j] == '/')) {
          ++j;
        }
        out.push_back({Token::Kind::kIdent, text_.substr(i, j - i), i});
        i = j;
      } else {
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at position %zu in symptom "
                      "expression",
                      c, i));
      }
    }
    out.push_back({Token::Kind::kEnd, "", text_.size()});
    return out;
  }

 private:
  const std::string& text_;
};

// --- Parser ----------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SymptomExpr> Parse() {
    Result<SymptomExpr> expr = ParseOr();
    DIADS_RETURN_IF_ERROR(expr.status());
    if (Peek().kind != Token::Kind::kEnd) {
      return Status::InvalidArgument(
          StrFormat("trailing tokens at position %zu", Peek().pos));
    }
    return expr;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }

  bool TakeKeyword(const char* kw) {
    if (Peek().kind == Token::Kind::kIdent && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<SymptomExpr> ParseOr() {
    Result<SymptomExpr> left = ParseAnd();
    DIADS_RETURN_IF_ERROR(left.status());
    SymptomExpr expr = std::move(*left);
    while (TakeKeyword("or")) {
      Result<SymptomExpr> right = ParseAnd();
      DIADS_RETURN_IF_ERROR(right.status());
      SymptomExpr parent;
      parent.kind = SymptomExpr::Kind::kOr;
      parent.children.push_back(std::move(expr));
      parent.children.push_back(std::move(*right));
      expr = std::move(parent);
    }
    return expr;
  }

  Result<SymptomExpr> ParseAnd() {
    Result<SymptomExpr> left = ParseUnary();
    DIADS_RETURN_IF_ERROR(left.status());
    SymptomExpr expr = std::move(*left);
    while (TakeKeyword("and")) {
      Result<SymptomExpr> right = ParseUnary();
      DIADS_RETURN_IF_ERROR(right.status());
      SymptomExpr parent;
      parent.kind = SymptomExpr::Kind::kAnd;
      parent.children.push_back(std::move(expr));
      parent.children.push_back(std::move(*right));
      expr = std::move(parent);
    }
    return expr;
  }

  Result<SymptomExpr> ParseUnary() {
    if (TakeKeyword("not")) {
      Result<SymptomExpr> inner = ParseUnary();
      DIADS_RETURN_IF_ERROR(inner.status());
      SymptomExpr expr;
      expr.kind = SymptomExpr::Kind::kNot;
      expr.children.push_back(std::move(*inner));
      return expr;
    }
    return ParsePrimary();
  }

  Result<SymptomExpr> ParsePrimary() {
    if (Peek().kind == Token::Kind::kLParen) {
      Take();
      Result<SymptomExpr> inner = ParseOr();
      DIADS_RETURN_IF_ERROR(inner.status());
      if (Peek().kind != Token::Kind::kRParen) {
        return Status::InvalidArgument(
            StrFormat("expected ')' at position %zu", Peek().pos));
      }
      Take();
      return inner;
    }
    return ParseCall();
  }

  Result<SymptomExpr> ParseCall() {
    if (Peek().kind != Token::Kind::kIdent) {
      return Status::InvalidArgument(
          StrFormat("expected predicate name at position %zu", Peek().pos));
    }
    SymptomExpr expr;
    expr.kind = SymptomExpr::Kind::kCall;
    expr.callee = Take().text;
    if (Peek().kind != Token::Kind::kLParen) {
      return Status::InvalidArgument(StrFormat(
          "expected '(' after '%s' at position %zu", expr.callee.c_str(),
          Peek().pos));
    }
    Take();
    if (Peek().kind == Token::Kind::kRParen) {
      Take();
      return expr;
    }
    while (true) {
      // Either `name=value` or a nested call (argument of before()).
      if (Peek().kind != Token::Kind::kIdent) {
        return Status::InvalidArgument(
            StrFormat("expected argument at position %zu", Peek().pos));
      }
      const Token name = Take();
      if (Peek().kind == Token::Kind::kEquals) {
        Take();
        if (Peek().kind != Token::Kind::kIdent) {
          return Status::InvalidArgument(StrFormat(
              "expected value for argument '%s' at position %zu",
              name.text.c_str(), Peek().pos));
        }
        expr.args[name.text] = Take().text;
      } else if (Peek().kind == Token::Kind::kLParen) {
        // Nested call: back up and parse it as a child expression.
        --pos_;
        Result<SymptomExpr> nested = ParseCall();
        DIADS_RETURN_IF_ERROR(nested.status());
        expr.children.push_back(std::move(*nested));
      } else {
        return Status::InvalidArgument(StrFormat(
            "expected '=' or '(' after '%s' at position %zu",
            name.text.c_str(), Peek().pos));
      }
      if (Peek().kind == Token::Kind::kComma) {
        Take();
        continue;
      }
      if (Peek().kind == Token::Kind::kRParen) {
        Take();
        return expr;
      }
      return Status::InvalidArgument(
          StrFormat("expected ',' or ')' at position %zu", Peek().pos));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// --- Evaluation helpers ------------------------------------------------------

Result<ComponentId> ResolveComponent(const std::string& value,
                                     const SymptomEvalContext& eval) {
  if (value == "$V") {
    if (!eval.bound_volume.valid()) {
      return Status::FailedPrecondition(
          "$V used in an entry evaluated without a volume binding");
    }
    return eval.bound_volume;
  }
  return eval.ctx->topology->registry().FindByName(value);
}

Result<std::string> RequireArg(const SymptomExpr& expr, const char* name) {
  auto it = expr.args.find(name);
  if (it == expr.args.end()) {
    return Status::InvalidArgument(StrFormat(
        "predicate '%s' requires argument '%s'", expr.callee.c_str(), name));
  }
  return it->second;
}

/// Membership of one operator in the COS, via the index when present.
bool InCos(int op_index, const SymptomEvalContext& eval) {
  return eval.index != nullptr ? eval.index->InCos(op_index)
                               : eval.co->InCos(op_index);
}

/// Fraction of the volume's leaf operators that are in the COS.
Result<double> CosLeafFraction(ComponentId volume,
                               const SymptomEvalContext& eval) {
  const std::vector<int> leaves = eval.ctx->apg->LeafOpsOnComponent(volume);
  if (leaves.empty()) return 0.0;
  int in_cos = 0;
  for (int leaf : leaves) {
    if (InCos(leaf, eval)) ++in_cos;
  }
  return static_cast<double>(in_cos) / static_cast<double>(leaves.size());
}

/// Indexed or linear DaResult::Find.
const MetricAnomaly* FindMetric(ComponentId component,
                                monitor::MetricId metric,
                                const SymptomEvalContext& eval) {
  return eval.index != nullptr ? eval.index->FindMetric(component, metric)
                               : eval.da->Find(component, metric);
}

/// Any storage metric of the volume anomalous per Module DA.
bool VolumeMetricAnomalous(ComponentId volume,
                           const SymptomEvalContext& eval) {
  if (eval.index != nullptr) return eval.index->AnyMetricAnomalous(volume);
  const double threshold = eval.config->metric_anomaly.threshold;
  for (const MetricAnomaly& m : eval.da->metrics) {
    if (m.component == volume && m.anomaly_score >= threshold) return true;
  }
  return false;
}

bool DbMetricAnomalous(monitor::MetricId metric,
                       const SymptomEvalContext& eval) {
  const MetricAnomaly* m = FindMetric(eval.ctx->database, metric, eval);
  return m != nullptr &&
         m->anomaly_score >= eval.config->metric_anomaly.threshold;
}

/// Earliest event of a call's type (used by before()); supports the same
/// `volume=` proximity filter as event_near.
Result<std::optional<SimTimeMs>> FirstEventTime(
    const SymptomExpr& call, const SymptomEvalContext& eval) {
  Result<std::string> type_name = RequireArg(call, "type");
  DIADS_RETURN_IF_ERROR(type_name.status());
  Result<EventType> type = ParseEventTypeName(*type_name);
  DIADS_RETURN_IF_ERROR(type.status());
  if (eval.index != nullptr) return eval.index->FirstEventTime(*type);
  std::optional<SimTimeMs> first;
  for (const SystemEvent& e : eval.ctx->events->EventsOfTypeIn(
           *type, eval.ctx->AnalysisWindow())) {
    if (!first.has_value() || e.time < *first) first = e.time;
  }
  return first;
}

/// True when `subject` is the volume itself, shares disks with it, or is
/// its pool.
bool NearVolume(ComponentId subject, ComponentId volume,
                const SymptomEvalContext& eval) {
  if (!subject.valid()) return false;
  if (subject == volume) return true;
  const san::SanTopology& topo = *eval.ctx->topology;
  const ComponentRegistry& registry = topo.registry();
  if (!registry.Contains(subject)) return false;
  const ComponentKind kind = registry.KindOf(subject);
  if (kind == ComponentKind::kVolume) {
    for (ComponentId sharer : topo.VolumesSharingDisks(volume)) {
      if (sharer == subject) return true;
    }
    return false;
  }
  if (kind == ComponentKind::kStoragePool) {
    return topo.volume(volume).pool == subject;
  }
  if (kind == ComponentKind::kDisk) {
    // Membership by pool, not by DisksOfVolume: a *failed* disk is exactly
    // the one DisksOfVolume no longer lists, yet its failure event is the
    // symptom.
    return topo.disk(subject).pool == topo.volume(volume).pool;
  }
  return false;
}

Result<bool> EvaluateCall(const SymptomExpr& expr,
                          const SymptomEvalContext& eval) {
  const std::string& f = expr.callee;

  if (f == "op_anomaly_any" || f == "op_anomaly_majority") {
    Result<std::string> vol_name = RequireArg(expr, "volume");
    DIADS_RETURN_IF_ERROR(vol_name.status());
    Result<ComponentId> volume = ResolveComponent(*vol_name, eval);
    DIADS_RETURN_IF_ERROR(volume.status());
    Result<double> fraction = CosLeafFraction(*volume, eval);
    DIADS_RETURN_IF_ERROR(fraction.status());
    return f == "op_anomaly_any" ? *fraction > 0 : *fraction > 0.5;
  }
  if (f == "op_anomaly_exists") {
    return !eval.co->correlated_operator_set.empty();
  }
  if (f == "volume_metric_anomaly") {
    Result<std::string> vol_name = RequireArg(expr, "volume");
    DIADS_RETURN_IF_ERROR(vol_name.status());
    Result<ComponentId> volume = ResolveComponent(*vol_name, eval);
    DIADS_RETURN_IF_ERROR(volume.status());
    return VolumeMetricAnomalous(*volume, eval);
  }
  if (f == "metric_anomaly") {
    Result<std::string> comp_name = RequireArg(expr, "component");
    DIADS_RETURN_IF_ERROR(comp_name.status());
    Result<ComponentId> component = ResolveComponent(*comp_name, eval);
    DIADS_RETURN_IF_ERROR(component.status());
    Result<std::string> metric_name = RequireArg(expr, "metric");
    DIADS_RETURN_IF_ERROR(metric_name.status());
    Result<monitor::MetricId> metric = ParseMetricShortName(*metric_name);
    DIADS_RETURN_IF_ERROR(metric.status());
    const MetricAnomaly* m = FindMetric(*component, *metric, eval);
    return m != nullptr &&
           m->anomaly_score >= eval.config->metric_anomaly.threshold;
  }
  if (f == "component_correlated") {
    Result<std::string> comp_name = RequireArg(expr, "component");
    DIADS_RETURN_IF_ERROR(comp_name.status());
    Result<ComponentId> component = ResolveComponent(*comp_name, eval);
    DIADS_RETURN_IF_ERROR(component.status());
    return eval.index != nullptr ? eval.index->InCcs(*component)
                                 : eval.da->InCcs(*component);
  }
  if (f == "record_count_change") {
    auto it = expr.args.find("volume");
    if (it == expr.args.end()) return eval.cr->data_properties_changed;
    Result<ComponentId> volume = ResolveComponent(it->second, eval);
    DIADS_RETURN_IF_ERROR(volume.status());
    for (int op_index : eval.cr->correlated_record_set) {
      if (!eval.ctx->apg->plan().op(op_index).is_scan()) continue;
      Result<ComponentId> op_volume = eval.ctx->apg->VolumeOfOp(op_index);
      if (op_volume.ok() && *op_volume == *volume) return true;
    }
    return false;
  }
  if (f == "no_record_count_change") {
    return !eval.cr->data_properties_changed;
  }
  if (f == "event") {
    Result<std::string> type_name = RequireArg(expr, "type");
    DIADS_RETURN_IF_ERROR(type_name.status());
    Result<EventType> type = ParseEventTypeName(*type_name);
    DIADS_RETURN_IF_ERROR(type.status());
    if (eval.index != nullptr) {
      return !eval.index->EventsOfType(*type).empty();
    }
    return !eval.ctx->events
                ->EventsOfTypeIn(*type, eval.ctx->AnalysisWindow())
                .empty();
  }
  if (f == "event_near") {
    Result<std::string> type_name = RequireArg(expr, "type");
    DIADS_RETURN_IF_ERROR(type_name.status());
    Result<EventType> type = ParseEventTypeName(*type_name);
    DIADS_RETURN_IF_ERROR(type.status());
    Result<std::string> vol_name = RequireArg(expr, "volume");
    DIADS_RETURN_IF_ERROR(vol_name.status());
    Result<ComponentId> volume = ResolveComponent(*vol_name, eval);
    DIADS_RETURN_IF_ERROR(volume.status());
    auto near_any = [&](const std::vector<SystemEvent>& events) {
      for (const SystemEvent& e : events) {
        if (NearVolume(e.subject, *volume, eval)) return true;
      }
      return false;
    };
    // Bind the index's vector by reference; only the fallback materializes.
    if (eval.index != nullptr) return near_any(eval.index->EventsOfType(*type));
    return near_any(eval.ctx->events->EventsOfTypeIn(
        *type, eval.ctx->AnalysisWindow()));
  }
  if (f == "before") {
    if (expr.children.size() != 2) {
      return Status::InvalidArgument("before() requires two event arguments");
    }
    Result<std::optional<SimTimeMs>> a = FirstEventTime(expr.children[0], eval);
    DIADS_RETURN_IF_ERROR(a.status());
    Result<std::optional<SimTimeMs>> b = FirstEventTime(expr.children[1], eval);
    DIADS_RETURN_IF_ERROR(b.status());
    return a->has_value() && b->has_value() && **a < **b;
  }
  if (f == "lock_wait_high") {
    return DbMetricAnomalous(monitor::MetricId::kDbLockWaitMs, eval);
  }
  if (f == "locks_held_high") {
    return DbMetricAnomalous(monitor::MetricId::kDbLocksHeld, eval);
  }
  if (f == "db_blocks_read_high") {
    return DbMetricAnomalous(monitor::MetricId::kDbBlocksRead, eval);
  }
  if (f == "cpu_high") {
    const ComponentId server = eval.ctx->apg->db_server();
    const MetricAnomaly* m =
        FindMetric(server, monitor::MetricId::kServerCpuPct, eval);
    return m != nullptr &&
           m->anomaly_score >= eval.config->metric_anomaly.threshold;
  }
  if (f == "fabric_component_anomalous") {
    // Any FC port or switch in the APG with an anomalous metric: the
    // surviving-path congestion signature of HBA failure and multipath
    // imbalance (the fault itself stops reporting; its neighbours heat up).
    const ComponentRegistry& registry = eval.ctx->topology->registry();
    for (ComponentId component : eval.ctx->apg->AllComponents()) {
      if (!registry.Contains(component)) continue;
      const ComponentKind kind = registry.KindOf(component);
      if (kind != ComponentKind::kFcPort && kind != ComponentKind::kFcSwitch) {
        continue;
      }
      if (eval.index != nullptr) {
        if (eval.index->AnyMetricAnomalous(component)) return true;
      } else {
        const double threshold = eval.config->metric_anomaly.threshold;
        for (const MetricAnomaly& m : eval.da->metrics) {
          if (m.component == component && m.anomaly_score >= threshold) {
            return true;
          }
        }
      }
    }
    return false;
  }
  if (f == "plan_changed") return eval.pd->plans_differ;
  if (f == "no_plan_change") return !eval.pd->plans_differ;
  if (f == "plan_change_explained") {
    for (const PlanChangeCandidate& c : eval.pd->candidates) {
      if (c.could_explain.value_or(false)) return true;
    }
    return false;
  }
  return Status::InvalidArgument("unknown symptom predicate: " + f);
}

}  // namespace

std::string SymptomExpr::ToString() const {
  switch (kind) {
    case Kind::kNot:
      return "not " + children[0].ToString();
    case Kind::kAnd:
      return "(" + children[0].ToString() + " and " + children[1].ToString() +
             ")";
    case Kind::kOr:
      return "(" + children[0].ToString() + " or " + children[1].ToString() +
             ")";
    case Kind::kCall: {
      std::vector<std::string> parts;
      for (const SymptomExpr& child : children) parts.push_back(child.ToString());
      for (const auto& [name, value] : args) parts.push_back(name + "=" + value);
      return callee + "(" + Join(parts, ", ") + ")";
    }
  }
  return "?";
}

Result<SymptomExpr> ParseSymptomExpr(const std::string& text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  DIADS_RETURN_IF_ERROR(tokens.status());
  Parser parser(std::move(*tokens));
  return parser.Parse();
}

Result<bool> EvaluateSymptom(const SymptomExpr& expr,
                             const SymptomEvalContext& eval) {
  switch (expr.kind) {
    case SymptomExpr::Kind::kNot: {
      Result<bool> inner = EvaluateSymptom(expr.children[0], eval);
      DIADS_RETURN_IF_ERROR(inner.status());
      return !*inner;
    }
    case SymptomExpr::Kind::kAnd: {
      for (const SymptomExpr& child : expr.children) {
        Result<bool> value = EvaluateSymptom(child, eval);
        DIADS_RETURN_IF_ERROR(value.status());
        if (!*value) return false;
      }
      return true;
    }
    case SymptomExpr::Kind::kOr: {
      for (const SymptomExpr& child : expr.children) {
        Result<bool> value = EvaluateSymptom(child, eval);
        DIADS_RETURN_IF_ERROR(value.status());
        if (*value) return true;
      }
      return false;
    }
    case SymptomExpr::Kind::kCall:
      return EvaluateCall(expr, eval);
  }
  return Status::Internal("corrupt symptom expression");
}

Result<monitor::MetricId> ParseMetricShortName(const std::string& name) {
  // Built once (thread-safe magic static), read-only afterwards: these
  // parses run inside every metric predicate evaluation.
  static const std::unordered_map<std::string, monitor::MetricId>* kByName =
      [] {
        auto* map = new std::unordered_map<std::string, monitor::MetricId>();
        for (const monitor::MetricMeta& meta : monitor::AllMetrics()) {
          map->emplace(monitor::MetricShortName(meta.id), meta.id);
          map->emplace(meta.name, meta.id);
        }
        return map;
      }();
  auto it = kByName->find(name);
  if (it == kByName->end()) {
    return Status::NotFound("unknown metric name: " + name);
  }
  return it->second;
}

Result<EventType> ParseEventTypeName(const std::string& name) {
  static const std::unordered_map<std::string, EventType>* kByName = [] {
    auto* map = new std::unordered_map<std::string, EventType>();
    for (int i = 0; i < static_cast<int>(EventType::kCount); ++i) {
      const EventType type = static_cast<EventType>(i);
      map->emplace(EventTypeName(type), type);
    }
    return map;
  }();
  auto it = kByName->find(name);
  if (it == kByName->end()) {
    return Status::NotFound("unknown event type: " + name);
  }
  return it->second;
}

}  // namespace diads::diag
