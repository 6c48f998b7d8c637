#include "diads/symptoms_db.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "common/strings.h"
#include "common/table_printer.h"
#include "diads/symptom_index.h"

namespace diads::diag {

Status SymptomsDb::AddEntry(
    const std::string& name, RootCauseType type,
    std::vector<std::pair<std::string, double>> conditions) {
  const RootCauseTraits& traits = GetRootCauseTraits(type);
  if (traits.type == RootCauseType::kCount) {  // No row: not a cause.
    return Status::InvalidArgument(
        StrFormat("entry '%s' has an unknown root-cause type %d", name.c_str(),
                  static_cast<int>(type)));
  }
  for (const RootCauseEntry& e : entries_) {
    if (e.name == name) {
      return Status::AlreadyExists("symptoms entry exists: " + name);
    }
  }
  RootCauseEntry entry;
  entry.name = name;
  entry.type = type;
  entry.bind_volumes = traits.subject == SubjectRule::kBoundVolume;
  double total = 0;
  for (auto& [text, weight] : conditions) {
    if (weight <= 0) {
      return Status::InvalidArgument(
          StrFormat("condition weight must be positive in entry '%s'",
                    name.c_str()));
    }
    Result<SymptomExpr> parsed = ParseSymptomExpr(text);
    DIADS_RETURN_IF_ERROR(parsed.status());
    Condition condition;
    condition.expr_text = text;
    condition.parsed = std::move(*parsed);
    condition.weight = weight;
    total += weight;
    entry.conditions.push_back(std::move(condition));
  }
  if (std::fabs(total - 100.0) > 0.01) {
    return Status::InvalidArgument(
        StrFormat("weights in entry '%s' sum to %.2f, expected 100",
                  name.c_str(), total));
  }
  entries_.push_back(std::move(entry));
  return Status::Ok();
}

Status SymptomsDb::RemoveEntry(const std::string& name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("no symptoms entry named: " + name);
}

SymptomsDb SymptomsDb::MakeDefault() {
  SymptomsDb db;
  auto must = [](Status status) { assert(status.ok()); (void)status; };

  // Scenario 1's root cause: a provisioning mistake mapped a new volume
  // onto $V's disks. The config events are the discriminating symptoms.
  must(db.AddEntry(
      "san-misconfiguration-contention",
      RootCauseType::kSanMisconfigurationContention,
      {
          {"op_anomaly_majority(volume=$V)", 20},
          {"volume_metric_anomaly(volume=$V)", 20},
          {"component_correlated(component=$V)", 10},
          {"event_near(type=VolumeCreated, volume=$V)", 15},
          {"event_near(type=LunMappingChanged, volume=$V)", 10},
          {"event(type=ZoningChanged)", 10},
          {"before(event(type=VolumeCreated), event(type=VolumePerfDegraded))",
           5},
          {"no_plan_change()", 5},
          {"not record_count_change()", 5},
      }));

  // Scenario 2's root cause: a known external workload is hammering $V or
  // a disk-sharing neighbour.
  must(db.AddEntry(
      "external-workload-contention",
      RootCauseType::kExternalWorkloadContention,
      {
          {"op_anomaly_majority(volume=$V)", 20},
          {"volume_metric_anomaly(volume=$V)", 20},
          {"component_correlated(component=$V)", 15},
          {"event_near(type=ExternalWorkloadStarted, volume=$V)", 25},
          {"no_plan_change()", 10},
          {"not record_count_change()", 10},
      }));

  // Scenario 3's root cause: DML changed data properties; record counts
  // moved while the plan stayed put.
  must(db.AddEntry("data-property-change", RootCauseType::kDataPropertyChange,
                   {
                       {"record_count_change()", 35},
                       {"event(type=DmlBatch)", 25},
                       {"op_anomaly_exists()", 15},
                       {"no_plan_change()", 10},
                       {"not lock_wait_high()", 5},
                       {"not event(type=ZoningChanged)", 5},
                       {"not event(type=VolumeCreated)", 5},
                   }));

  // Scenario 5's root cause: lock contention in the database layer.
  must(db.AddEntry("table-lock-contention", RootCauseType::kLockContention,
                   {
                       {"lock_wait_high()", 30},
                       {"locks_held_high()", 15},
                       {"event(type=TableLockContention)", 25},
                       {"op_anomaly_exists()", 10},
                       {"no_plan_change()", 10},
                       {"not record_count_change()", 10},
                   }));

  must(db.AddEntry("plan-change", RootCauseType::kPlanChange,
                   {
                       {"plan_changed()", 60},
                       {"plan_change_explained()", 40},
                   }));

  must(db.AddEntry("raid-rebuild", RootCauseType::kRaidRebuild,
                   {
                       {"event_near(type=RaidRebuildStarted, volume=$V)", 30},
                       {"volume_metric_anomaly(volume=$V)", 25},
                       {"op_anomaly_majority(volume=$V)", 20},
                       {"component_correlated(component=$V)", 10},
                       {"no_plan_change()", 10},
                       {"not record_count_change()", 5},
                   }));

  must(db.AddEntry("disk-failure", RootCauseType::kDiskFailure,
                   {
                       {"event_near(type=DiskFailed, volume=$V)", 40},
                       {"volume_metric_anomaly(volume=$V)", 25},
                       {"op_anomaly_any(volume=$V)", 20},
                       {"no_plan_change()", 10},
                       {"not record_count_change()", 5},
                   }));

  must(db.AddEntry("buffer-pool-pressure",
                   RootCauseType::kBufferPoolPressure,
                   {
                       {"db_blocks_read_high()", 30},
                       {"event(type=DbParamChanged)", 30},
                       {"op_anomaly_exists()", 15},
                       {"no_plan_change()", 10},
                       {"not lock_wait_high()", 10},
                       {"not event(type=ZoningChanged)", 5},
                   }));

  must(db.AddEntry("cpu-saturation", RootCauseType::kCpuSaturation,
                   {
                       {"cpu_high()", 45},
                       {"op_anomaly_exists()", 20},
                       {"no_plan_change()", 15},
                       {"not record_count_change()", 10},
                       {"not lock_wait_high()", 10},
                   }));

  // Scenario F1's root cause: an HBA died, the multipath driver failed I/O
  // over to the surviving fabric, and the now-overloaded path congests. The
  // application never saw the failure — only the slowdown.
  must(db.AddEntry("hba-failure", RootCauseType::kHbaFailure,
                   {
                       {"event(type=HbaFailed)", 40},
                       {"event(type=PathFailover)", 25},
                       {"before(event(type=HbaFailed), "
                        "event(type=VolumePerfDegraded))",
                        15},
                       {"op_anomaly_exists()", 10},
                       {"no_plan_change()", 10},
                   }));

  // Scenario F2's root cause: one path of a multipath set degraded (bad
  // SFP, CRC retries) but kept routing, so half the I/O crawls through a
  // throttled port while the driver keeps round-robining onto it.
  must(db.AddEntry("multipath-imbalance",
                   RootCauseType::kMultipathImbalance,
                   {
                       {"event(type=PortDegraded)", 62},
                       {"before(event(type=PortDegraded), "
                        "event(type=VolumePerfDegraded))",
                        16},
                       {"fabric_component_anomalous()", 14},
                       {"op_anomaly_exists()", 8},
                   }));

  // Scenario F4's root cause: timeouts spawn retries which deepen the queue
  // which spawns more timeouts — the snowball. The retry-storm trigger
  // always fires *after* the first latency degradation it amplifies.
  must(db.AddEntry(
      "retry-storm", RootCauseType::kRetryStorm,
      {
          {"event_near(type=RetryStormDetected, volume=$V)", 45},
          {"before(event(type=VolumePerfDegraded), "
           "event(type=RetryStormDetected))",
           35},
          {"volume_metric_anomaly(volume=$V)", 10},
          {"op_anomaly_majority(volume=$V)", 10},
      }));

  // Scenario C1's root cause (columnar engine): churny DML degraded the
  // segment compression ratio, so every scan of the table reads more pages
  // for the same logical rows. The engine's churn monitor logs the drift;
  // the bulk of the weight is gated on that event so the entry stays below
  // the report floor on engines that have no segments at all.
  must(db.AddEntry(
      "compression-ratio-drift", RootCauseType::kCompressionRatioDrift,
      {
          {"event(type=CompressionRatioDrifted)", 40},
          {"event(type=CompressionRatioDrifted) and no_plan_change()", 15},
          {"event(type=CompressionRatioDrifted) and "
           "not record_count_change()",
           15},
          {"event(type=CompressionRatioDrifted) and db_blocks_read_high()",
           10},
          {"op_anomaly_exists()", 12},
          {"db_blocks_read_high()", 8},
      }));

  // Scenario C2's root cause (columnar engine): stale zone maps stop
  // pruning, so zone-pruned scans — and only those — read segments they
  // should skip. Gated the same way as C1; the two are distinguished by
  // which engine event fired, exactly as a DBA would tell them apart.
  must(db.AddEntry(
      "zone-map-staleness", RootCauseType::kZoneMapStaleness,
      {
          {"event(type=ZoneMapStale)", 40},
          {"event(type=ZoneMapStale) and no_plan_change()", 15},
          {"event(type=ZoneMapStale) and not record_count_change()", 15},
          {"event(type=ZoneMapStale) and db_blocks_read_high()", 10},
          {"op_anomaly_exists()", 12},
          {"db_blocks_read_high()", 8},
      }));
  return db;
}

namespace {

/// Subject of a cause instance, by its type's subject rule.
ComponentId CauseSubject(const RootCauseEntry& entry, ComponentId bound_volume,
                         const DiagnosisContext& ctx, const CrResult& cr) {
  const RootCauseTraits& traits = GetRootCauseTraits(entry.type);
  switch (traits.subject) {
    case SubjectRule::kBoundVolume:
      return bound_volume;
    case SubjectRule::kCrsTable: {
      // The table behind the highest-deviation CRS leaf.
      const RecordCountAnomaly* best = nullptr;
      for (const RecordCountAnomaly& a : cr.scores) {
        if (!cr.InCrs(a.op_index)) continue;
        if (!ctx.apg->plan().op(a.op_index).is_scan()) continue;
        if (best == nullptr || a.deviation_score > best->deviation_score) {
          best = &a;
        }
      }
      if (best != nullptr) {
        Result<const db::TableDef*> table =
            ctx.catalog->FindTable(ctx.apg->plan().op(best->op_index).table);
        if (table.ok()) return (*table)->id;
      }
      return ctx.database;
    }
    case SubjectRule::kFirstEvent: {
      const std::vector<SystemEvent> events = ctx.events->EventsOfTypeIn(
          traits.subject_event, ctx.AnalysisWindow());
      if (!events.empty()) return events.front().subject;
      return ctx.database;
    }
    case SubjectRule::kDatabase:
      break;
  }
  return ctx.database;
}

}  // namespace

Result<std::vector<RootCause>> RunSymptomsDatabase(
    const DiagnosisContext& ctx, const WorkflowConfig& config,
    const PdResult& pd, const CoResult& co, const DaResult& da,
    const CrResult& cr, const SymptomsDb& db) {
  // Candidate volume bindings: the plan's volumes plus their disk-sharers
  // (a misconfigured sharer can be the subject even though no operator
  // reads it directly; the *affected* volume is what entries bind).
  std::set<ComponentId> bindings;
  for (ComponentId v : ctx.apg->PlanVolumes()) bindings.insert(v);

  // One set of precomputed lookup tables serves every entry evaluation:
  // entries x volume bindings x conditions otherwise rescans the DA
  // metrics and the event log per condition.
  const SymptomIndex index = SymptomIndex::Build(ctx, config, co, da);

  std::vector<RootCause> causes;
  for (const RootCauseEntry& entry : db.entries()) {
    std::vector<ComponentId> entry_bindings;
    if (entry.bind_volumes) {
      entry_bindings.assign(bindings.begin(), bindings.end());
    } else {
      entry_bindings.push_back(ComponentId{});
    }
    for (ComponentId binding : entry_bindings) {
      SymptomEvalContext eval;
      eval.ctx = &ctx;
      eval.config = &config;
      eval.pd = &pd;
      eval.co = &co;
      eval.da = &da;
      eval.cr = &cr;
      eval.bound_volume = binding;
      eval.index = &index;

      double confidence = 0;
      std::vector<std::string> fired;
      for (const Condition& condition : entry.conditions) {
        Result<bool> value = EvaluateSymptom(condition.parsed, eval);
        DIADS_RETURN_IF_ERROR(value.status());
        if (*value) {
          confidence += condition.weight;
          fired.push_back(StrFormat("%s (+%.0f)",
                                    condition.expr_text.c_str(),
                                    condition.weight));
        }
      }
      if (confidence < config.report_floor) continue;

      RootCause cause;
      cause.type = entry.type;
      cause.subject = CauseSubject(entry, binding, ctx, cr);
      cause.confidence = confidence;
      cause.band = confidence >= config.high_confidence
                       ? ConfidenceBand::kHigh
                       : (confidence >= config.medium_confidence
                              ? ConfidenceBand::kMedium
                              : ConfidenceBand::kLow);
      cause.explanation = Join(fired, "; ");
      causes.push_back(std::move(cause));
    }
  }

  // Dedup (type, subject) keeping the highest confidence, then sort.
  std::sort(causes.begin(), causes.end(),
            [](const RootCause& a, const RootCause& b) {
              if (a.type != b.type) return a.type < b.type;
              if (!(a.subject == b.subject)) return a.subject < b.subject;
              return a.confidence > b.confidence;
            });
  std::vector<RootCause> deduped;
  for (RootCause& cause : causes) {
    if (!deduped.empty() && deduped.back().type == cause.type &&
        deduped.back().subject == cause.subject) {
      continue;
    }
    deduped.push_back(std::move(cause));
  }
  std::sort(deduped.begin(), deduped.end(),
            [](const RootCause& a, const RootCause& b) {
              return a.confidence > b.confidence;
            });
  return deduped;
}

std::string RenderSdResult(const DiagnosisContext& ctx,
                           const std::vector<RootCause>& causes) {
  const ComponentRegistry& registry = ctx.topology->registry();
  TablePrinter table({"Root cause", "Subject", "Confidence", "Band"});
  for (const RootCause& cause : causes) {
    table.AddRow({RootCauseTypeName(cause.type),
                  registry.Contains(cause.subject)
                      ? registry.NameOf(cause.subject)
                      : "-",
                  FormatDouble(cause.confidence, 0) + "%",
                  ConfidenceBandName(cause.band)});
  }
  return StrFormat("=== Module SD: symptoms database (%zu candidates) ===\n",
                   causes.size()) +
         table.Render();
}

}  // namespace diads::diag
