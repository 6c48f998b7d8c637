#include "db/run_record.h"

#include <algorithm>

#include "common/strings.h"

namespace diads::db {

const char* RunLabelName(RunLabel label) {
  switch (label) {
    case RunLabel::kUnlabeled:
      return "unlabeled";
    case RunLabel::kSatisfactory:
      return "satisfactory";
    case RunLabel::kUnsatisfactory:
      return "unsatisfactory";
  }
  return "?";
}

const OperatorRunStats* QueryRunRecord::FindOp(int op_index) const {
  for (const OperatorRunStats& s : operators) {
    if (s.op_index == op_index) return &s;
  }
  return nullptr;
}

int RunCatalog::AddRun(QueryRunRecord record) {
  record.run_id = static_cast<int>(runs_.size());
  runs_.push_back(std::move(record));
  labels_.push_back(RunLabel::kUnlabeled);
  return runs_.back().run_id;
}

template <typename NewLabel>
void RunCatalog::Relabel(const std::string& query, NewLabel new_label) {
  TimeInterval window{0, 0};
  bool labelled = false;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].query_name != query) continue;
    labels_[i] = new_label(i, labels_[i]);
    if (labels_[i] == RunLabel::kUnlabeled) continue;
    const TimeInterval& run = runs_[i].interval;
    if (!labelled) {
      window = run;
      labelled = true;
    } else {
      window.begin = std::min(window.begin, run.begin);
      window.end = std::max(window.end, run.end);
    }
  }
  if (labelled) {
    windows_[query] = window;
  } else {
    windows_.erase(query);
  }
}

Status RunCatalog::SetLabel(int run_id, RunLabel label) {
  if (run_id < 0 || run_id >= static_cast<int>(runs_.size())) {
    return Status::NotFound(StrFormat("no run with id %d", run_id));
  }
  const size_t target = static_cast<size_t>(run_id);
  Relabel(runs_[target].query_name, [&](size_t i, RunLabel old) {
    return i == target ? label : old;
  });
  return Status::Ok();
}

Status RunCatalog::LabelByDurationThreshold(const std::string& query,
                                            SimTimeMs threshold_ms) {
  if (threshold_ms <= 0) {
    return Status::InvalidArgument("threshold must be positive");
  }
  Relabel(query, [&](size_t i, RunLabel) {
    return runs_[i].duration_ms() > threshold_ms ? RunLabel::kUnsatisfactory
                                                 : RunLabel::kSatisfactory;
  });
  return Status::Ok();
}

Status RunCatalog::LabelByTimeWindow(const std::string& query,
                                     const TimeInterval& window,
                                     RunLabel label) {
  if (window.empty()) {
    return Status::InvalidArgument("labeling window is empty");
  }
  Relabel(query, [&](size_t i, RunLabel old) {
    return window.Contains(runs_[i].interval.begin) ? label : old;
  });
  return Status::Ok();
}

Result<const QueryRunRecord*> RunCatalog::FindRun(int run_id) const {
  if (run_id < 0 || run_id >= static_cast<int>(runs_.size())) {
    return Status::NotFound(StrFormat("no run with id %d", run_id));
  }
  return &runs_[static_cast<size_t>(run_id)];
}

RunLabel RunCatalog::LabelOf(int run_id) const {
  if (run_id < 0 || run_id >= static_cast<int>(labels_.size())) {
    return RunLabel::kUnlabeled;
  }
  return labels_[static_cast<size_t>(run_id)];
}

TimeInterval RunCatalog::LabelledWindow(const std::string& query) const {
  auto it = windows_.find(query);
  return it == windows_.end() ? TimeInterval{0, 0} : it->second;
}

std::vector<const QueryRunRecord*> RunCatalog::RunsWithLabel(
    const std::string& query, RunLabel label) const {
  std::vector<const QueryRunRecord*> out;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].query_name == query && labels_[i] == label) {
      out.push_back(&runs_[i]);
    }
  }
  return out;
}

}  // namespace diads::db
