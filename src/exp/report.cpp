#include "exp/report.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/numeric.h"

namespace chronos::exp {

namespace {

/// Shortest round-trip decimal form; used everywhere a number is emitted so
/// output bytes depend only on the value — never on the global locale
/// (std::to_chars underneath, which always emits '.').
std::string fmt_num(double v) { return numeric::format_double(v); }

std::string fmt_fixed(double v, int precision) {
  return numeric::format_double_fixed(v, precision);
}

std::string mean_pm_ci(const MetricSummary& summary, int precision) {
  return fmt_fixed(summary.mean, precision) + " +- " +
         fmt_fixed(summary.ci95, precision);
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    return field;
  }
  std::string escaped = "\"";
  for (const char c : field) {
    if (c == '"') {
      escaped += '"';
    }
    escaped += c;
  }
  escaped += '"';
  return escaped;
}

std::string json_escape(const std::string& text) {
  std::string escaped;
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\t': escaped += "\\t"; break;
      case '\r': escaped += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char unicode[8];
          std::snprintf(unicode, sizeof(unicode), "\\u%04x",
                        static_cast<unsigned>(c));
          escaped += unicode;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

/// JSON has no inf/nan literals; emit them as strings.
std::string json_num(double v) {
  if (std::isinf(v) || std::isnan(v)) {
    std::string quoted = "\"";
    quoted += fmt_num(v);
    quoted += '"';
    return quoted;
  }
  return fmt_num(v);
}

/// Appends one ","-prefixed CSV field (sidesteps the GCC 12 -Wrestrict
/// false positive on std::string operator+ chains, PR105329).
void append_field(std::string& out, const std::string& field) {
  out += ',';
  out += field;
}

void append_metric_json(std::string& out, const char* name,
                        const MetricSummary& summary) {
  out += "\"";
  out += name;
  out += "\":{\"count\":" + std::to_string(summary.count);
  out += ",\"mean\":" + json_num(summary.mean);
  out += ",\"stddev\":" + json_num(summary.stddev);
  out += ",\"ci95\":" + json_num(summary.ci95);
  out += ",\"min\":" + json_num(summary.min);
  out += ",\"max\":" + json_num(summary.max);
  out += "}";
}

bool any_utility(const SweepResult& result) {
  return std::any_of(result.cells.begin(), result.cells.end(),
                     [](const CellResult& cell) {
                       return cell.aggregate.utility.count > 0;
                     });
}

}  // namespace

std::string Table::str() const {
  // Size the width table to the widest row so rows longer than the header
  // still render instead of indexing out of bounds.
  std::size_t columns = headers_.size();
  for (const auto& row : rows_) {
    columns = std::max(columns, row.size());
  }
  std::vector<std::size_t> widths(columns, 0);
  for (std::size_t c = 0; c < columns; ++c) {
    if (c < headers_.size()) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      if (c < row.size()) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
  }
  std::string out;
  const auto append_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      out += std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    out += '\n';
  };
  append_row(headers_);
  std::string rule;
  for (const auto w : widths) {
    rule += std::string(w + 2, '-');
  }
  out += rule;
  out += '\n';
  for (const auto& row : rows_) {
    append_row(row);
  }
  return out;
}

std::string to_csv(const SweepResult& result) {
  std::string out = "policy";
  for (const auto& axis : result.axis_names) {
    append_field(out, csv_escape(axis));
  }
  out +=
      ",replications,pocd_mean,pocd_ci95,cost_mean,cost_ci95,"
      "machine_time_mean,machine_time_ci95,r_mean,r_ci95,"
      "utility_mean,utility_ci95,attempts_launched,attempts_killed,"
      "attempts_failed\n";
  for (const CellResult& cell : result.cells) {
    out += csv_escape(cell.policy_name);
    for (const AxisValue& coordinate : cell.point.coordinates) {
      append_field(out, csv_escape(coordinate.label));
    }
    const CellAggregate& agg = cell.aggregate;
    append_field(out, std::to_string(agg.runs));
    append_field(out, fmt_num(agg.pocd.mean));
    append_field(out, fmt_num(agg.pocd.ci95));
    append_field(out, fmt_num(agg.cost.mean));
    append_field(out, fmt_num(agg.cost.ci95));
    append_field(out, fmt_num(agg.machine_time.mean));
    append_field(out, fmt_num(agg.machine_time.ci95));
    append_field(out, fmt_num(agg.mean_r.mean));
    append_field(out, fmt_num(agg.mean_r.ci95));
    if (agg.utility.count > 0) {
      append_field(out, fmt_num(agg.utility.mean));
      append_field(out, fmt_num(agg.utility.ci95));
    } else {
      out += ",,";
    }
    append_field(out, std::to_string(agg.attempts_launched));
    append_field(out, std::to_string(agg.attempts_killed));
    append_field(out, std::to_string(agg.attempts_failed));
    out += '\n';
  }
  return out;
}

std::string to_json(const SweepResult& result) {
  std::string out = "{\"name\":\"" + json_escape(result.name) + "\"";
  out += ",\"replications\":" + std::to_string(result.replications);
  out += ",\"axes\":[";
  for (std::size_t a = 0; a < result.axis_names.size(); ++a) {
    out += a == 0 ? "\"" : ",\"";
    out += json_escape(result.axis_names[a]) + "\"";
  }
  out += "],\"cells\":[";
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellResult& cell = result.cells[c];
    out += c == 0 ? "{" : ",{";
    out += "\"policy\":\"" + json_escape(cell.policy_name) + "\"";
    out += ",\"point\":{";
    for (std::size_t a = 0; a < cell.point.coordinates.size(); ++a) {
      const AxisValue& coordinate = cell.point.coordinates[a];
      out += a == 0 ? "\"" : ",\"";
      out += json_escape(coordinate.name) + "\":" + json_num(coordinate.value);
    }
    // Labels carry the display text of categorical axes (e.g. benchmark
    // names behind index values); the CSV emitter uses them as the cell
    // value, so the JSON must not lose them.
    out += "},\"point_labels\":{";
    for (std::size_t a = 0; a < cell.point.coordinates.size(); ++a) {
      const AxisValue& coordinate = cell.point.coordinates[a];
      out += a == 0 ? "\"" : ",\"";
      out += json_escape(coordinate.name) + "\":\"" +
             json_escape(coordinate.label) + "\"";
    }
    out += "},";
    append_metric_json(out, "pocd", cell.aggregate.pocd);
    out += ",";
    append_metric_json(out, "cost", cell.aggregate.cost);
    out += ",";
    append_metric_json(out, "machine_time", cell.aggregate.machine_time);
    out += ",";
    append_metric_json(out, "mean_r", cell.aggregate.mean_r);
    if (cell.aggregate.utility.count > 0) {
      out += ",";
      append_metric_json(out, "utility", cell.aggregate.utility);
    }
    out += ",\"runs\":" + std::to_string(cell.aggregate.runs);
    out += ",\"jobs\":" + std::to_string(cell.aggregate.jobs);
    out += ",\"attempts_launched\":" +
           std::to_string(cell.aggregate.attempts_launched);
    out += ",\"attempts_killed\":" +
           std::to_string(cell.aggregate.attempts_killed);
    out += ",\"attempts_failed\":" +
           std::to_string(cell.aggregate.attempts_failed);
    out += ",\"events_executed\":" +
           std::to_string(cell.aggregate.events_executed);
    out += "}";
  }
  out += "]}";
  return out;
}

Table to_table(const SweepResult& result) {
  const bool with_utility = any_utility(result);
  std::vector<std::string> headers = {"Strategy"};
  for (const auto& axis : result.axis_names) {
    headers.push_back(axis);
  }
  headers.insert(headers.end(), {"PoCD", "Cost", "Machine-s", "mean r"});
  if (with_utility) {
    headers.push_back("Utility");
  }
  Table table(std::move(headers));
  for (const CellResult& cell : result.cells) {
    std::vector<std::string> row = {cell.policy_name};
    for (const AxisValue& coordinate : cell.point.coordinates) {
      row.push_back(coordinate.label);
    }
    const CellAggregate& agg = cell.aggregate;
    row.push_back(mean_pm_ci(agg.pocd, 3));
    row.push_back(mean_pm_ci(agg.cost, 1));
    row.push_back(mean_pm_ci(agg.machine_time, 1));
    row.push_back(fmt_fixed(agg.mean_r.mean, 2));
    if (with_utility) {
      row.push_back(agg.utility.count > 0 ? mean_pm_ci(agg.utility, 3)
                                          : "-");
    }
    table.add_row(row);
  }
  return table;
}

void write_file(const std::string& path, const std::string& content) {
  // Unlink, then create: truncating a file whose blocks are still delayed-
  // allocated makes ext4 (auto_da_alloc) and XFS force them to disk on
  // close, and so does renaming over it. Only a regular file is unlinked.
  struct stat info;
  if (::lstat(path.c_str(), &info) == 0 && S_ISREG(info.st_mode)) {
    std::remove(path.c_str());
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  CHRONOS_EXPECTS(file != nullptr, "cannot open '" + path + "' for writing");
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  const int close_status = std::fclose(file);
  CHRONOS_EXPECTS(written == content.size() && close_status == 0,
                  "short write to '" + path + "'");
}

}  // namespace chronos::exp
