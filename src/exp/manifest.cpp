#include "exp/manifest.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <memory>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <cmath>

#include "common/error.h"
#include "common/numeric.h"
#include "sim/open_system.h"
#include "trace/planner.h"
#include "trace/spot_price.h"

namespace chronos::exp {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  CHRONOS_EXPECTS(false,
                  "manifest line " + std::to_string(line) + ": " + message);
}

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

/// Strips a '#' comment that sits outside double quotes.
std::string strip_inline_comment(const std::string& text) {
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      quoted = !quoted;
    } else if (text[i] == '#' && !quoted) {
      return text.substr(0, i);
    }
  }
  return text;
}

struct IniEntry {
  std::string value;
  int line = 0;
  bool used = false;
};

struct IniSection {
  std::string name;
  int line = 0;
  std::vector<std::pair<std::string, IniEntry>> entries;  ///< in file order
  bool known = false;  ///< a reader claimed this section name
};

std::vector<IniSection> parse_ini(const std::string& text) {
  std::vector<IniSection> sections;
  int line_number = 0;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t end = text.find('\n', at);
    std::string raw = text.substr(
        at, end == std::string::npos ? std::string::npos : end - at);
    at = end == std::string::npos ? text.size() + 1 : end + 1;
    ++line_number;

    std::string line = trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == ';') {
      continue;
    }
    line = trim(strip_inline_comment(line));
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        fail(line_number, "malformed section header '" + line + "'");
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) {
        fail(line_number, "empty section name");
      }
      for (const IniSection& section : sections) {
        if (section.name == name) {
          fail(line_number, "duplicate section [" + name + "]");
        }
      }
      IniSection section;
      section.name = name;
      section.line = line_number;
      sections.push_back(std::move(section));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(line_number, "expected 'key = value', got '" + line + "'");
    }
    if (sections.empty()) {
      fail(line_number, "key outside any [section]");
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) {
      fail(line_number, "empty key");
    }
    IniSection& section = sections.back();
    for (const auto& [existing, entry] : section.entries) {
      if (existing == key) {
        fail(line_number, "duplicate key '" + key + "' in [" +
                              section.name + "] (first on line " +
                              std::to_string(entry.line) + ")");
      }
    }
    IniEntry entry;
    entry.value = trim(line.substr(eq + 1));
    entry.line = line_number;
    section.entries.emplace_back(key, std::move(entry));
  }
  return sections;
}

/// Comma-separated list; double quotes protect commas inside an item.
std::vector<std::string> split_list(const std::string& value, int line) {
  std::vector<std::string> items;
  std::string current;
  bool quoted = false;
  bool had_quotes = false;
  const auto push = [&] {
    const std::string item = had_quotes ? current : trim(current);
    if (item.empty() && !had_quotes) {
      fail(line, "empty list item");
    }
    items.push_back(item);
    current.clear();
    had_quotes = false;
  };
  for (const char c : value) {
    if (c == '"') {
      if (had_quotes && !quoted) {
        fail(line, "unexpected text after closing quote in list");
      }
      quoted = !quoted;
      had_quotes = true;
    } else if (c == ',' && !quoted) {
      push();
    } else if (!had_quotes || quoted) {
      current += c;
    } else if (c != ' ' && c != '\t') {
      // Silently dropping stray characters would hide typos; every other
      // manifest mistake fails loudly, so this one does too.
      fail(line, "unexpected text after closing quote in list");
    }
  }
  if (quoted) {
    fail(line, "unterminated quote in list");
  }
  if (!trim(current).empty() || had_quotes) {
    push();
  }
  if (items.empty()) {
    fail(line, "empty list");
  }
  return items;
}

/// Typed, used-marking view over one section.
class SectionReader {
 public:
  explicit SectionReader(IniSection* section) : section_(section) {
    if (section_ != nullptr) {
      section_->known = true;
    }
  }

  bool present() const { return section_ != nullptr; }

  IniEntry* find(const std::string& key) const {
    if (section_ == nullptr) {
      return nullptr;
    }
    for (auto& [name, entry] : section_->entries) {
      if (name == key) {
        entry.used = true;
        return &entry;
      }
    }
    return nullptr;
  }

  const IniEntry& require(const std::string& key) const {
    IniEntry* entry = find(key);
    if (entry == nullptr) {
      // Built by append rather than operator+ chains: GCC 12 -Wrestrict
      // false positive (PR105329).
      std::string message = "[";
      message += section_ == nullptr ? std::string("?") : section_->name;
      message += "] is missing required key '";
      message += key;
      message += "'";
      fail(section_ == nullptr ? 0 : section_->line, message);
    }
    return *entry;
  }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    const IniEntry* entry = find(key);
    return entry == nullptr ? fallback : entry->value;
  }

  double get_double(const std::string& key, double fallback) const {
    const IniEntry* entry = find(key);
    if (entry == nullptr) {
      return fallback;
    }
    double parsed = 0.0;
    if (!numeric::parse_double(entry->value, parsed)) {
      fail(entry->line, "'" + entry->value + "' is not a number");
    }
    return parsed;
  }

  /// Exact integer parse (from_chars, never via double: a double round
  /// trip would silently round values above 2^53).
  long long get_int(const std::string& key, long long fallback) const {
    const IniEntry* entry = find(key);
    if (entry == nullptr) {
      return fallback;
    }
    std::string_view text = entry->value;
    if (!text.empty() && text.front() == '+') {
      text.remove_prefix(1);
    }
    long long parsed = 0;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (text.empty() || result.ec != std::errc() ||
        result.ptr != text.data() + text.size()) {
      fail(entry->line, "'" + entry->value + "' is not an integer");
    }
    return parsed;
  }

  /// Exact unsigned parse for 64-bit seeds; rejects negatives.
  std::uint64_t get_uint64(const std::string& key,
                           std::uint64_t fallback) const {
    const IniEntry* entry = find(key);
    if (entry == nullptr) {
      return fallback;
    }
    std::string_view text = entry->value;
    if (!text.empty() && text.front() == '+') {
      text.remove_prefix(1);
    }
    std::uint64_t parsed = 0;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (text.empty() || result.ec != std::errc() ||
        result.ptr != text.data() + text.size()) {
      fail(entry->line,
           "'" + entry->value + "' is not an unsigned integer");
    }
    return parsed;
  }

  bool get_bool(const std::string& key, bool fallback) const {
    const IniEntry* entry = find(key);
    if (entry == nullptr) {
      return fallback;
    }
    const std::string& v = entry->value;
    if (v == "on" || v == "true" || v == "yes" || v == "1") {
      return true;
    }
    if (v == "off" || v == "false" || v == "no" || v == "0") {
      return false;
    }
    fail(entry->line, "'" + v + "' is not a boolean (on/off/true/false)");
  }

 private:
  IniSection* section_;
};

IniSection* find_section(std::vector<IniSection>& sections,
                         const std::string& name) {
  for (IniSection& section : sections) {
    if (section.name == name) {
      return &section;
    }
  }
  return nullptr;
}

/// "@axis" -> binding to that axis; anything else must be a number.
Binding parse_binding(const IniEntry& entry, const SweepSpec& spec) {
  Binding binding;
  if (!entry.value.empty() && entry.value.front() == '@') {
    binding.axis = entry.value.substr(1);
    const bool known =
        std::any_of(spec.axes.begin(), spec.axes.end(),
                    [&](const Axis& a) { return a.name == binding.axis; });
    if (!known) {
      fail(entry.line, "'" + entry.value + "' binds to an axis that does "
                       "not exist");
    }
    return binding;
  }
  if (!numeric::parse_double(entry.value, binding.fixed)) {
    fail(entry.line,
         "'" + entry.value + "' is neither a number nor an '@axis' binding");
  }
  return binding;
}

std::optional<Binding> optional_binding(const SectionReader& reader,
                                        const std::string& key,
                                        const SweepSpec& spec) {
  const IniEntry* entry = reader.find(key);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return parse_binding(*entry, spec);
}

double mean_baseline_pocd(const std::vector<trace::TracedJob>& jobs) {
  double sum = 0.0;
  for (const auto& job : jobs) {
    sum += trace::baseline_pocd(job.spec.stage(0), job.spec.deadline);
  }
  return sum / static_cast<double>(jobs.size());
}

/// Resolves the manifest's [stage.N] templates against one cell's axis
/// coordinates into concrete StageSpecs for TraceConfig::extra_stages.
std::vector<mapreduce::StageSpec> resolve_stages(
    const std::vector<ManifestStage>& stages, const SweepPoint& point) {
  std::vector<mapreduce::StageSpec> resolved;
  resolved.reserve(stages.size());
  for (const ManifestStage& stage : stages) {
    mapreduce::StageSpec st;
    const long long tasks = std::llround(stage.tasks.resolve(point));
    CHRONOS_EXPECTS(tasks >= 1 && tasks <= (1 << 20),
                    "stage tasks must resolve to [1, 2^20]");
    st.num_tasks = static_cast<int>(tasks);
    st.t_min = stage.t_min.resolve(point);
    st.beta = stage.beta.resolve(point);
    st.deps = stage.deps;
    resolved.push_back(std::move(st));
  }
  return resolved;
}

/// One cell's trace template: [trace] with its beta and deadline-factor
/// bindings and the [stage.N] templates resolved at the cell's point.
trace::TraceConfig resolve_trace(const Manifest& m, const SweepPoint& point) {
  trace::TraceConfig config = m.trace;
  if (m.trace_beta.has_value()) {
    const double beta = m.trace_beta->resolve(point);
    config.beta_lo = beta;
    config.beta_hi = beta;
  }
  if (m.trace_deadline_factor.has_value()) {
    const double factor = m.trace_deadline_factor->resolve(point);
    config.deadline_factor_lo = factor;
    config.deadline_factor_hi = factor;
  }
  config.extra_stages = resolve_stages(m.stages, point);
  return config;
}

/// One cell's planner knobs: theta and the tau factors resolved at the
/// cell's point.
trace::PlannerConfig resolve_planner(const Manifest& m,
                                     const SweepPoint& point) {
  trace::PlannerConfig planner;
  planner.theta = m.planner_theta.resolve(point);
  if (m.planner_tau_est_factor.has_value()) {
    planner.tau_est_factor = m.planner_tau_est_factor->resolve(point);
  }
  if (m.planner_tau_kill_factor.has_value()) {
    planner.tau_kill_factor = m.planner_tau_kill_factor->resolve(point);
  }
  return planner;
}

}  // namespace

Manifest parse_manifest(const std::string& text) {
  std::vector<IniSection> sections = parse_ini(text);
  Manifest manifest;

  // [sweep] and the [axis.*] sections fix the grid; bindings in later
  // sections are validated against the axis names collected here.
  IniSection* sweep_section = find_section(sections, "sweep");
  if (sweep_section == nullptr) {
    fail(1, "missing required [sweep] section");
  }
  {
    const SectionReader sweep(sweep_section);
    manifest.spec.name = sweep.get_string("name", "sweep");
    const IniEntry& policies = sweep.require("policies");
    for (const std::string& name : split_list(policies.value, policies.line)) {
      const auto policy = strategies::policy_from_name(name);
      if (!policy.has_value()) {
        fail(policies.line, "unknown policy '" + name + "'");
      }
      manifest.spec.policies.push_back(*policy);
    }
    manifest.spec.replications =
        static_cast<int>(sweep.get_int("replications", 1));
    manifest.spec.seed = sweep.get_uint64("seed", 1);
  }

  for (IniSection& section : sections) {
    if (section.name.rfind("axis.", 0) != 0) {
      continue;
    }
    const SectionReader reader(&section);
    Axis axis;
    axis.name = section.name.substr(5);
    if (axis.name.empty()) {
      fail(section.line, "axis section needs a name: [axis.<name>]");
    }
    const IniEntry& values = reader.require("values");
    for (const std::string& item : split_list(values.value, values.line)) {
      double parsed = 0.0;
      if (!numeric::parse_double(item, parsed)) {
        fail(values.line, "axis value '" + item + "' is not a number");
      }
      axis.values.push_back(parsed);
    }
    if (const IniEntry* labels = reader.find("labels")) {
      axis.labels = split_list(labels->value, labels->line);
      if (axis.labels.size() != axis.values.size()) {
        fail(labels->line, "axis has " + std::to_string(axis.values.size()) +
                               " values but " +
                               std::to_string(axis.labels.size()) +
                               " labels");
      }
    }
    manifest.spec.axes.push_back(std::move(axis));
  }

  {
    const SectionReader adaptive(find_section(sections, "adaptive"));
    if (adaptive.present()) {
      manifest.spec.adaptive.metric =
          adaptive.get_string("metric", "pocd");
      manifest.spec.adaptive.target_ci95 =
          adaptive.get_double("target_ci95", 0.0);
      manifest.spec.adaptive.batch =
          static_cast<int>(adaptive.get_int("batch", 1));
      adaptive.require("max_replications");
      manifest.spec.adaptive.max_replications =
          static_cast<int>(adaptive.get_int("max_replications", 0));
    }
  }

  {
    const SectionReader reader(find_section(sections, "trace"));
    trace::TraceConfig& config = manifest.trace;
    config.num_jobs =
        static_cast<int>(reader.get_int("num_jobs", config.num_jobs));
    config.duration_hours =
        reader.get_double("duration_hours", config.duration_hours);
    config.mean_tasks = reader.get_double("mean_tasks", config.mean_tasks);
    config.tasks_log_sigma =
        reader.get_double("tasks_log_sigma", config.tasks_log_sigma);
    config.min_tasks =
        static_cast<int>(reader.get_int("min_tasks", config.min_tasks));
    config.max_tasks =
        static_cast<int>(reader.get_int("max_tasks", config.max_tasks));
    config.t_min_lo = reader.get_double("t_min_lo", config.t_min_lo);
    config.t_min_hi = reader.get_double("t_min_hi", config.t_min_hi);
    config.beta_lo = reader.get_double("beta_lo", config.beta_lo);
    config.beta_hi = reader.get_double("beta_hi", config.beta_hi);
    config.deadline_factor_lo =
        reader.get_double("deadline_factor_lo", config.deadline_factor_lo);
    config.deadline_factor_hi =
        reader.get_double("deadline_factor_hi", config.deadline_factor_hi);
    config.jvm_mean = reader.get_double("jvm_mean", config.jvm_mean);
    config.jvm_jitter = reader.get_double("jvm_jitter", config.jvm_jitter);
    config.seed = reader.get_uint64("seed", config.seed);
    manifest.trace_beta = optional_binding(reader, "beta", manifest.spec);
    manifest.trace_deadline_factor =
        optional_binding(reader, "deadline_factor", manifest.spec);
  }

  // [stage.N] templates: N must run 1, 2, ... without gaps (stage 0 is the
  // sampled root stage and has no section).
  {
    int next = 1;
    for (IniSection& section : sections) {
      if (section.name.rfind("stage.", 0) != 0) {
        continue;
      }
      const std::string suffix = section.name.substr(6);
      int number = 0;
      const auto result = std::from_chars(
          suffix.data(), suffix.data() + suffix.size(), number);
      if (suffix.empty() || result.ec != std::errc() ||
          result.ptr != suffix.data() + suffix.size()) {
        fail(section.line, "stage section needs a number: [stage.<N>]");
      }
      if (number != next) {
        fail(section.line, "stage sections must be contiguous from 1: "
                           "expected [stage." + std::to_string(next) +
                           "], got [stage." + suffix + "]");
      }
      const SectionReader reader(&section);
      ManifestStage stage;
      stage.tasks = parse_binding(reader.require("tasks"), manifest.spec);
      if (!stage.tasks.bound() &&
          !(std::isfinite(stage.tasks.fixed) && stage.tasks.fixed >= 1.0)) {
        fail(section.line, "stage tasks must be >= 1");
      }
      stage.t_min = parse_binding(reader.require("t_min"), manifest.spec);
      if (!stage.t_min.bound() &&
          !(std::isfinite(stage.t_min.fixed) && stage.t_min.fixed > 0.0)) {
        fail(section.line, "stage t_min must be positive and finite");
      }
      stage.beta = parse_binding(reader.require("beta"), manifest.spec);
      if (!stage.beta.bound() &&
          !(std::isfinite(stage.beta.fixed) && stage.beta.fixed > 1.0)) {
        fail(section.line, "stage beta must exceed 1 (finite mean)");
      }
      if (const IniEntry* deps = reader.find("deps")) {
        for (const std::string& item : split_list(deps->value, deps->line)) {
          int dep = 0;
          const auto parsed = std::from_chars(
              item.data(), item.data() + item.size(), dep);
          if (item.empty() || parsed.ec != std::errc() ||
              parsed.ptr != item.data() + item.size()) {
            fail(deps->line, "stage dep '" + item + "' is not an integer");
          }
          if (dep < 0 || dep >= number) {
            fail(deps->line, "stage dep " + item + " must reference an "
                             "earlier stage (0.." +
                             std::to_string(number - 1) + ")");
          }
          if (std::find(stage.deps.begin(), stage.deps.end(), dep) !=
              stage.deps.end()) {
            fail(deps->line, "duplicate stage dep " + item);
          }
          stage.deps.push_back(dep);
        }
      }
      manifest.stages.push_back(std::move(stage));
      ++next;
    }
  }

  {
    const SectionReader reader(find_section(sections, "planner"));
    if (const auto theta = optional_binding(reader, "theta", manifest.spec)) {
      manifest.planner_theta = *theta;
    }
    manifest.planner_tau_est_factor =
        optional_binding(reader, "tau_est_factor", manifest.spec);
    manifest.planner_tau_kill_factor =
        optional_binding(reader, "tau_kill_factor", manifest.spec);
  }

  {
    const SectionReader reader(find_section(sections, "experiment"));
    const std::string cluster =
        reader.get_string("cluster", "large_scale");
    if (cluster == "testbed") {
      manifest.cluster_testbed = true;
    } else if (cluster != "large_scale") {
      const IniEntry* entry = reader.find("cluster");
      fail(entry != nullptr ? entry->line : 0,
           "cluster must be 'large_scale' or 'testbed', got '" + cluster +
               "'");
    }
    manifest.report_utility = reader.get_bool("utility", false);
    if (const IniEntry* r_min = reader.find("r_min")) {
      if (r_min->value == "baseline") {
        manifest.r_min_mode = RMinMode::kBaseline;
      } else if (numeric::parse_double(r_min->value,
                                       manifest.r_min_fixed)) {
        manifest.r_min_mode = RMinMode::kFixed;
      } else {
        fail(r_min->line, "r_min must be 'baseline' or a number, got '" +
                              r_min->value + "'");
      }
    }
    manifest.r_min_offset = reader.get_double("r_min_offset", 0.0);
  }

  {
    IniSection* section = find_section(sections, "arrivals");
    const SectionReader reader(section);
    if (reader.present()) {
      ManifestArrivals arrivals;
      const IniEntry* kind = reader.find("kind");
      const std::string kind_name =
          kind == nullptr ? "poisson" : kind->value;
      if (kind_name == "poisson") {
        arrivals.spec.kind = trace::ArrivalKind::kPoisson;
      } else if (kind_name == "diurnal") {
        arrivals.spec.kind = trace::ArrivalKind::kDiurnal;
      } else if (kind_name == "trace") {
        arrivals.spec.kind = trace::ArrivalKind::kTrace;
      } else {
        fail(kind->line, "arrivals kind must be poisson, diurnal or trace, "
                         "got '" + kind_name + "'");
      }
      if (arrivals.spec.kind == trace::ArrivalKind::kTrace) {
        const IniEntry& file = reader.require("file");
        arrivals.file = file.value;
        arrivals.spec.times = trace::load_arrival_times(file.value);
      } else {
        const IniEntry& rate = reader.require("rate");
        arrivals.rate = parse_binding(rate, manifest.spec);
        if (!arrivals.rate.bound() &&
            !(std::isfinite(arrivals.rate.fixed) &&
              arrivals.rate.fixed > 0.0)) {
          fail(rate.line, "arrival rate must be positive and finite");
        }
        arrivals.spec.rate = arrivals.rate.fixed;
      }
      arrivals.spec.amplitude =
          reader.get_double("amplitude", arrivals.spec.amplitude);
      arrivals.spec.period =
          reader.get_double("period_hours", arrivals.spec.period / 3600.0) *
          3600.0;
      arrivals.duration_hours =
          reader.get_double("duration_hours", arrivals.duration_hours);
      arrivals.warm_up_hours =
          reader.get_double("warm_up_hours", arrivals.warm_up_hours);
      if (!(std::isfinite(arrivals.duration_hours) &&
            arrivals.duration_hours > 0.0 &&
            std::isfinite(arrivals.warm_up_hours) &&
            arrivals.warm_up_hours >= 0.0 &&
            arrivals.warm_up_hours < arrivals.duration_hours)) {
        fail(section->line, "[arrivals] needs duration_hours > 0 and "
                            "warm_up_hours in [0, duration_hours)");
      }
      arrivals.drain = reader.get_bool("drain", true);
      const IniEntry* plan = reader.find("plan");
      const std::string plan_name = plan == nullptr ? "policy" : plan->value;
      if (plan_name == "auto") {
        arrivals.auto_strategy = true;
      } else if (plan_name != "policy") {
        fail(plan->line,
             "plan must be 'policy' or 'auto', got '" + plan_name + "'");
      }
      const IniEntry* plan_cache = reader.find("plan_cache");
      if (plan_cache != nullptr) {
        const std::string& value = plan_cache->value;
        if (value == "off") {
          arrivals.plan_cache.mode = serve::CacheMode::kOff;
        } else if (value == "exact") {
          arrivals.plan_cache.mode = serve::CacheMode::kExact;
        } else if (value.rfind("quantized:", 0) == 0) {
          arrivals.plan_cache.mode = serve::CacheMode::kQuantized;
          double grid = 0.0;
          if (!numeric::parse_double(value.substr(10), grid) ||
              !std::isfinite(grid) || grid <= 0.0) {
            fail(plan_cache->line,
                 "plan_cache quantization grid must be a positive number, "
                 "got '" + value.substr(10) + "'");
          }
          arrivals.plan_cache.grid = grid;
        } else {
          fail(plan_cache->line,
               "plan_cache must be off, exact or quantized:<grid>, got '" +
                   value + "'");
        }
      }
      arrivals.admission_enabled = reader.get_bool("admission", true);
      arrivals.degrade_headroom =
          reader.get_double("degrade_headroom", arrivals.degrade_headroom);
      arrivals.reject_queue_factor = reader.get_double(
          "reject_queue_factor", arrivals.reject_queue_factor);
      if (!(std::isfinite(arrivals.degrade_headroom) &&
            arrivals.degrade_headroom > 0.0 &&
            std::isfinite(arrivals.reject_queue_factor) &&
            arrivals.reject_queue_factor > 0.0)) {
        fail(section->line, "[arrivals] admission factors must be positive "
                            "and finite");
      }
      arrivals.nodes = optional_binding(reader, "nodes", manifest.spec);
      const long long containers = reader.get_int("containers", 8);
      if (containers < 1 || containers > 1 << 20) {
        fail(section->line, "containers must lie in [1, 2^20]");
      }
      arrivals.containers = static_cast<int>(containers);
      arrivals.slow_fraction =
          optional_binding(reader, "slow_fraction", manifest.spec);
      if (arrivals.slow_fraction.has_value()) {
        if (!arrivals.nodes.has_value()) {
          fail(section->line,
               "slow_fraction needs an explicit cluster: set nodes too");
        }
        if (!arrivals.slow_fraction->bound() &&
            !(std::isfinite(arrivals.slow_fraction->fixed) &&
              arrivals.slow_fraction->fixed >= 0.0 &&
              arrivals.slow_fraction->fixed <= 1.0)) {
          fail(section->line, "slow_fraction must lie in [0, 1]");
        }
      }
      arrivals.slow_speed =
          reader.get_double("slow_speed", arrivals.slow_speed);
      if (!(std::isfinite(arrivals.slow_speed) &&
            arrivals.slow_speed > 0.0)) {
        fail(section->line, "slow_speed must be positive and finite");
      }
      // Validate the non-rate fields now so a bad manifest fails at parse
      // time; a bound rate is validated per cell at run time.
      {
        trace::ArrivalSpec probe = arrivals.spec;
        if (probe.kind != trace::ArrivalKind::kTrace &&
            arrivals.rate.bound()) {
          probe.rate = 1.0;  // placeholder for the per-cell axis value
        }
        probe.validate();
      }
      manifest.arrivals = std::move(arrivals);
      if (manifest.report_utility &&
          manifest.r_min_mode == RMinMode::kBaseline) {
        fail(section->line,
             "[arrivals] sweeps need a numeric r_min: the baseline r_min "
             "is a property of a pre-generated closed-system trace");
      }
    }
  }

  {
    const SectionReader reader(find_section(sections, "output"));
    manifest.outputs.csv = reader.get_string("csv", "");
    manifest.outputs.json = reader.get_string("json", "");
    manifest.outputs.journal = reader.get_string("journal", "");
    manifest.outputs.table = reader.get_bool("table", true);
  }

  {
    const SectionReader reader(find_section(sections, "shard"));
    if (reader.present()) {
      const IniEntry& count = reader.require("count");
      // Range-checked before narrowing: a count beyond int must fail, not
      // silently wrap into a different (valid-looking) shard layout.
      const long long parsed = reader.get_int("count", 0);
      if (parsed < 1 || parsed > std::numeric_limits<int>::max()) {
        fail(count.line, "shard count must be >= 1, got '" + count.value +
                             "'");
      }
      manifest.shard.count = static_cast<int>(parsed);
      manifest.shard.dir = reader.get_string("dir", ".");
      if (manifest.shard.dir.empty()) {
        fail(reader.find("dir")->line, "shard dir must not be empty");
      }
    }
  }

  // Reject anything the readers above did not claim: a typoed key or
  // section must not be silently ignored.
  for (const IniSection& section : sections) {
    if (!section.known) {
      fail(section.line, "unknown section [" + section.name + "]");
    }
    for (const auto& [key, entry] : section.entries) {
      if (!entry.used) {
        fail(entry.line,
             "unknown key '" + key + "' in [" + section.name + "]");
      }
    }
  }

  manifest.spec.validate();
  manifest.trace.validate();
  return manifest;
}

Manifest load_manifest(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  CHRONOS_EXPECTS(file != nullptr, "cannot open manifest '" + path + "'");
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return parse_manifest(text);
}

std::string manifest_journal_salt(const Manifest& manifest) {
  std::string salt = "trace=";
  salt += std::to_string(manifest.trace.num_jobs);
  for (const double v :
       {manifest.trace.duration_hours, manifest.trace.mean_tasks,
        manifest.trace.tasks_log_sigma, manifest.trace.t_min_lo,
        manifest.trace.t_min_hi, manifest.trace.beta_lo,
        manifest.trace.beta_hi, manifest.trace.deadline_factor_lo,
        manifest.trace.deadline_factor_hi, manifest.trace.jvm_mean,
        manifest.trace.jvm_jitter}) {
    salt += ',';
    salt += numeric::format_double(v);
  }
  salt += ',';
  salt += std::to_string(manifest.trace.min_tasks);
  salt += ',';
  salt += std::to_string(manifest.trace.max_tasks);
  salt += ',';
  salt += std::to_string(manifest.trace.seed);
  const auto append_binding = [&salt](const char* name,
                                      const std::optional<Binding>& binding) {
    salt += ';';
    salt += name;
    salt += '=';
    if (!binding.has_value()) {
      salt += "unset";
    } else if (binding->bound()) {
      salt += '@';
      salt += binding->axis;
    } else {
      salt += numeric::format_double(binding->fixed);
    }
  };
  append_binding("beta", manifest.trace_beta);
  append_binding("deadline_factor", manifest.trace_deadline_factor);
  // Stage templates enter the fingerprint only when present: single-stage
  // manifests keep their historical salt (and thus their journals).
  const auto encode_binding = [](const Binding& binding) {
    return binding.bound() ? "@" + binding.axis
                           : numeric::format_double(binding.fixed);
  };
  for (std::size_t i = 0; i < manifest.stages.size(); ++i) {
    const ManifestStage& stage = manifest.stages[i];
    salt += ";stage";
    salt += std::to_string(i + 1);
    salt += '=';
    salt += encode_binding(stage.tasks);
    salt += ',';
    salt += encode_binding(stage.t_min);
    salt += ',';
    salt += encode_binding(stage.beta);
    salt += ",deps:";
    for (const int dep : stage.deps) {
      salt += std::to_string(dep);
      salt += '.';
    }
  }
  append_binding("theta", std::optional<Binding>(manifest.planner_theta));
  append_binding("tau_est_factor", manifest.planner_tau_est_factor);
  append_binding("tau_kill_factor", manifest.planner_tau_kill_factor);
  salt += ";experiment=";
  salt += manifest.cluster_testbed ? "testbed" : "large_scale";
  salt += manifest.report_utility ? ",utility" : ",no-utility";
  salt += ',';
  salt += manifest.r_min_mode == RMinMode::kBaseline
              ? "baseline"
              : numeric::format_double(manifest.r_min_fixed);
  salt += ',';
  salt += numeric::format_double(manifest.r_min_offset);
  if (manifest.arrivals.has_value()) {
    const ManifestArrivals& a = *manifest.arrivals;
    salt += ";arrivals=";
    switch (a.spec.kind) {
      case trace::ArrivalKind::kPoisson:
        salt += "poisson";
        break;
      case trace::ArrivalKind::kDiurnal:
        salt += "diurnal";
        break;
      case trace::ArrivalKind::kTrace:
        salt += "trace";
        break;
    }
    salt += ",rate=";
    if (a.rate.bound()) {
      salt += '@';
      salt += a.rate.axis;
    } else {
      salt += numeric::format_double(a.rate.fixed);
    }
    for (const double v :
         {a.spec.amplitude, a.spec.period, a.duration_hours,
          a.warm_up_hours, a.degrade_headroom, a.reject_queue_factor}) {
      salt += ',';
      salt += numeric::format_double(v);
    }
    salt += a.drain ? ",drain" : ",no-drain";
    salt += a.auto_strategy ? ",auto" : ",policy";
    salt += a.admission_enabled ? ",admission" : ",no-admission";
    salt += ",nodes=";
    if (!a.nodes.has_value()) {
      salt += "preset";
    } else if (a.nodes->bound()) {
      salt += '@';
      salt += a.nodes->axis;
    } else {
      salt += numeric::format_double(a.nodes->fixed);
    }
    salt += ',';
    salt += std::to_string(a.containers);
    // Speed classes enter the fingerprint only when set — like the plan
    // cache below, the homogeneous default keeps the historical salt.
    if (a.slow_fraction.has_value()) {
      salt += ",slow_fraction=";
      if (a.slow_fraction->bound()) {
        salt += '@';
        salt += a.slow_fraction->axis;
      } else {
        salt += numeric::format_double(a.slow_fraction->fixed);
      }
      salt += ",slow_speed=";
      salt += numeric::format_double(a.slow_speed);
    }
    // The plan cache enters the fingerprint only when it is on: off is the
    // historical behavior, so pre-existing journals stay valid.
    if (a.plan_cache.mode != serve::CacheMode::kOff) {
      salt += ",plan_cache=";
      if (a.plan_cache.mode == serve::CacheMode::kExact) {
        salt += "exact";
      } else {
        salt += "quantized:";
        salt += numeric::format_double(a.plan_cache.grid);
      }
    }
    // Trace-driven arrivals: fingerprint the loaded times (FNV-1a over
    // their canonical decimal forms), never the file path — editing the
    // file must invalidate the journal even when the path is unchanged.
    if (a.spec.kind == trace::ArrivalKind::kTrace) {
      std::uint64_t hash = 1469598103934665603ull;
      for (const double t : a.spec.times) {
        for (const char c : numeric::format_double(t)) {
          hash ^= static_cast<unsigned char>(c);
          hash *= 1099511628211ull;
        }
        hash ^= static_cast<unsigned char>(';');
        hash *= 1099511628211ull;
      }
      salt += ",times=";
      salt += std::to_string(a.spec.times.size());
      salt += ':';
      salt += std::to_string(hash);
    }
  }
  return salt;
}

SweepHooks make_hooks(const Manifest& manifest) {
  // The hooks own a copy: they stay valid after the caller's Manifest dies.
  const auto m = std::make_shared<const Manifest>(manifest);
  SweepHooks hooks;
  hooks.setup = [m](const SweepPoint& point) {
    if (m->arrivals.has_value()) {
      // Open-system cells sample jobs on the fly — nothing to pre-plan.
      SharedCell shared;
      if (m->report_utility) {
        shared.r_min = std::max(0.0, m->r_min_fixed + m->r_min_offset);
      }
      return shared;
    }
    auto jobs = generate_trace(resolve_trace(*m, point));

    SharedCell shared;
    if (m->report_utility) {
      const double base = m->r_min_mode == RMinMode::kBaseline
                              ? mean_baseline_pocd(jobs)
                              : m->r_min_fixed;
      shared.r_min = std::max(0.0, base + m->r_min_offset);
    }

    const trace::SpotPriceModel prices;
    plan_trace(jobs, point.policy, resolve_planner(*m, point), prices);
    shared.jobs = std::make_shared<const std::vector<trace::TracedJob>>(
        std::move(jobs));
    return shared;
  };
  hooks.run = [m](const SweepPoint& point, std::uint64_t seed,
                  const SharedCell& shared) {
    CellInstance instance;
    const trace::ExperimentConfig preset =
        m->cluster_testbed
            ? trace::ExperimentConfig::testbed(point.policy, seed)
            : trace::ExperimentConfig::large_scale(point.policy, seed);
    if (m->arrivals.has_value()) {
      const ManifestArrivals& a = *m->arrivals;
      auto open = std::make_shared<sim::OpenSystemConfig>();
      open->arrivals = a.spec;
      if (a.spec.kind != trace::ArrivalKind::kTrace) {
        open->arrivals.rate = a.rate.resolve(point);
      }
      open->workload = resolve_trace(*m, point);
      open->planner = resolve_planner(*m, point);
      open->plan_cache = a.plan_cache;
      open->admission.enabled = a.admission_enabled;
      open->admission.degrade_headroom = a.degrade_headroom;
      open->admission.reject_queue_factor = a.reject_queue_factor;
      if (a.nodes.has_value()) {
        const double resolved = a.nodes->resolve(point);
        const long long nodes = std::llround(resolved);
        CHRONOS_EXPECTS(nodes >= 1 && nodes <= (1 << 20),
                        "arrivals nodes must resolve to [1, 2^20]");
        sim::NodeConfig node;
        node.containers = a.containers;
        open->cluster =
            sim::ClusterConfig::uniform(static_cast<int>(nodes), node);
        if (a.slow_fraction.has_value()) {
          const double fraction = a.slow_fraction->resolve(point);
          CHRONOS_EXPECTS(
              std::isfinite(fraction) && fraction >= 0.0 && fraction <= 1.0,
              "slow_fraction must resolve to [0, 1]");
          const auto slow = static_cast<int>(
              std::llround(fraction * static_cast<double>(nodes)));
          for (int i = 0; i < slow; ++i) {
            open->cluster.nodes[static_cast<std::size_t>(i)].speed =
                a.slow_speed;
          }
        }
        open->scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
        open->scheduler.estimator = mapreduce::EstimatorKind::kChronos;
      } else {
        open->cluster = preset.cluster;
        open->scheduler = preset.scheduler;
      }
      open->policy = point.policy;
      open->auto_strategy = a.auto_strategy;
      open->duration = a.duration_hours * 3600.0;
      open->warm_up = a.warm_up_hours * 3600.0;
      open->drain = a.drain;
      open->seed = seed;
      instance.open_system = std::move(open);
    } else {
      instance.jobs = shared.jobs;
      instance.config = preset;
    }
    if (m->report_utility) {
      instance.report_utility = true;
      instance.theta = m->planner_theta.resolve(point);
      instance.r_min = shared.r_min;
    }
    return instance;
  };
  return hooks;
}

}  // namespace chronos::exp
