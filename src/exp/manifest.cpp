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

/// The one number parser for manifest values. Returns false on text that
/// is not a number, for the caller to report. from_chars also accepts
/// "nan" and "inf", which no manifest field means, so those fail here at
/// their line instead of mid-sweep or never (std::max(0.0, NaN) is 0).
bool parse_number(const std::string& text, int line, double& out) {
  if (!numeric::parse_double(text, out)) {
    return false;
  }
  if (!std::isfinite(out)) {
    fail(line, "'" + text + "' is not a finite number");
  }
  return true;
}

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
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

    // A '#' starts a comment anywhere on the line; ';' only at its start.
    const std::string line = trim(raw.substr(0, raw.find('#')));
    if (line.empty() || line.front() == ';') {
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

/// Comma-separated list of trimmed items; one trailing comma is allowed.
std::vector<std::string> split_list(const std::string& value, int line) {
  std::vector<std::string> items;
  std::size_t at = 0;
  for (std::size_t comma = value.find(','); comma != std::string::npos;
       at = comma + 1, comma = value.find(',', at)) {
    items.push_back(trim(value.substr(at, comma - at)));
    if (items.back().empty()) {
      fail(line, "empty list item");
    }
  }
  if (std::string last = trim(value.substr(at)); !last.empty()) {
    items.push_back(std::move(last));
  }
  if (items.empty()) {
    fail(line, "empty list");
  }
  return items;
}

IniSection* find_section(std::vector<IniSection>& sections,
                         const std::string& name) {
  for (IniSection& section : sections) {
    if (section.name == name) {
      return &section;
    }
  }
  return nullptr;
}

/// Exact integer parse (from_chars, never via double: a double round trip
/// would silently round values above 2^53); a leading '+' is accepted.
/// Returns invalid_argument for text that is not an integer and
/// result_out_of_range for one that overflows T.
template <typename T>
std::errc parse_integer(std::string_view text, T& out) {
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
  }
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (text.empty() || end != text.data() + text.size()) {
    return std::errc::invalid_argument;
  }
  return ec;
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
  if (!parse_number(entry.value, entry.line, binding.fixed)) {
    fail(entry.line,
         "'" + entry.value + "' is neither a number nor an '@axis' binding");
  }
  return binding;
}

/// Canonical salt form of a binding: "@axis" or the number.
std::string encode_binding(const Binding& binding) {
  return binding.bound() ? "@" + binding.axis
                         : numeric::format_double(binding.fixed);
}

/// Typed, used-marking view over one section. Over a cell-template section
/// it also writes the journal salt: every read appends
/// "section.key=<canonical value>" — the value the cell hooks will use,
/// the fallback when the key is absent — in the parser's fixed order, so
/// key order, comments and whitespace never change the salt while any
/// value (or code default) does.
class SectionReader {
 public:
  SectionReader(std::vector<IniSection>& sections, const std::string& name,
                std::string* salt = nullptr)
      : SectionReader(find_section(sections, name), name, salt) {}
  explicit SectionReader(IniSection& section, std::string* salt = nullptr)
      : SectionReader(&section, section.name, salt) {}

  bool present() const { return section_ != nullptr; }
  int line() const { return section_ == nullptr ? 0 : section_->line; }

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
      message += name_;
      message += "] is missing required key '";
      message += key;
      message += "'";
      fail(line(), message);
    }
    return *entry;
  }

  /// Appends "section.key=value" to the salt, if this reader keeps one.
  /// Keys with custom parsing call it with their resolved value.
  void record(const std::string& key, const std::string& value) const {
    if (salt_ != nullptr) {
      *salt_ += name_ + '.' + key + '=' + value + '\n';
    }
  }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const {
    const IniEntry* entry = find(key);
    std::string value = entry == nullptr ? fallback : entry->value;
    record(key, value);
    return value;
  }

  double get_double(const std::string& key, double fallback) const {
    const IniEntry* entry = find(key);
    double parsed = fallback;
    if (entry != nullptr && !parse_number(entry->value, entry->line, parsed)) {
      fail(entry->line, "'" + entry->value + "' is not a number");
    }
    record(key, numeric::format_double(parsed));
    return parsed;
  }

  /// Range-checked integer: a value outside [lo, hi] fails at its line
  /// instead of wrapping when narrowed.
  int get_int(const std::string& key, int fallback, int lo,
              int hi = std::numeric_limits<int>::max()) const {
    const IniEntry* entry = find(key);
    long long parsed = fallback;
    if (entry != nullptr) {
      const std::errc ec = parse_integer(entry->value, parsed);
      if (ec == std::errc::invalid_argument) {
        fail(entry->line, "'" + entry->value + "' is not an integer");
      }
      if (ec != std::errc() || parsed < lo || parsed > hi) {
        fail(entry->line, "[" + name_ + "] " + key + " must lie in [" +
                              std::to_string(lo) + ", " +
                              std::to_string(hi) + "], got '" +
                              entry->value + "'");
      }
    }
    record(key, std::to_string(parsed));
    return static_cast<int>(parsed);
  }

  /// 64-bit seeds; rejects negatives.
  std::uint64_t get_uint64(const std::string& key,
                           std::uint64_t fallback) const {
    const IniEntry* entry = find(key);
    std::uint64_t parsed = fallback;
    if (entry != nullptr &&
        parse_integer(entry->value, parsed) != std::errc()) {
      fail(entry->line, "'" + entry->value + "' is not an unsigned integer");
    }
    record(key, std::to_string(parsed));
    return parsed;
  }

  bool get_bool(const std::string& key, bool fallback) const {
    const IniEntry* entry = find(key);
    bool parsed = fallback;
    if (entry != nullptr) {
      const std::string& v = entry->value;
      if (v == "on" || v == "true" || v == "yes" || v == "1") {
        parsed = true;
      } else if (v == "off" || v == "false" || v == "no" || v == "0") {
        parsed = false;
      } else {
        fail(entry->line,
             "'" + v + "' is not a boolean (on/off/true/false)");
      }
    }
    record(key, parsed ? "on" : "off");
    return parsed;
  }

  /// "@axis" binds the key to that axis' value; anything else must be a
  /// number. An absent key records `absent` in the salt.
  std::optional<Binding> optional_binding(
      const std::string& key, const SweepSpec& spec,
      const std::string& absent = "unset") const {
    const IniEntry* entry = find(key);
    if (entry == nullptr) {
      record(key, absent);
      return std::nullopt;
    }
    const Binding binding = parse_binding(*entry, spec);
    record(key, encode_binding(binding));
    return binding;
  }

  Binding required_binding(const std::string& key,
                           const SweepSpec& spec) const {
    require(key);
    return *optional_binding(key, spec);
  }

 private:
  SectionReader(IniSection* section, std::string name, std::string* salt)
      : section_(section), name_(std::move(name)), salt_(salt) {
    if (section_ != nullptr) {
      section_->known = true;
    }
  }

  IniSection* section_;
  std::string name_;
  std::string* salt_;
};

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

  // [sweep], [axis.*] and [adaptive] fix the grid, which spec_fingerprint
  // covers; bindings in later sections are validated against the axis
  // names collected here.
  const SectionReader sweep(sections, "sweep");
  if (!sweep.present()) {
    fail(1, "missing required [sweep] section");
  }
  manifest.spec.name = sweep.get_string("name", "sweep");
  const IniEntry& policies = sweep.require("policies");
  for (const std::string& name : split_list(policies.value, policies.line)) {
    const auto policy = strategies::policy_from_name(name);
    if (!policy.has_value()) {
      fail(policies.line, "unknown policy '" + name + "'");
    }
    manifest.spec.policies.push_back(*policy);
  }
  manifest.spec.replications = sweep.get_int("replications", 1, 1);
  manifest.spec.seed = sweep.get_uint64("seed", 1);

  for (IniSection& section : sections) {
    if (section.name.rfind("axis.", 0) != 0) {
      continue;
    }
    const SectionReader reader(section);
    Axis axis;
    axis.name = section.name.substr(5);
    if (axis.name.empty()) {
      fail(section.line, "axis section needs a name: [axis.<name>]");
    }
    const IniEntry& values = reader.require("values");
    for (const std::string& item : split_list(values.value, values.line)) {
      double parsed = 0.0;
      if (!parse_number(item, values.line, parsed)) {
        fail(values.line, "axis value '" + item + "' is not a number");
      }
      axis.values.push_back(parsed);
    }
    manifest.spec.axes.push_back(std::move(axis));
  }

  if (const SectionReader adaptive(sections, "adaptive"); adaptive.present()) {
    AdaptiveSpec& config = manifest.spec.adaptive;
    config.metric = adaptive.get_string("metric", "pocd");
    config.target_ci95 = adaptive.get_double("target_ci95", 0.0);
    config.batch = adaptive.get_int("batch", 1, 1);
    adaptive.require("max_replications");
    config.max_replications = adaptive.get_int("max_replications", 0, 0);
  }

  // The cell-template sections: their readers write the journal salt.
  std::string* salt = &manifest.journal_salt;
  {
    const SectionReader reader(sections, "trace", salt);
    trace::TraceConfig& config = manifest.trace;
    config.num_jobs = reader.get_int("num_jobs", config.num_jobs, 1);
    config.duration_hours =
        reader.get_double("duration_hours", config.duration_hours);
    config.mean_tasks = reader.get_double("mean_tasks", config.mean_tasks);
    config.max_tasks = reader.get_int("max_tasks", config.max_tasks, 1);
    config.t_min_lo = reader.get_double("t_min_lo", config.t_min_lo);
    config.t_min_hi = reader.get_double("t_min_hi", config.t_min_hi);
    config.seed = reader.get_uint64("seed", config.seed);
    manifest.trace_beta = reader.optional_binding("beta", manifest.spec);
    manifest.trace_deadline_factor =
        reader.optional_binding("deadline_factor", manifest.spec);
  }

  // [stage.N] templates: N must run 1, 2, ... without gaps (stage 0 is the
  // sampled root stage and has no section).
  for (IniSection& section : sections) {
    if (section.name.rfind("stage.", 0) != 0) {
      continue;
    }
    const int number = static_cast<int>(manifest.stages.size()) + 1;
    if (section.name != "stage." + std::to_string(number)) {
      fail(section.line, "stage sections must be contiguous from 1: "
                         "expected [stage." + std::to_string(number) +
                         "], got [" + section.name + "]");
    }
    const SectionReader reader(section, salt);
    ManifestStage stage;
    stage.tasks = reader.required_binding("tasks", manifest.spec);
    if (!stage.tasks.bound() && stage.tasks.fixed < 1.0) {
      fail(section.line, "stage tasks must be >= 1");
    }
    stage.t_min = reader.required_binding("t_min", manifest.spec);
    if (!stage.t_min.bound() && stage.t_min.fixed <= 0.0) {
      fail(section.line, "stage t_min must be positive");
    }
    stage.beta = reader.required_binding("beta", manifest.spec);
    if (!stage.beta.bound() && stage.beta.fixed <= 1.0) {
      fail(section.line, "stage beta must exceed 1 (finite mean)");
    }
    std::string deps_record;
    if (const IniEntry* deps = reader.find("deps")) {
      for (const std::string& item : split_list(deps->value, deps->line)) {
        int dep = 0;
        if (parse_integer(item, dep) != std::errc()) {
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
        deps_record += std::to_string(dep) + ',';
      }
    }
    reader.record("deps", deps_record);
    manifest.stages.push_back(std::move(stage));
  }

  {
    const SectionReader reader(sections, "planner", salt);
    manifest.planner_theta =
        reader
            .optional_binding("theta", manifest.spec,
                              encode_binding(manifest.planner_theta))
            .value_or(manifest.planner_theta);
    const trace::PlannerConfig defaults;
    manifest.planner_tau_est_factor = reader.optional_binding(
        "tau_est_factor", manifest.spec,
        numeric::format_double(defaults.tau_est_factor));
    manifest.planner_tau_kill_factor = reader.optional_binding(
        "tau_kill_factor", manifest.spec,
        numeric::format_double(defaults.tau_kill_factor));
  }

  {
    const SectionReader reader(sections, "experiment", salt);
    const std::string cluster = reader.get_string("cluster", "large_scale");
    if (cluster != "large_scale") {
      fail(reader.find("cluster")->line,
           "cluster must be 'large_scale', got '" + cluster + "'");
    }
    manifest.report_utility = reader.get_bool("utility", false);
    if (const IniEntry* r_min = reader.find("r_min");
        r_min != nullptr && r_min->value != "baseline") {
      if (!parse_number(r_min->value, r_min->line, manifest.r_min_fixed)) {
        fail(r_min->line, "r_min must be 'baseline' or a number, got '" +
                              r_min->value + "'");
      }
      manifest.r_min_mode = RMinMode::kFixed;
    }
    reader.record("r_min", manifest.r_min_mode == RMinMode::kBaseline
                               ? "baseline"
                               : numeric::format_double(manifest.r_min_fixed));
    manifest.r_min_offset = reader.get_double("r_min_offset", 0.0);
  }

  if (const SectionReader reader(sections, "arrivals", salt);
      reader.present()) {
    ManifestArrivals arrivals;
    sim::OpenSystemConfig& open = arrivals.open;
    if (const std::string kind = reader.get_string("kind", "poisson");
        kind != "poisson") {
      fail(reader.find("kind")->line,
           "arrivals kind must be poisson, got '" + kind + "'");
    }
    arrivals.rate = reader.required_binding("rate", manifest.spec);
    if (!arrivals.rate.bound() && arrivals.rate.fixed <= 0.0) {
      fail(reader.find("rate")->line, "arrival rate must be positive");
    }
    open.duration =
        reader.get_double("duration_hours", open.duration / 3600.0) * 3600.0;
    open.warm_up =
        reader.get_double("warm_up_hours", open.warm_up / 3600.0) * 3600.0;
    if (!(open.duration > 0.0 && open.warm_up >= 0.0 &&
          open.warm_up < open.duration)) {
      fail(reader.line(), "[arrivals] needs duration_hours > 0 and "
                          "warm_up_hours in [0, duration_hours)");
    }
    // Every run drains and applies admission control, so `drain` and
    // `admission` take only `on`. Each still records "on" in the salt at
    // its own point, which keeps journals written by earlier builds valid.
    const auto require_on = [&reader](const std::string& key) {
      if (const std::string value = reader.get_string(key, "on");
          value != "on") {
        fail(reader.find(key)->line,
             "arrivals " + key + " must be on, got '" + value + "'");
      }
    };
    require_on("drain");
    const IniEntry* plan = reader.find("plan");
    const std::string plan_name = plan == nullptr ? "policy" : plan->value;
    if (plan_name == "auto") {
      open.auto_strategy = true;
    } else if (plan_name != "policy") {
      fail(plan->line,
           "plan must be 'policy' or 'auto', got '" + plan_name + "'");
    }
    reader.record("plan", plan_name);
    std::string cache_name = "off";
    if (const IniEntry* plan_cache = reader.find("plan_cache")) {
      const std::string& value = plan_cache->value;
      if (value.rfind("quantized:", 0) == 0) {
        double grid = 0.0;
        if (!parse_number(value.substr(10), plan_cache->line, grid) ||
            grid < serve::kMinQuantizeGrid) {
          fail(plan_cache->line,
               "plan_cache quantization grid must be a number >= " +
                   numeric::format_double(serve::kMinQuantizeGrid) +
                   ", got '" + value.substr(10) + "'");
        }
        open.plan_cache.grid = grid;
        cache_name = "quantized:" + numeric::format_double(grid);
      } else if (value != "off") {
        fail(plan_cache->line,
             "plan_cache must be off or quantized:<grid>, got '" +
                 value + "'");
      }
    }
    reader.record("plan_cache", cache_name);
    require_on("admission");
    arrivals.nodes =
        reader.optional_binding("nodes", manifest.spec, "preset");
    // The cluster keeps one placement set of N bits per free count 0..C
    // (sim/cluster.h), so C caps at 127: 16 bytes per node, 17 MB at the
    // 2^20-node limit.
    arrivals.containers =
        reader.get_int("containers", arrivals.containers, 1, 127);
    manifest.arrivals = std::move(arrivals);
    if (manifest.report_utility &&
        manifest.r_min_mode == RMinMode::kBaseline) {
      fail(reader.line(),
           "[arrivals] sweeps need a numeric r_min: the baseline r_min "
           "is a property of a pre-generated closed-system trace");
    }
  }

  // [output] and [shard] never change the numbers: no salt.
  {
    const SectionReader reader(sections, "output");
    manifest.outputs.csv = reader.get_string("csv", "");
    manifest.outputs.json = reader.get_string("json", "");
    manifest.outputs.journal = reader.get_string("journal", "");
  }

  if (const SectionReader reader(sections, "shard"); reader.present()) {
    reader.require("count");
    manifest.shard.count = reader.get_int("count", 0, 1);
    manifest.shard.dir = reader.get_string("dir", ".");
    if (manifest.shard.dir.empty()) {
      fail(reader.find("dir")->line, "shard dir must not be empty");
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
        trace::ExperimentConfig::large_scale(point.policy, seed);
    if (m->arrivals.has_value()) {
      const ManifestArrivals& a = *m->arrivals;
      auto open = std::make_shared<sim::OpenSystemConfig>(a.open);
      open->arrivals.rate = a.rate.resolve(point);
      open->workload = resolve_trace(*m, point);
      open->planner = resolve_planner(*m, point);
      if (a.nodes.has_value()) {
        const double resolved = a.nodes->resolve(point);
        const long long nodes = std::llround(resolved);
        CHRONOS_EXPECTS(nodes >= 1 && nodes <= (1 << 20),
                        "arrivals nodes must resolve to [1, 2^20]");
        sim::NodeConfig node;
        node.containers = a.containers;
        open->cluster =
            sim::ClusterConfig::uniform(static_cast<int>(nodes), node);
        open->scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
        open->scheduler.estimator = mapreduce::EstimatorKind::kChronos;
      } else {
        open->cluster = preset.cluster;
        open->scheduler = preset.scheduler;
      }
      open->policy = point.policy;
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
