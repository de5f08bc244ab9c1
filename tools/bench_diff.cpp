// bench_diff — compares two metrics JSON exports (BENCH_*.json, written by
// `perf_microbench --metrics-out FILE` or a bench harness's MetricsExport)
// and flags per-metric regressions beyond a threshold.
//
//   bench_diff <baseline.json> <current.json> [--threshold PCT]
//              [--prefix NAME.] [--format text|json] [--update] [--sha SHA]
//   bench_diff --record <history.jsonl> <current.json> [--prefix NAME.]
//              [--sha SHA]
//   bench_diff --trend <history.jsonl> [--prefix NAME.] [--last N]
//
// Compares every gauge whose name starts with the prefix (default "bench.",
// the timing gauges; an empty prefix compares all gauges). A current value
// more than PCT percent above baseline (default 25; perf numbers on shared
// CI runners are noisy) is a regression. Exit codes: 0 = no regressions,
// 1 = at least one regression, 2 = usage or parse error. CI runs this as
// an advisory step — the exit code flags, it does not gate.
//
// `--format json` replaces the table with a machine-readable document
// (metrics array + summary) so dashboards and CI annotations can consume
// the comparison without scraping the table; exit codes are unchanged.
//
// `--update` accepts the current run as the new baseline: after printing
// the comparison plus per-metric speedup ratios (baseline / current), the
// baseline file is rewritten with the current export plus a "meta" object
// ({"sha": <git HEAD>, "timestamp": <ISO 8601 UTC>}) recording provenance.
// The refresh is deliberate, so regressions do not fail the run in this
// mode (exit 0 unless the files cannot be read or written).
//
// `--record` appends one perf-trajectory ledger row — {"sha", "timestamp",
// "metrics": {<prefix-matching gauges, counters and histogram sums>}} — to
// a history JSONL file (bench/BENCH_history.jsonl in this repo), creating
// it if absent. Counters and histogram sums carry a paper bench's work
// counts (solves by status, respec iterations, `gp.solve.newton_iters.sum`).
// `--trend` renders that ledger: per-metric first/last/min/max and total
// drift across the recorded runs. Both stamp provenance the same way as
// --update: the sha comes from `git rev-parse HEAD`, and when git is
// unavailable the tool errors clearly (exit 2) instead of writing empty
// fields — pass --sha SHA to record outside a git checkout.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "util/file.h"
#include "util/json.h"
#include "util/strfmt.h"
#include "util/table.h"

namespace {

using smart::util::JsonValue;
using smart::util::read_file;
using smart::util::write_file;

/// Loads the "gauges" object of one metrics export as name -> value, and
/// with `work_counts` also its counters and each histogram's sum as
/// "<name>.sum" (a paper bench's solves by status, respec iterations,
/// `gp.solve.newton_iters.sum`). `role` ("baseline" or "current") scopes
/// the diagnostics; a missing or malformed baseline additionally prints how
/// to mint a fresh one, since that is the common first-run failure.
bool load_gauges(const std::string& path, const char* role,
                 const std::string& prefix,
                 std::map<std::string, double>* out,
                 bool work_counts = false) {
  const bool is_baseline = std::strcmp(role, "baseline") == 0;
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "bench_diff: cannot read %s file %s: %s\n", role,
                 path.c_str(), std::strerror(errno));
    if (is_baseline)
      std::fprintf(stderr,
                   "bench_diff: create a baseline with "
                   "`perf_microbench --metrics-out %s`, or accept a "
                   "current run with `bench_diff %s <current.json> "
                   "--update`\n",
                   path.c_str(), path.c_str());
    return false;
  }
  JsonValue root;
  if (!smart::util::json_parse(text, &root)) {
    std::string head = text.substr(0, 60);
    for (char& c : head)
      if (c == '\n' || c == '\r') c = ' ';
    std::fprintf(stderr,
                 "bench_diff: %s file %s is not valid JSON "
                 "(starts: \"%s%s\")\n",
                 role, path.c_str(), head.c_str(),
                 text.size() > 60 ? "..." : "");
    if (is_baseline)
      std::fprintf(stderr,
                   "bench_diff: the baseline is likely truncated or "
                   "hand-edited; regenerate it with "
                   "`perf_microbench --metrics-out %s` or refresh it "
                   "with --update\n",
                   path.c_str());
    return false;
  }
  const JsonValue* gauges = root.find("gauges");
  if (gauges == nullptr || gauges->kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr,
                 "bench_diff: %s file %s has no \"gauges\" object — is it "
                 "a metrics export (obs::Telemetry JSON) and not some "
                 "other JSON?\n",
                 role, path.c_str());
    return false;
  }
  const auto take = [&](const std::string& name, const JsonValue* value) {
    if (value != nullptr && value->kind == JsonValue::Kind::kNumber &&
        name.rfind(prefix, 0) == 0)
      (*out)[name] = value->number;
  };
  for (const auto& [name, value] : gauges->object) take(name, &value);
  if (!work_counts) return true;
  if (const JsonValue* counters = root.find("counters");
      counters != nullptr && counters->kind == JsonValue::Kind::kObject)
    for (const auto& [name, value] : counters->object) take(name, &value);
  if (const JsonValue* hists = root.find("histograms");
      hists != nullptr && hists->kind == JsonValue::Kind::kObject)
    for (const auto& [name, value] : hists->object)
      take(name + ".sum", value.find("sum"));
  return true;
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_diff <baseline.json> <current.json> "
               "[--threshold PCT] [--prefix NAME.] [--format text|json] "
               "[--update] [--sha SHA]\n"
               "       bench_diff --record <history.jsonl> <current.json> "
               "[--prefix NAME.] [--sha SHA]\n"
               "       bench_diff --trend <history.jsonl> [--prefix NAME.] "
               "[--last N]\n");
}

/// HEAD commit sha of the working directory's git checkout; empty when git
/// is missing, not a repo, or otherwise fails.
std::string git_head_sha() {
  std::FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "";
  char buf[128] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  const int rc = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  if (rc != 0 || out.size() < 7) return "";
  for (char c : out)
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return "";
  return out;
}

/// Provenance sha for stamping: --sha wins, then git HEAD; errors clearly
/// (and returns empty) when neither is available, so ledger rows and
/// baselines can never carry silently-empty provenance.
std::string provenance_sha(const std::string& sha_flag) {
  if (!sha_flag.empty()) return sha_flag;
  const std::string sha = git_head_sha();
  if (sha.empty())
    std::fprintf(stderr,
                 "bench_diff: git unavailable (no sha to stamp); run inside "
                 "a git checkout or pass --sha SHA\n");
  return sha;
}

std::string iso_timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Appends one {"sha","timestamp","metrics"} row to the history ledger.
int record_history(const std::string& history_path,
                   const std::string& current_path,
                   const std::string& prefix, const std::string& sha_flag) {
  std::map<std::string, double> current;
  if (!load_gauges(current_path, "current", prefix, &current,
                   /*work_counts=*/true))
    return 2;
  if (current.empty()) {
    std::fprintf(stderr,
                 "bench_diff: no gauges with prefix '%s' in %s — nothing "
                 "to record\n",
                 prefix.c_str(), current_path.c_str());
    return 2;
  }
  const std::string sha = provenance_sha(sha_flag);
  if (sha.empty()) return 2;

  std::string row = "{\"sha\":\"" + sha + "\",\"timestamp\":\"" +
                    iso_timestamp_utc() + "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : current) {
    if (!first) row += ",";
    first = false;
    row += '"';
    row += smart::util::json_escape(name);
    row += smart::util::strfmt("\":%.6g", value);
  }
  row += "}}\n";

  std::FILE* f = std::fopen(history_path.c_str(), "a");
  bool appended = false;
  if (f != nullptr) {
    const bool wrote = std::fwrite(row.data(), 1, row.size(), f) == row.size();
    appended = std::fclose(f) == 0 && wrote;  // closed exactly once
  }
  if (!appended) {
    std::fprintf(stderr, "bench_diff: cannot append to history %s: %s\n",
                 history_path.c_str(), std::strerror(errno));
    return 2;
  }
  std::printf("recorded %zu metrics @ %.12s -> %s\n", current.size(),
              sha.c_str(), history_path.c_str());
  return 0;
}

/// One parsed ledger row.
struct HistoryRow {
  std::string sha;
  std::string timestamp;
  std::map<std::string, double> metrics;
};

/// Renders the perf trajectory recorded in the history ledger: the run
/// list, then per-metric first -> last drift with the min/max envelope.
int trend_report(const std::string& history_path, const std::string& prefix,
                 size_t last_n) {
  std::string text;
  if (!read_file(history_path, &text)) {
    std::fprintf(stderr, "bench_diff: cannot read history %s: %s\n",
                 history_path.c_str(), std::strerror(errno));
    return 2;
  }
  std::vector<HistoryRow> rows;
  size_t start = 0;
  size_t lineno = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue root;
    if (!smart::util::json_parse(line, &root) ||
        root.kind != JsonValue::Kind::kObject) {
      std::fprintf(stderr,
                   "bench_diff: history %s line %zu is not valid JSON — "
                   "skipping it\n",
                   history_path.c_str(), lineno);
      continue;
    }
    HistoryRow row;
    if (const JsonValue* sha = root.find("sha");
        sha != nullptr && sha->kind == JsonValue::Kind::kString)
      row.sha = sha->str;
    if (const JsonValue* ts = root.find("timestamp");
        ts != nullptr && ts->kind == JsonValue::Kind::kString)
      row.timestamp = ts->str;
    if (const JsonValue* metrics = root.find("metrics");
        metrics != nullptr && metrics->kind == JsonValue::Kind::kObject) {
      for (const auto& [name, value] : metrics->object) {
        if (value.kind != JsonValue::Kind::kNumber) continue;
        if (name.rfind(prefix, 0) != 0) continue;
        row.metrics[name] = value.number;
      }
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    std::fprintf(stderr, "bench_diff: history %s has no valid rows\n",
                 history_path.c_str());
    return 2;
  }
  if (last_n > 0 && rows.size() > last_n)
    rows.erase(rows.begin(),
               rows.begin() + static_cast<long>(rows.size() - last_n));

  std::printf("perf trajectory: %zu recorded run%s in %s\n", rows.size(),
              rows.size() == 1 ? "" : "s", history_path.c_str());
  for (const HistoryRow& row : rows)
    std::printf("  %.12s  %s  (%zu metrics)\n",
                row.sha.empty() ? "(no sha)" : row.sha.c_str(),
                row.timestamp.empty() ? "(no timestamp)"
                                      : row.timestamp.c_str(),
                row.metrics.size());

  // Union of metric names, in the order metrics first appeared.
  std::vector<std::string> names;
  for (const HistoryRow& row : rows)
    for (const auto& [name, value] : row.metrics) {
      (void)value;
      bool known = false;
      for (const std::string& n : names) known = known || n == name;
      if (!known) names.push_back(name);
    }

  smart::util::Table table(
      {"metric", "runs", "first", "last", "drift", "min", "max"});
  for (const std::string& name : names) {
    std::vector<double> values;
    for (const HistoryRow& row : rows) {
      const auto it = row.metrics.find(name);
      if (it != row.metrics.end()) values.push_back(it->second);
    }
    if (values.empty()) continue;
    double lo = values.front(), hi = values.front();
    for (double v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double first_v = values.front(), last_v = values.back();
    table.add_row(
        {name, smart::util::strfmt("%zu", values.size()),
         smart::util::strfmt("%.4g", first_v),
         smart::util::strfmt("%.4g", last_v),
         first_v > 0.0
             ? smart::util::strfmt("%+.1f%%", (last_v / first_v - 1.0) * 100)
             : "-",
         smart::util::strfmt("%.4g", lo), smart::util::strfmt("%.4g", hi)});
  }
  std::printf("%s", table.render("metric trends (first recorded -> latest)")
                        .c_str());
  return 0;
}

/// One compared metric; `baseline`/`current` are negative-NaN-free but a
/// side can be absent (MISSING / new metrics).
struct DiffRow {
  std::string name;
  bool has_base = false;
  bool has_cur = false;
  double base = 0.0;
  double cur = 0.0;
  double delta_pct = 0.0;
  const char* verdict = "ok";
};

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path;
  double threshold = 25.0;
  std::string prefix = "bench.";
  std::string format = "text";
  std::string sha_flag;
  size_t last_n = 0;
  bool update = false, record = false, trend = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      const size_t len = std::strlen(flag);
      if (arg.rfind(std::string(flag) + "=", 0) == 0)
        return argv[i] + len + 1;
      if (arg == flag && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (arg.rfind("--", 0) == 0) {
      if (const char* v = value_of("--threshold")) {
        threshold = std::atof(v);
      } else if (const char* v = value_of("--prefix")) {
        prefix = v;
      } else if (const char* v = value_of("--format")) {
        format = v;
      } else if (const char* v = value_of("--sha")) {
        sha_flag = v;
      } else if (const char* v = value_of("--last")) {
        last_n = static_cast<size_t>(std::atol(v));
      } else if (arg == "--update") {
        update = true;
      } else if (arg == "--record") {
        record = true;
      } else if (arg == "--trend") {
        trend = true;
      } else {
        std::fprintf(stderr, "bench_diff: unknown flag %s\n", arg.c_str());
        usage();
        return 2;
      }
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (record && trend) {
    std::fprintf(stderr, "bench_diff: --record and --trend are exclusive\n");
    usage();
    return 2;
  }
  // Ledger modes reuse the positionals: --record <history> <current>,
  // --trend <history>.
  if (record) {
    if (baseline_path.empty() || current_path.empty()) {
      usage();
      return 2;
    }
    return record_history(baseline_path, current_path, prefix, sha_flag);
  }
  if (trend) {
    if (baseline_path.empty() || !current_path.empty()) {
      usage();
      return 2;
    }
    return trend_report(baseline_path, prefix, last_n);
  }
  if (baseline_path.empty() || current_path.empty()) {
    usage();
    return 2;
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "bench_diff: unknown format '%s' (want text or "
                 "json)\n", format.c_str());
    return 2;
  }

  std::map<std::string, double> baseline, current;
  if (!load_gauges(baseline_path, "baseline", prefix, &baseline) ||
      !load_gauges(current_path, "current", prefix, &current))
    return 2;
  if (baseline.empty()) {
    std::fprintf(stderr,
                 "bench_diff: no gauges with prefix '%s' in baseline %s\n",
                 prefix.c_str(), baseline_path.c_str());
    return 2;
  }

  std::vector<DiffRow> rows;
  size_t regressions = 0, improvements = 0, missing = 0;
  for (const auto& [name, base] : baseline) {
    DiffRow row;
    row.name = name;
    row.has_base = true;
    row.base = base;
    const auto it = current.find(name);
    if (it == current.end()) {
      // A benchmark that disappeared is flagged like a regression: a rename
      // must come with a baseline refresh, and a silently dropped bench
      // would otherwise hide its own regression forever.
      row.verdict = "MISSING";
      ++missing;
      rows.push_back(row);
      continue;
    }
    row.has_cur = true;
    row.cur = it->second;
    row.delta_pct = base > 0.0 ? (row.cur / base - 1.0) * 100.0 : 0.0;
    if (row.delta_pct > threshold) {
      row.verdict = "REGRESSION";
      ++regressions;
    } else if (row.delta_pct < -threshold) {
      row.verdict = "improved";
      ++improvements;
    }
    rows.push_back(row);
  }
  for (const auto& [name, cur] : current) {
    if (baseline.count(name) != 0) continue;
    DiffRow row;
    row.name = name;
    row.has_cur = true;
    row.cur = cur;
    row.verdict = "new";
    rows.push_back(row);
  }

  if (format == "json") {
    std::string out = "{\"baseline\":\"" + baseline_path +
                      "\",\"current\":\"" + current_path + "\",";
    out += smart::util::strfmt("\"threshold_pct\":%.1f,\"metrics\":[",
                               threshold);
    for (size_t i = 0; i < rows.size(); ++i) {
      const DiffRow& r = rows[i];
      if (i != 0) out += ",";
      out += "{\"name\":\"" + r.name + "\",";
      out += r.has_base ? smart::util::strfmt("\"baseline\":%.6g,", r.base)
                        : "\"baseline\":null,";
      out += r.has_cur ? smart::util::strfmt("\"current\":%.6g,", r.cur)
                       : "\"current\":null,";
      out += r.has_base && r.has_cur
                 ? smart::util::strfmt("\"delta_pct\":%.2f,", r.delta_pct)
                 : "\"delta_pct\":null,";
      out += "\"verdict\":\"" + std::string(r.verdict) + "\"}";
    }
    out += smart::util::strfmt(
        "],\"summary\":{\"regressions\":%zu,\"improvements\":%zu,"
        "\"missing\":%zu,\"compared\":%zu}}",
        regressions, improvements, missing, baseline.size());
    std::printf("%s\n", out.c_str());
  } else {
    smart::util::Table table(
        {"metric", "baseline", "current", "delta", "verdict"});
    for (const DiffRow& r : rows) {
      table.add_row(
          {r.name,
           r.has_base ? smart::util::strfmt("%.4g", r.base) : "-",
           r.has_cur ? smart::util::strfmt("%.4g", r.cur) : "-",
           r.has_base && r.has_cur
               ? smart::util::strfmt("%+.1f%%", r.delta_pct)
               : "-",
           std::strcmp(r.verdict, "new") == 0 ? "new (not in baseline)"
                                              : r.verdict});
    }
    std::printf("%s", table.render(smart::util::strfmt(
                                       "bench_diff: %s vs baseline %s "
                                       "(threshold %.0f%%)",
                                       current_path.c_str(),
                                       baseline_path.c_str(), threshold))
                          .c_str());
    std::printf("%zu regressions, %zu improvements, %zu missing of %zu "
                "baseline metrics\n",
                regressions, improvements, missing, baseline.size());
  }

  if (update) {
    // Speedup view of the accepted refresh: ratio > 1 means the new
    // baseline is that many times faster than the old one.
    for (const auto& [name, base] : baseline) {
      const auto it = current.find(name);
      if (it == current.end() || !(it->second > 0.0)) continue;
      std::printf("%s: %.4g -> %.4g (%.2fx %s)\n", name.c_str(), base,
                  it->second, base / it->second,
                  base >= it->second ? "speedup" : "slowdown, 1/x");
    }
    // The refreshed baseline carries provenance: the current export plus a
    // "meta" object naming the commit and time it was minted. Refusing to
    // write without a sha is deliberate — an unstamped baseline cannot be
    // traced back to the code that produced it.
    const std::string sha = provenance_sha(sha_flag);
    if (sha.empty()) return 2;
    std::string text;
    JsonValue root;
    if (!read_file(current_path, &text) ||
        !smart::util::json_parse(text, &root) ||
        root.kind != JsonValue::Kind::kObject) {
      std::fprintf(stderr, "bench_diff: cannot re-read %s for the update\n",
                   current_path.c_str());
      return 2;
    }
    JsonValue meta;
    meta.kind = JsonValue::Kind::kObject;
    JsonValue sha_v;
    sha_v.kind = JsonValue::Kind::kString;
    sha_v.str = sha;
    JsonValue ts_v;
    ts_v.kind = JsonValue::Kind::kString;
    ts_v.str = iso_timestamp_utc();
    meta.object["sha"] = sha_v;
    meta.object["timestamp"] = ts_v;
    root.object["meta"] = meta;
    if (!write_file(baseline_path, smart::util::json_dump(root) + "\n")) {
      std::fprintf(stderr, "bench_diff: cannot rewrite baseline %s from %s\n",
                   baseline_path.c_str(), current_path.c_str());
      return 2;
    }
    std::printf("baseline %s updated from %s (meta: %.12s @ %s)\n",
                baseline_path.c_str(), current_path.c_str(), sha.c_str(),
                ts_v.str.c_str());
    return 0;
  }
  return regressions + missing > 0 ? 1 : 0;
}
