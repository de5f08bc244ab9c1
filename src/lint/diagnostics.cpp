#include "lint/diagnostics.h"

#include "util/json.h"
#include "util/strfmt.h"

namespace smart::lint {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

const std::vector<RuleInfo>& erc_rules() {
  static const std::vector<RuleInfo> rules = {
      {"ERC001", Severity::kError,
       "floating transistor gate (no driver, port, or supply)"},
      {"ERC002", Severity::kError,
       "node has no DC path to VDD/GND through device channels"},
      {"ERC003", Severity::kError, "device source and drain are shorted"},
      {"ERC004", Severity::kError,
       "pass gates with a shared select drive one net from different data"},
      {"ERC005", Severity::kWarn,
       "sneak-path risk: multi-driven pass net feeds another pass stage"},
      {"ERC006", Severity::kWarn, "series stack exceeds the family limit"},
      {"ERC007", Severity::kError,
       "domino keeper missing (error on unfooted), weak, or fighting"},
      {"ERC008", Severity::kError,
       "non-monotonic input: dynamic node feeds a domino stage directly"},
      {"ERC009", Severity::kWarn,
       "charge-sharing risk on a high-fanin dynamic node"},
      {"ERC010", Severity::kWarn,
       "shared size label used in structurally inequivalent positions"},
      {"ERC011", Severity::kInfo, "size label is never used by a device"},
      {"ERC012", Severity::kInfo, "net is connected to nothing"},
  };
  return rules;
}

const std::vector<RuleInfo>& gp_rules() {
  static const std::vector<RuleInfo> rules = {
      {"GPV100", Severity::kError,
       "malformed problem: no variables or objective not set"},
      {"GPV101", Severity::kError,
       "degenerate monomial: non-finite or non-positive coefficient/exponent"},
      {"GPV102", Severity::kError,
       "objective unbounded below in a variable (certificate from the "
       "exponent matrix)"},
      {"GPV103", Severity::kWarn,
       "variable appears in no objective or constraint term"},
      {"GPV104", Severity::kError,
       "constraint is infeasible everywhere in the variable box"},
      {"GPV105", Severity::kError, "variable box is empty or non-positive"},
  };
  return rules;
}

const RuleInfo* find_rule(const std::string& id) {
  for (const auto& r : erc_rules())
    if (id == r.id) return &r;
  for (const auto& r : gp_rules())
    if (id == r.id) return &r;
  return nullptr;
}

void Report::add(const std::string& rule, Severity severity,
                 const std::string& macro, const std::string& location,
                 const std::string& message) {
  if (options_.suppressed(rule)) return;
  counts_[static_cast<size_t>(severity)]++;
  findings_.push_back(Finding{rule, severity, macro, location, message});
}

void Report::merge(const Report& other) {
  for (const auto& f : other.findings_) {
    counts_[static_cast<size_t>(f.severity)]++;
    findings_.push_back(f);
  }
}

size_t Report::count(Severity severity) const {
  return counts_[static_cast<size_t>(severity)];
}

const Finding* Report::first(Severity severity) const {
  for (const auto& f : findings_)
    if (f.severity == severity) return &f;
  return nullptr;
}

std::string Report::to_text() const {
  std::string out;
  for (const auto& f : findings_) {
    out += util::strfmt("%s %s %s: %s: %s\n", f.rule.c_str(),
                        to_string(f.severity), f.macro.c_str(),
                        f.location.c_str(), f.message.c_str());
  }
  out += util::strfmt("%zu error(s), %zu warning(s), %zu info\n", errors(),
                      warnings(), count(Severity::kInfo));
  return out;
}

std::string Report::to_json() const {
  std::string out = "{\"findings\":[";
  for (size_t i = 0; i < findings_.size(); ++i) {
    const auto& f = findings_[i];
    if (i) out += ",";
    out += util::strfmt(
        "{\"rule\":\"%s\",\"severity\":\"%s\",\"macro\":\"%s\","
        "\"location\":\"%s\",\"message\":\"%s\"}",
        util::json_escape(f.rule).c_str(), to_string(f.severity),
        util::json_escape(f.macro).c_str(),
        util::json_escape(f.location).c_str(),
        util::json_escape(f.message).c_str());
  }
  out += util::strfmt(
      "],\"counts\":{\"error\":%zu,\"warn\":%zu,\"info\":%zu}}\n", errors(),
      warnings(), count(Severity::kInfo));
  return out;
}

}  // namespace smart::lint
