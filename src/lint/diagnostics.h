#pragma once

/// \file diagnostics.h
/// Diagnostics model shared by SMART's static analyzers: the electrical
/// rule checker over macro netlists (lint/erc.h) and the GP well-formedness
/// verifier (gp/verify.h). Every finding carries a stable rule id
/// (ERC0xx / GPV1xx), a severity, and a location, so reports are machine
/// readable, per-rule suppressible, and diffable across runs — the same
/// contract the paper's database assumes implicitly ("clean transistor-level
/// schematics") made checkable.

#include <set>
#include <string>
#include <vector>

namespace smart::lint {

enum class Severity { kInfo = 0, kWarn = 1, kError = 2 };

/// Stable lowercase identifier ("info", "warn", "error").
const char* to_string(Severity severity);

/// One static-analysis finding.
struct Finding {
  std::string rule;      ///< stable id, e.g. "ERC001" or "GPV104"
  Severity severity = Severity::kWarn;
  std::string macro;     ///< netlist / GP problem the finding is about
  std::string location;  ///< component, net, label, or constraint tag
  std::string message;   ///< human-readable explanation
};

/// Registry entry of one rule: id, default severity, one-line summary.
/// Some rules escalate or demote per finding (e.g. a missing keeper is an
/// error on unfooted stages, a warning on footed ones); the registry lists
/// the default.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

/// The electrical-rule-check rules (ERC0xx), in id order.
const std::vector<RuleInfo>& erc_rules();
/// The GP well-formedness rules (GPV1xx), in id order.
const std::vector<RuleInfo>& gp_rules();
/// Looks a rule up by id across both registries; nullptr if unknown.
const RuleInfo* find_rule(const std::string& id);

/// Analyzer knobs: per-rule suppression. The numeric thresholds of the
/// family rules are constants in lint/erc.cpp, set to the values the
/// shipped macro database is clean against.
struct Options {
  /// Rule ids whose findings are dropped entirely (e.g. {"ERC010"}).
  std::set<std::string> suppress;

  bool suppressed(const std::string& rule) const {
    return suppress.count(rule) > 0;
  }
};

/// Ordered collection of findings with severity counts. Suppressed rules
/// are dropped at add() time so counts always reflect the report's content.
class Report {
 public:
  explicit Report(Options options = {}) : options_(std::move(options)) {}

  /// Records a finding unless its rule is suppressed.
  void add(const std::string& rule, Severity severity,
           const std::string& macro, const std::string& location,
           const std::string& message);

  /// Appends every finding of `other` (suppression already applied there).
  void merge(const Report& other);

  const std::vector<Finding>& findings() const { return findings_; }
  size_t count(Severity severity) const;
  size_t errors() const { return count(Severity::kError); }
  size_t warnings() const { return count(Severity::kWarn); }
  bool clean() const { return errors() == 0; }

  /// First finding of the given severity; nullptr if none.
  const Finding* first(Severity severity) const;

  /// Plain-text rendering, one line per finding plus a summary line.
  std::string to_text() const;
  /// JSON rendering: {"findings":[...],"counts":{"error":..,"warn":..,
  /// "info":..}}.
  std::string to_json() const;

 private:
  Options options_;
  std::vector<Finding> findings_;
  size_t counts_[3] = {0, 0, 0};
};

}  // namespace smart::lint
