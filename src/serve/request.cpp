#include "serve/request.h"

#include <cmath>

#include "serve/protocol.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/strfmt.h"

namespace smart::serve {

namespace {

bool read_number(const util::JsonValue& v, double* out) {
  if (v.kind != util::JsonValue::Kind::kNumber) return false;
  *out = v.number;
  return true;
}

}  // namespace

util::Status parse_request(const std::string& payload, Request* out) {
  util::JsonValue doc;
  if (!util::json_parse(payload, &doc) ||
      doc.kind != util::JsonValue::Kind::kObject)
    return util::Status::Fail(util::FailureReason::kInvalidInput,
                              "request payload is not a JSON object");
  Request r;
  for (const auto& [key, value] : doc.object) {
    if (key == "type" || key == "topology" || key == "cost") {
      if (value.kind != util::JsonValue::Kind::kString)
        return util::Status::Fail(
            util::FailureReason::kInvalidInput,
            util::strfmt("request key '%s' must be a string", key.c_str()));
      if (key == "type") r.type = value.str;
      else if (key == "topology") r.topology = value.str;
      else r.cost = value.str;
    } else if (key == "use_cache") {
      if (value.kind != util::JsonValue::Kind::kBool)
        return util::Status::Fail(util::FailureReason::kInvalidInput,
                                  "request key 'use_cache' must be a bool");
      r.use_cache = value.boolean;
    } else if (key == "n" || key == "top_k") {
      double num = 0.0;
      if (!read_number(value, &num) || num < 1 ||
          num != std::floor(num) || num > 1e6)
        return util::Status::Fail(
            util::FailureReason::kInvalidInput,
            util::strfmt("request key '%s' must be a positive integer",
                         key.c_str()));
      if (key == "n") r.n = static_cast<int>(num);
      else r.top_k = static_cast<int>(num);
    } else if (key == "bits" || key == "m" || key == "load_ff" ||
               key == "delay_ps" || key == "precharge_ps" ||
               key == "slope_ps") {
      double num = 0.0;
      if (!read_number(value, &num) || !std::isfinite(num))
        return util::Status::Fail(
            util::FailureReason::kInvalidInput,
            util::strfmt("request key '%s' must be a finite number",
                         key.c_str()));
      if (key == "bits") r.bits = num;
      else if (key == "m") r.m = num;
      else if (key == "load_ff") r.load_ff = num;
      else if (key == "delay_ps") r.delay_ps = num;
      else if (key == "precharge_ps") r.precharge_ps = num;
      else r.slope_ps = num;
    } else {
      return util::Status::Fail(
          util::FailureReason::kInvalidInput,
          util::strfmt("unknown request key '%s'", key.c_str()));
    }
  }
  if (r.type.empty())
    return util::Status::Fail(util::FailureReason::kInvalidInput,
                              "request is missing 'type'");
  if (r.cost != "width" && r.cost != "power" && r.cost != "clock")
    return util::Status::Fail(
        util::FailureReason::kInvalidInput,
        util::strfmt("unknown cost metric '%s' (want width|power|clock)",
                     r.cost.c_str()));
  if (r.load_ff <= 0.0)
    return util::Status::Fail(util::FailureReason::kInvalidInput,
                              "'load_ff' must be positive");
  *out = r;
  return util::Status::Ok();
}

std::string request_json(const Request& r) {
  std::string out = "{";
  out += util::strfmt("\"type\":\"%s\"", util::json_escape(r.type).c_str());
  if (!r.topology.empty())
    out += util::strfmt(",\"topology\":\"%s\"",
                        util::json_escape(r.topology).c_str());
  out += util::strfmt(",\"n\":%d", r.n);
  if (r.bits >= 0.0) out += util::strfmt(",\"bits\":%.17g", r.bits);
  if (r.m >= 0.0) out += util::strfmt(",\"m\":%.17g", r.m);
  out += util::strfmt(",\"load_ff\":%.17g", r.load_ff);
  if (r.delay_ps > 0.0) out += util::strfmt(",\"delay_ps\":%.17g", r.delay_ps);
  if (r.precharge_ps >= 0.0)
    out += util::strfmt(",\"precharge_ps\":%.17g", r.precharge_ps);
  if (r.slope_ps >= 0.0)
    out += util::strfmt(",\"slope_ps\":%.17g", r.slope_ps);
  out += util::strfmt(",\"cost\":\"%s\"", util::json_escape(r.cost).c_str());
  out += util::strfmt(",\"top_k\":%d", r.top_k);
  if (!r.use_cache) out += ",\"use_cache\":false";
  out += "}";
  return out;
}

core::MacroSpec to_spec(const Request& r) {
  core::MacroSpec spec;
  spec.type = r.type;
  spec.n = r.n;
  if (r.bits >= 0.0) spec.params["bits"] = r.bits;
  if (r.m >= 0.0) spec.params["m"] = r.m;
  spec.load_ff = r.load_ff;
  if (r.slope_ps >= 0.0) spec.input_slope_ps = r.slope_ps;
  return spec;
}

std::string macro_bucket(const Request& r) {
  std::string bucket =
      util::strfmt("%s/%s/n%d", r.type.c_str(), r.topology.c_str(), r.n);
  if (r.bits >= 0.0) bucket += util::strfmt("/b%g", r.bits);
  if (r.m >= 0.0) bucket += util::strfmt("/m%g", r.m);
  bucket += "/" + r.cost;
  return bucket;
}

std::vector<double> constraint_params(const Request& r) {
  return {r.load_ff, r.delay_ps, r.precharge_ps, r.slope_ps};
}

uint64_t request_fingerprint(const Request& r) {
  util::Fnv1a f;
  f.mix(std::string_view(macro_bucket(r)));
  for (const double v : constraint_params(r))
    f.mix(static_cast<int64_t>(std::llround(v * 1e6)));
  return f.h;
}

}  // namespace smart::serve
