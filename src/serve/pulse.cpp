#include "serve/pulse.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/file.h"
#include "util/json.h"
#include "util/strfmt.h"

namespace smart::serve {

namespace {

std::string us_field(const char* key, double v) {
  return util::strfmt("\"%s\":%.1f", key, v);
}

}  // namespace

std::string record_json(const RequestRecord& rec) {
  std::string out = "{";
  out += util::strfmt("\"trace_id\":%llu,\"request_id\":%llu,",
                      static_cast<unsigned long long>(rec.trace_id),
                      static_cast<unsigned long long>(rec.request_id));
  out += "\"peer\":\"" + util::json_escape(rec.peer) + "\",";
  out += "\"op\":\"" + util::json_escape(rec.op) + "\",";
  out += "\"macro\":\"" + util::json_escape(rec.macro) + "\",";
  out += "\"cache\":\"" + util::json_escape(rec.cache) + "\",";
  out += "\"rung\":\"" + util::json_escape(rec.rung) + "\",";
  out += "\"status\":\"" + util::json_escape(rec.status) + "\",";
  out += us_field("queue_us", rec.queue_us) + ",";
  out += us_field("decode_us", rec.decode_us) + ",";
  out += us_field("solve_us", rec.solve_us) + ",";
  out += us_field("encode_us", rec.encode_us) + ",";
  out += us_field("total_us", rec.total_us) + ",";
  out += util::strfmt("\"unix_ms\":%lld}",
                      static_cast<long long>(rec.unix_ms));
  return out;
}

AccessLog::~AccessLog() {
  if (sink_ != nullptr) std::fclose(sink_);
}

bool AccessLog::configure(size_t capacity, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_ = obs::Ring<RequestRecord>(capacity);
  if (sink_ != nullptr) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
  if (path.empty()) return true;
  sink_ = std::fopen(path.c_str(), "a");
  return sink_ != nullptr;
}

void AccessLog::append(const RequestRecord& rec) {
  std::string line;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push(rec);
    if (sink_ == nullptr) return;
    line = record_json(rec);
    line += '\n';
    // Written under the lock: one record per line, never interleaved.
    std::fwrite(line.data(), 1, line.size(), sink_);
    std::fflush(sink_);
  }
}

std::vector<RequestRecord> AccessLog::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.ordered();
}

uint64_t AccessLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.pushed();
}

std::string AccessLog::recent_json() const {
  const std::vector<RequestRecord> records = recent();
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i != 0) out += ",";
    out += record_json(records[i]);
  }
  out += "]";
  return out;
}

bool SlowSpool::configure(const std::string& dir, double threshold_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = false;
  dir_ = dir;
  threshold_ms_ = threshold_ms;
  if (dir.empty() || threshold_ms <= 0.0) return true;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) return false;
  enabled_ = true;
  return true;
}

bool SlowSpool::capture(const RequestRecord& rec,
                        const std::string& request_json,
                        const std::string& diag_json) {
  std::string body = "{\"record\":" + record_json(rec);
  body += ",\"request\":";
  body += request_json.empty() ? "null" : request_json;
  body += ",\"diagnostics\":";
  body += diag_json.empty() ? "null" : diag_json;
  body += "}\n";

  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) return false;
    const uint64_t id = rec.trace_id != 0 ? rec.trace_id : rec.request_id;
    path = util::strfmt("%s/slow-%lld-%llu-%llu.json", dir_.c_str(),
                        static_cast<long long>(rec.unix_ms),
                        static_cast<unsigned long long>(id),
                        static_cast<unsigned long long>(seq_++));
  }

  if (!util::write_file(path, body)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++captured_;
  return true;
}

uint64_t SlowSpool::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captured_;
}

}  // namespace smart::serve
